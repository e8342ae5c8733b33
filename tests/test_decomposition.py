import math

import pytest
from hypothesis import given, settings, strategies as st

from aesq import decomposition, primes as pt
from aesq.decomposition import (
    DecompParams,
    buchstab_identity_check,
    decomp_value,
    verify_interval,
)
from aesq.errors import DomainError

SYNTH = DecompParams(z=3, U=10, V=30, sqrt_x1=50)

#: Cutoffs that are primes or products of primes hit every boundary.
TIE_PARAMS = [
    DecompParams(z=3, U=15, V=49, sqrt_x1=53),   # U = 3*5, sqrt(V) = 7
    DecompParams(z=5, U=11, V=35, sqrt_x1=47),   # V = 5*7
    DecompParams(z=2, U=15, V=47, sqrt_x1=53),   # U = 3*5 and 2*3*5 <= V, V prime
    DecompParams(z=2, U=15, V=29, sqrt_x1=53),   # U = 3*5 and 2*3*5 > V, V prime
    DecompParams(z=3, U=37, V=105, sqrt_x1=60),  # V = 3*5*7 with 5*7 < U
    DecompParams(z=11, U=13, V=25, sqrt_x1=60),  # sqrt(V) = 5 < 7 < z: gamma_5* takes p1 = 7
]


def definitional_pieces(m, params):
    """(gamma_1..11, gamma_5*..9*, varpi) at m as literal sums of psi over
    primes, independent of the factor sieve behind decomp_value."""
    z, U, V, S = params.z, params.U, params.V, params.sqrt_x1
    sqV = math.sqrt(V)
    P = [p for p in pt.primes_upto(math.floor(S)) if p < S]

    def psi(d, w):
        # psi(m/d, w), where psi of a non-integer is 0
        return pt.psi(m // d, w) if m % d == 0 else 0

    # every pair or triple sum has z <= p3 < p2 < p1 with p1 < U or p1 <= sqrt(V)
    tops = [p for p in P if z <= p and (p < U or p <= sqV)]
    pairs = [(p1, p2) for p1 in tops for p2 in P if z <= p2 < p1]
    triples = [(p1, p2, p3) for p1, p2 in pairs for p3 in P if z <= p3 < p2]
    gamma = (
        psi(1, z),
        sum(psi(p, p) for p in P if z <= p < U),
        sum(psi(p, p) for p in P if U <= p <= V),
        sum(psi(p, p) for p in P if V < p < S),
        sum(psi(p, z) for p in P if z <= p < U),
        sum(psi(p1 * p2, p2) for p1, p2 in pairs if p1 < U and p1 * p2 < U),
        sum(psi(p1 * p2, p2) for p1, p2 in pairs if p1 < U and U <= p1 * p2 <= V),
        sum(psi(p1 * p2, p2) for p1, p2 in pairs if p1 < U and p1 * p2 > V),
        sum(psi(p1 * p2, z) for p1, p2 in pairs if p1 < U and p1 * p2 < U),
        sum(psi(p1 * p2 * p3, p3) for p1, p2, p3 in triples
            if p1 < U and p1 * p2 < U and p1 * p2 * p3 <= V),
        sum(psi(p1 * p2 * p3, p3) for p1, p2, p3 in triples
            if p1 < U and p1 * p2 < U and p1 * p2 * p3 > V),
    )
    gamma_star = (
        sum(psi(p, p) for p in P if sqV < p < U),
        sum(psi(p, z) for p in P if z <= p <= sqV),
        sum(psi(p1 * p2, z) for p1, p2 in pairs if p1 <= sqV),
        sum(psi(p1 * p2 * p3, p3) for p1, p2, p3 in triples if p1 <= sqV),
        sum(psi(p1 * p2 * p3, p3) for p1, p2, p3 in triples
            if p1 <= sqV and (p1 * p2 >= U or p1 * p2 * p3 <= V)),
    )
    return gamma, gamma_star, psi(1, S)


def assert_pieces_match_definitions(params, ms):
    for m in ms:
        v = decomp_value(m, params)
        assert (v.gamma, v.gamma_star, v.varpi) == definitional_pieces(m, params), m


class TestParams:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            DecompParams(z=10, U=3, V=30, sqrt_x1=50)

    def test_from_exponents(self):
        p = DecompParams.from_exponents(0.9, 1e5)
        assert 2 < p.z < p.U < p.V < p.sqrt_x1**2
        # V = U * z up to float rounding
        assert p.V == pytest.approx(p.U * p.z, rel=1e-9)

    def test_interval_convention(self):
        p = DecompParams.from_exponents(0.9, 1e5)
        lo, hi = p.interval()
        half = 1e5**0.9
        assert lo == math.floor(1e5 - half)
        assert hi == math.floor(1e5 + half)

    def test_interval_needs_scale(self):
        with pytest.raises(DomainError):
            SYNTH.interval()

    def test_starred_identity_condition(self):
        # U/z <= sqrt(V) exactly at theta = 8/9, holds above
        assert DecompParams.from_exponents(8 / 9, 1e5).check_e_applicable()
        assert DecompParams.from_exponents(0.95, 1e5).check_e_applicable()


class TestBuchstabIdentity:
    @given(st.integers(min_value=2, max_value=10**5))
    @settings(max_examples=200, deadline=None)
    def test_pointwise(self, m):
        lhs, rhs = buchstab_identity_check(m, 30, 3)
        assert lhs == rhs

    def test_prime_case(self):
        lhs, rhs = buchstab_identity_check(97, 50, 2)
        assert lhs == rhs == 1


class TestPieces:
    def test_varpi_is_rough_indicator(self):
        for m in (51, 53, 97, 2809, 121, 2500, 2021):
            v = decomp_value(m, SYNTH)
            assert v.varpi == pt.psi(m, SYNTH.sqrt_x1)

    def test_prime_only_hits_gamma1(self):
        # a prime above all cutoffs survives every sieve piece except the
        # all-small term
        v = decomp_value(4999, SYNTH)
        assert v.gamma[0] == 1
        assert v.varpi == 1
        assert sum(v.gamma[1:]) == 0

    def test_single_prime_factor_classification(self):
        # m = 7 * 1009: the factor 7 lies in [z, U), the cofactor is rough
        gamma = decomp_value(7 * 1009, SYNTH).gamma
        assert gamma[2 - 1] == 1
        assert gamma[3 - 1] == 0
        assert gamma[4 - 1] == 0

    def test_pieces_match_definitions_synthetic(self):
        assert_pieces_match_definitions(SYNTH, range(1, 3001))

    @pytest.mark.parametrize("params", TIE_PARAMS)
    def test_pieces_match_definitions_at_ties(self, params):
        assert_pieces_match_definitions(params, range(1, 3001))

    def test_pieces_match_definitions_at_scale(self):
        p = DecompParams.from_exponents(0.9, 2e4)
        lo, hi = p.interval()
        assert_pieces_match_definitions(p, range(lo + 1, lo + 1001))
        assert_pieces_match_definitions(p, range(hi - 999, hi + 1))

    def test_m_validation(self):
        with pytest.raises(DomainError):
            decomp_value(0, SYNTH)


class TestWindowValues:
    """The window is evaluated once per small-factor class; each value must
    still be the one decomp_value gives at its own m."""

    @staticmethod
    def assert_values_match(params, lo, hi):
        ms = []
        for m, v in decomposition._window_values(params, lo, hi):
            assert v == decomp_value(m, params), m
            ms.append(m)
        assert ms == list(range(lo + 1, hi + 1))

    def test_scale_window(self):
        p = DecompParams.from_exponents(0.9, 2e4)
        self.assert_values_match(p, *p.interval())

    @pytest.mark.parametrize("params", [SYNTH, *TIE_PARAMS])
    def test_synthetic_windows(self, params):
        self.assert_values_match(params, 0, 3000)


class TestIdentities:
    @given(st.integers(min_value=51, max_value=5000))
    @settings(max_examples=300, deadline=None)
    def test_telescoping_and_sandwich(self, m):
        v = decomp_value(m, SYNTH)
        g = v.gamma
        assert v.varpi == v.lambda1 - v.lambda2 + g[7]
        assert v.lambda1 - v.lambda2 <= v.varpi <= v.lambda3
        assert v.lambda2 >= 0

    def test_starred_expansion(self):
        for m in range(51, 2000):
            v = decomp_value(m, SYNTH)
            g, gs = v.gamma, v.gamma_star
            assert v.varpi == g[0] - g[2] - g[3] - gs[0] - gs[1] + gs[2] - gs[3]


#: U/z = 20 > sqrt(V) = 7.07..: check e fails, e.g. at every multiple of 2*3*11.
E_FAILS = DecompParams(z=2, U=40, V=50, sqrt_x1=60)


def per_m_failures(params, lo, hi):
    """The failures of the five checks (e included) on (lo, hi], one
    decomp_value at a time."""
    ref = []
    for m in range(lo + 1, hi + 1):
        v = decomp_value(m, params)
        g, gs = v.gamma, v.gamma_star
        if v.varpi != v.lambda1 - v.lambda2 + g[7]:
            ref.append(("a", m, "identity"))
        if not (v.lambda1 - v.lambda2 <= v.varpi <= v.lambda3):
            ref.append(("b", m, "sandwich"))
        if v.lambda2 < 0:
            ref.append(("c", m, "negativity"))
        if v.varpi != g[0] - g[2] - g[3] - gs[0] - gs[1] + gs[2] - gs[3]:
            ref.append(("d", m, "identity"))
        if gs[3] - gs[4] != g[10]:
            ref.append(("e", m, "g8*-g9* != g11"))
    return ref


class TestVerifyInterval:
    def test_synthetic_window_clean(self):
        rep = verify_interval(SYNTH, 50, 2000)
        assert rep.ok
        assert rep.checked == 1950
        assert set(rep.checks_run) == {"a", "b", "c", "d"}

    def test_thread_determinism(self):
        one = verify_interval(SYNTH, 50, 3000, threads=1)
        two = verify_interval(SYNTH, 50, 3000, threads=2)
        assert one.checked == two.checked
        assert one.failures == two.failures

    def test_worker_count_capped(self, monkeypatch):
        # records each pool's worker count; neither the pool nor the chunks run
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return []

        monkeypatch.setattr(decomposition, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(decomposition, "_verify_chunk", lambda task: (0, []))
        monkeypatch.setattr(decomposition.os, "cpu_count", lambda: 3)
        four_chunks = 50 + (4 << 15)
        verify_interval(SYNTH, 50, four_chunks, threads=8)  # capped by the CPU count
        verify_interval(SYNTH, 50, four_chunks, threads=2)  # by the thread count
        verify_interval(SYNTH, 50, 50 + (2 << 15), threads=8)  # by the chunk count
        assert pools == [3, 2, 2]
        monkeypatch.setattr(decomposition.os, "cpu_count", lambda: None)
        verify_interval(SYNTH, 50, four_chunks, threads=8)  # unknown count: serial
        assert pools == [3, 2, 2]

    def test_forced_e_on_synthetic_params_reports_violations(self):
        # U/z = 10/3 < sqrt(30): the starred identity is forced here too
        assert SYNTH.check_e_applicable()
        rep = verify_interval(SYNTH, 50, 2000, run_e=True)
        assert rep.check_e_run
        assert rep.ok

    def test_failures_match_per_m_loop(self):
        lo, hi = 50, 50 + (1 << 15) + 8000  # two chunks
        ref = per_m_failures(E_FAILS, lo, hi)
        first_chunk = sum(1 for f in ref if f[1] <= lo + (1 << 15))
        assert 100 < first_chunk < 1000 < len(ref)
        for cap in (100, 1000, 10**6):  # truncated in the first chunk, the second, none
            for threads in (1, 2):
                rep = verify_interval(E_FAILS, lo, hi, run_e=True, threads=threads, max_failures=cap)
                assert rep.failures == ref[:cap], (cap, threads)
        assert rep.checked == hi - lo

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cap_ends_the_check(self, threads):
        # the 100th failure lies in the first of three chunks: the check
        # ends at its integer, and the later chunks count for nothing
        lo, hi = 50, 50 + 3 * (1 << 15)
        ref = per_m_failures(E_FAILS, lo, lo + 5000)
        last = ref[99][1]
        assert last < lo + (1 << 15)
        rep = verify_interval(E_FAILS, lo, hi, run_e=True, threads=threads, max_failures=100)
        assert rep.failures == ref[:100]
        assert rep.checked == last - lo
        assert rep.checks_run == dict.fromkeys("abcde", last - lo)

    def test_cap_validation(self):
        with pytest.raises(DomainError):
            verify_interval(SYNTH, 50, 100, max_failures=0)

    def test_scale_derived_small(self):
        p = DecompParams.from_exponents(0.9, 2e4)
        lo, hi = p.interval()
        rep = verify_interval(p, lo, lo + 2000)
        assert rep.ok

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            verify_interval(SYNTH, 100, 50)
