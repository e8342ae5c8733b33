import cmath
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aesq import circle
from aesq.circle import (
    Arc,
    CoeffVector,
    _kronecker_power,
    arc_partition,
    direct_convolution_power,
    f_eval,
    v_power_quadrature,
    weights_top,
    window_counts,
)
from aesq.errors import DomainError
from aesq.primes import primes_in
from aesq.representations import singular_integral_exact


#: Squares of primes >= 5 on a lattice coarser than 24: 11^2 = 121 (mod 120)
STEP120 = (11, 19, 29, 31, 41)


def ordered_sum_counts(primes, s):
    """Ordered counts of p_1^2 + ... + p_s^2 over the actual integers,
    adding one summand at a time."""
    acc = Counter({0: 1})
    for _ in range(s):
        nxt = Counter()
        for t, c in acc.items():
            for p in primes:
                nxt[t + p * p] += c
        acc = nxt
    return acc


class TestCoeffVector:
    def test_from_primes(self):
        cv = CoeffVector.from_primes([2, 3, 5])
        assert cv.offset == 4
        assert cv.mass == 3.0
        assert cv.integral
        assert cv.counts[0] == 1 and cv.counts[9 - 4] == 1 and cv.counts[25 - 4] == 1

    def test_from_interval_log(self):
        cv = CoeffVector.from_interval_log(1.5, 3.5)
        # integers 2, 3 with weights 1/log
        assert cv.offset == 4
        assert cv.counts[0] == pytest.approx(1 / math.log(2))
        assert cv.counts[9 - 4] == pytest.approx(1 / math.log(3))

    def test_empty(self):
        assert CoeffVector.from_primes([]).mass == 0.0

    def test_stride(self):
        # p^2 = 1 (mod 24) for p >= 5; 2 or 3 in the set shrinks the step
        assert CoeffVector.from_primes(primes_in(4, 300).primes).step == 24
        assert CoeffVector.from_primes(STEP120).step == 120
        assert CoeffVector.from_primes([3, 5, 7]).step == 8
        assert CoeffVector.from_primes([2, 5, 7]).step == 3
        assert CoeffVector.from_primes(primes_in(1, 50).primes).step == 1
        assert CoeffVector.from_primes([7]).step == 1
        cv = CoeffVector.from_primes([5, 7, 11])
        assert cv.offset == 25
        assert list(cv.counts) == [1, 1, 0, 0, 1]  # 25, 49, ..., 121


@pytest.mark.parametrize("primes", [primes_in(4, 300).primes, STEP120], ids=["step24", "step120"])
class TestStrideVectors:
    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_counts_on_and_off_lattice(self, primes, s):
        cv = CoeffVector.from_primes(primes)
        wc = window_counts(cv, s)
        assert wc.exact and wc.step == cv.step
        ref = ordered_sum_counts(primes, s)
        lo, hi = s * primes[0] ** 2, s * primes[-1] ** 2
        assert [wc.count(n) for n in range(lo - 30, hi + 31)] == [
            ref.get(n, 0) for n in range(lo - 30, hi + 31)
        ]
        assert np.array_equal(wc.values, _kronecker_power(cv.counts, s))

    def test_f_eval_literal(self, primes):
        cv = CoeffVector.from_primes(primes)
        for alpha in (0.0, 0.1234, 1 / 24, 0.5, 0.987):
            ref = sum(cmath.exp(2j * math.pi * ((alpha * (p * p)) % 1.0)) for p in primes)
            assert f_eval(alpha, cv) == pytest.approx(ref, abs=1e-9)

    def test_top(self, primes):
        assert weights_top(CoeffVector.from_primes(primes)) == primes[-1] ** 2


class TestFEval:
    def test_at_zero_is_mass(self):
        cv = CoeffVector.from_primes(primes_in(1, 50).primes)
        assert f_eval(0.0, cv) == pytest.approx(cv.mass)

    def test_periodicity(self):
        cv = CoeffVector.from_primes([2, 3, 5, 7])
        for alpha in (0.1234, 0.777):
            assert f_eval(alpha, cv) == pytest.approx(f_eval(alpha + 1.0, cv), abs=1e-9)

    def test_conjugate_symmetry(self):
        cv = CoeffVector.from_primes([2, 3, 5, 7])
        a = f_eval(0.3, cv)
        b = f_eval(-0.3, cv)
        assert a == pytest.approx(b.conjugate(), abs=1e-9)


class TestWindowCounts:
    def test_matches_direct_convolution(self):
        cv = CoeffVector.from_primes(primes_in(1, 100).primes)
        wc = window_counts(cv, 3)
        ref = direct_convolution_power(cv, 3)
        assert wc.exact
        assert np.array_equal(wc.values, np.rint(ref).astype(np.int64))

    def test_mass_conservation_exact(self):
        # total coefficient mass of the s-th power is (number of primes)^s
        cv = CoeffVector.from_primes(primes_in(1, 200).primes)
        for s in (2, 3, 4):
            wc = window_counts(cv, s)
            assert wc.exact
            assert int(wc.values.sum()) == int(cv.mass) ** s

    def test_count_accessor(self):
        cv = CoeffVector.from_primes([2, 3])
        wc = window_counts(cv, 2)
        assert wc.count(8) == 1   # 4+4
        assert wc.count(13) == 2  # 4+9, 9+4
        assert wc.count(7) == 0
        assert wc.count(10**9) == 0

    def test_kronecker_agrees_with_fft(self):
        cv = CoeffVector.from_primes(primes_in(1, 60).primes)
        wc = window_counts(cv, 4)
        exact = _kronecker_power(cv.counts, 4)
        assert np.array_equal(wc.values, exact)

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=80)
    def test_kronecker_is_convolution_power(self, coeffs, s):
        arr = np.array(coeffs, dtype=float)
        got = _kronecker_power(arr, s)
        ref = arr.copy()
        for _ in range(s - 1):
            ref = np.convolve(ref, arr)
        assert np.array_equal(got, np.rint(ref).astype(np.int64))

    def test_counts_beyond_int64_stay_exact(self):
        # (x^4 + x^9)^100: the count at 400 + 5k is C(100, k), up to ~1e29
        wc = window_counts(CoeffVector.from_primes((2, 3)), 100)
        assert wc.exact
        for k in range(101):
            assert wc.count(400 + 5 * k) == math.comb(100, k)

    def test_kronecker_long_power_matches_direct(self):
        # 10,001 coefficients up to ~2^91, against object-dtype convolution
        ints = [int(c) for c in np.random.default_rng(1).integers(0, 2**40, 5001)]
        exact = CoeffVector(offset=0, counts=np.array(ints, dtype=object), integral=True)
        got = _kronecker_power(np.array(ints, dtype=float), 2)
        ref = direct_convolution_power(exact, 2)
        assert len(got) == 10001 and max(ref) > 2**63
        assert got.dtype == object and all(type(c) is int for c in got)
        assert np.array_equal(got, ref)

    def test_weighted_path(self):
        cv = CoeffVector.from_interval_log(1.5, 20.5)
        wc = window_counts(cv, 2)
        assert not wc.exact
        ref = np.convolve(cv.counts, cv.counts)
        assert np.max(np.abs(wc.values - ref)) < 1e-9

    def test_s_validation(self):
        with pytest.raises(DomainError):
            window_counts(CoeffVector.from_primes([2]), 1)

    def test_mass_mismatch_falls_back_to_kronecker(self, monkeypatch):
        # a result off by exactly 1.0 keeps the rounding deviation at 0;
        # only the exact mass check can reject it
        irfft = circle.np.fft.irfft

        def off_by_one(*args, **kwargs):
            out = irfft(*args, **kwargs)
            out[3] += 1.0
            return out

        monkeypatch.setattr(circle.np.fft, "irfft", off_by_one)
        for primes in (primes_in(1, 100).primes, primes_in(4, 300).primes):
            cv = CoeffVector.from_primes(primes)
            wc = window_counts(cv, 3)
            assert wc.exact
            assert np.array_equal(wc.values, np.rint(direct_convolution_power(cv, 3)).astype(np.int64))


class TestArcs:
    def test_farey_count(self):
        part = arc_partition(6, 100)
        phi = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2}
        assert len(part.arcs) == sum(phi.values())

    def test_total_measure(self):
        part = arc_partition(3, 64)
        # q=1: 2/64, q=2: 2/128, q=3: two arcs of 2/192
        assert part.total_measure() == Fraction(2, 64) + Fraction(2, 128) + 2 * Fraction(2, 192)

    def test_disjoint_when_spacing_allows(self):
        # distinct Farey fractions with denominators <= P differ by more
        # than 2/(qQ) when Q >= 2P^2
        P = 12
        part = arc_partition(P, 2 * P * P)
        ivs = sorted(part.intervals())
        for (alo, ahi), (blo, bhi) in zip(ivs, ivs[1:]):
            assert ahi <= blo

    def test_classify_center_and_minor(self):
        part = arc_partition(5, 60)
        assert part.classify(1 / 3) == Arc(q=3, a=1)
        assert part.classify(0.2501) == Arc(q=4, a=1)
        assert part.classify(0.1234567) is None

    def test_classify_consistent_with_intervals(self):
        part = arc_partition(7, 98)
        for alpha in np.linspace(0.01, 0.99, 197):
            arc = part.classify(alpha)
            inside = [
                a for a, (lo, hi) in zip(part.arcs, part.intervals())
                if float(lo) <= alpha <= float(hi)
            ]
            if arc is None:
                assert not inside
            else:
                assert arc in inside

    def test_validation(self):
        with pytest.raises(DomainError):
            arc_partition(0, 10)


class TestQuadrature:
    def test_orthogonality_collapses(self):
        for n, s, iv in ((100, 4, (4.9, 5.1)), (50, 2, (4.5, 5.5))):
            assert v_power_quadrature(n, s, iv) == pytest.approx(
                singular_integral_exact(n, s, iv), abs=1e-9
            )

    def test_zero_off_support(self):
        assert v_power_quadrature(9999, 2, (4.9, 5.1)) == pytest.approx(0.0, abs=1e-9)
