import math
import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from aesq import representations
from aesq.circle import v_power_quadrature
from aesq.errors import DomainError
from aesq.primes import primes_in, primes_upto
from aesq.representations import (
    RepQuery,
    count_ordered_direct,
    count_representations,
    enumerate_representations,
    exceptional_scan,
    multinomial_perms,
    singular_integral_exact,
    window_rep_counts,
)


class TestRepQuery:
    def test_validation(self):
        with pytest.raises(DomainError):
            RepQuery(n=10, s=1)
        with pytest.raises(DomainError):
            RepQuery(n=10, s=5)
        with pytest.raises(DomainError):
            enumerate_representations(0, 0, (2, 3))

    def test_admissible_primes_unbounded(self):
        q = RepQuery(n=100, s=4)
        assert q.admissible_primes() == (2, 3, 5, 7)

    def test_admissible_primes_window(self):
        q = RepQuery(n=125, s=5, H=1)
        # center = 5, window [4, 6]
        assert q.admissible_primes() == (5,)

    @given(
        st.integers(min_value=3, max_value=5),
        st.integers(min_value=20, max_value=10**5),
        st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.2, 1.9, 2.6, 3.3, 5.1, 12.4, 40.3]),
    )
    @settings(max_examples=300)
    def test_admissible_primes_match_literal_rule(self, s, n, H):
        # H is not dyadic, so its float value is not the decimal it was
        # written as; away from a tie the exact rule agrees with the float one
        c = math.sqrt(n / s)
        ps = primes_upto(math.isqrt(n))
        if any(abs(abs(p - c) - H) < 1e-9 for p in ps):
            return
        assert RepQuery(n, s, H=H).admissible_primes() == tuple(p for p in ps if abs(p - c) <= H)

    def test_admissible_primes_at_ties(self):
        # |2 - sqrt(121/25)| = 1/5 and |5 - sqrt(361/25)| = 6/5 as reals; the
        # float 0.2 lies above 1/5 and the float 1.2 below 6/5
        assert RepQuery(121, 25, H=0.2).admissible_primes() == (2,)
        assert RepQuery(361, 25, H=1.2).admissible_primes() == (3,)
        assert RepQuery(362, 25, H=1.2).admissible_primes() == (3, 5)

    @pytest.mark.parametrize("H", [math.inf, -math.inf, math.nan])
    def test_non_finite_H_rejected(self, H):
        with pytest.raises(DomainError):
            RepQuery(100, 4, H=H).admissible_primes()


class TestCounting:
    def test_known_values(self):
        assert count_representations(RepQuery(100, 4)) == 1
        assert count_representations(RepQuery(125, 5)) == 11
        assert count_representations(RepQuery(125, 5, H=1)) == 1
        assert count_representations(RepQuery(29, 5)) == 0

    def test_unordered(self):
        # 125 = 25*5: tuples (5,5,5,5,5) and permutations of {2,2,4x not valid}
        assert count_representations(RepQuery(125, 5, ordered=False)) == len(
            enumerate_representations(125, 5, RepQuery(125, 5).admissible_primes())
        )

    @given(st.integers(min_value=30, max_value=3000), st.integers(min_value=3, max_value=5))
    @settings(max_examples=120)
    def test_halves_match_enumeration(self, n, s):
        if n < 4 * s:
            n += 4 * s
        q = RepQuery(n, s)
        assert count_representations(q) == count_ordered_direct(n, s, q.admissible_primes())

    def test_ordered_vs_unordered_consistency(self):
        q = RepQuery(244, 4)
        tuples = enumerate_representations(244, 4, q.admissible_primes())
        assert count_representations(q) == sum(multinomial_perms(t) for t in tuples)

    @pytest.mark.parametrize("primes", [
        (), (2,), (5,), (2, 3, 5, 7), (5, 7, 11, 13), (2, 3, 5, 7, 11, 13, 17, 19, 23),
        (29, 31, 37, 41, 43, 47),
    ])
    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_enumeration_matches_brute_force(self, primes, s):
        by_sum = {}
        for t in combinations_with_replacement(primes, s):
            by_sum.setdefault(sum(p * p for p in t), []).append(t)
        for n in range(max(by_sum, default=0) + 2):
            assert enumerate_representations(n, s, primes) == by_sum.get(n, []), n

    def test_multinomial(self):
        assert multinomial_perms((5, 5, 5)) == 1
        assert multinomial_perms((2, 3, 5)) == 6
        assert multinomial_perms((2, 2, 5)) == 3


def reference_enumeration(n, s, primes):
    """The oracle's recursion before the last two summands were resolved in
    one loop: prune on k * top < rem, look the last summand up."""
    out = []
    if not primes:
        return out
    sq = [p * p for p in primes]
    index = {v: i for i, v in enumerate(sq)}
    top = sq[-1]

    def rec(start, k, rem, acc):
        if k * top < rem:
            return
        if k == 1:
            if rem in index:
                out.append((*acc, primes[index[rem]]))
            return
        for i in range(start, len(primes)):
            v = sq[i]
            if v * k > rem:
                break
            acc.append(primes[i])
            rec(i, k - 1, rem - v, acc)
            acc.pop()

    rec(0, s, n, [])
    return out


class TestEnumerationLoop:
    @pytest.mark.parametrize("n,s,primes,edge", [
        (25 + 2 * 49, 3, (2, 3, 5, 7), (5, 7, 7)),           # last two equal
        (3 * 25, 3, (2, 3, 5, 7), (5, 5, 5)),                 # all equal
        (4 + 9 + 2 * 169, 4, (2, 3, 11, 13), (2, 3, 13, 13)),  # last two equal at k = 2
        (9 + 2 * 49, 3, (2, 3, 5, 7), (3, 7, 7)),             # rem - 2 top = 9, a square in the set
        (4 + 9 + 2 * 49, 4, (2, 3, 5, 7), (2, 3, 7, 7)),      # the same one level down
        (4 + 49, 2, (2, 3, 5, 7), (2, 7)),                    # s = 2: rem - top = 4 in the set
        (2 * 49, 2, (2, 3, 5, 7), (7, 7)),                    # s = 2, equal summands
        (25 + 169, 2, (5, 7, 11, 13), (5, 13)),
    ])
    def test_edges_match_brute_force(self, n, s, primes, edge):
        brute = [t for t in combinations_with_replacement(primes, s) if sum(p * p for p in t) == n]
        assert edge in brute
        assert enumerate_representations(n, s, primes) == brute

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_same_list_as_reference_recursion(self, s):
        rng = random.Random(s)
        pool = primes_in(1, 400).primes
        for _ in range(300):
            a = rng.randrange(len(pool))
            primes = pool[a:a + rng.randint(1, 30)]
            if rng.random() < 0.7:
                # a sum of s squares of the set, or just off it
                n = sum(rng.choice(primes) ** 2 for _ in range(s)) + rng.choice((0, 0, 24, -24, 1))
            else:
                n = rng.randint(0, s * primes[-1] ** 2 + 2)
            assert enumerate_representations(n, s, primes) == reference_enumeration(n, s, primes)

    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_singular_integral_bit_for_bit(self, s):
        rng = random.Random(10 + s)
        for _ in range(40):
            c, w = rng.uniform(3, 25), rng.uniform(0.3, 4)
            lo, hi = c - w, c + w
            n = rng.randint(4 * s, math.floor(s * hi * hi) + 3)
            ms = tuple(m for m in range(max(2, math.floor(lo)), math.floor(hi) + 1) if lo < m <= hi)
            ref = 0.0
            for t in reference_enumeration(n, s, ms):
                ref += math.prod(1.0 / math.log(m) for m in t) * multinomial_perms(t)
            assert singular_integral_exact(n, s, (lo, hi)) == ref


class TestSingularIntegral:
    def test_single_tuple(self):
        val = singular_integral_exact(100, 4, (4.9, 5.1))
        assert val == pytest.approx((1 / math.log(5)) ** 4, rel=1e-12)

    def test_empty(self):
        assert singular_integral_exact(101, 4, (4.9, 5.1)) == 0.0

    @pytest.mark.parametrize(
        "n,s,interval",
        [(100, 4, (4.9, 5.1)), (125, 5, (4.2, 5.8)), (77, 3, (3.5, 6.5))],
    )
    def test_matches_quadrature(self, n, s, interval):
        exact = singular_integral_exact(n, s, interval)
        quad = v_power_quadrature(n, s, interval)
        assert quad == pytest.approx(exact, abs=1e-6)


class TestScan:
    def test_small_window(self):
        rep = exceptional_scan(X=40, s=5, H=None, window=(20, 60))
        assert rep.exceptions == (29, 53)
        assert rep.scanned_count == 2

    def test_counts_table(self):
        # counts holds the members only
        rep = exceptional_scan(X=40, s=5, H=None, window=(20, 60))
        assert rep.counts == {29: 0, 53: 0}
        rep = exceptional_scan(X=200, s=5, H=None, window=(150, 250))
        assert sorted(rep.counts) == [149 + 24 * k for k in range(1, 5)]
        assert all(rep.counts[n] == count_representations(RepQuery(n, 5)) for n in rep.counts)

    def test_finite_window_matches_per_target_counts(self):
        # the next three windows hold an n = s*(p - H)^2 exactly: p is
        # admissible at n but not at n - 1, so the window is split between;
        # the last two hold a tie |p - sqrt(n/s)| = H in the reals (p = 2 at
        # n = 121, p = 5 at n = 361), decided by the float value of H
        for s, H, lo, hi in ((4, 3.0, 380, 420), (3, 4.0, 203, 283),
                             (5, 2.0, 85, 165), (5, 4.0, 205, 285),
                             (25, 0.2, 100, 130), (25, 1.2, 342, 400)):
            table = window_rep_counts(s, H, range(lo, hi + 1))
            assert sorted(table) == list(range(lo, hi + 1))
            for n in range(max(lo, 4 * s), hi + 1):
                q = RepQuery(n, s, H=H)
                assert table[n] == count_ordered_direct(n, s, q.admissible_primes()), (s, H, n)

    def test_recheck_gets_each_exceptions_admissible_primes(self, monkeypatch):
        calls = []

        def record(n, s, primes):
            calls.append((n, primes))
            return enumerate_representations(n, s, primes)

        monkeypatch.setattr(representations, "enumerate_representations", record)
        rep = exceptional_scan(X=10**5, s=4, H=8.0, window=(97500, 102500))
        assert [n for n, _ in calls] == list(rep.exceptions)
        assert len({primes for _, primes in calls}) > 1
        for n, primes in calls:
            assert primes == RepQuery(n, 4, H=8.0).admissible_primes(), n

    def test_sparse_targets(self):
        # a list of targets gets the same counts as the whole window
        whole = window_rep_counts(4, 3.0, range(380, 421))
        targets = [380, 388, 397, 404, 420]
        assert window_rep_counts(4, 3.0, targets) == {n: whole[n] for n in targets}
        assert window_rep_counts(4, 3.0, []) == {}

    def test_s_validation(self):
        with pytest.raises(DomainError):
            exceptional_scan(X=40, s=2, H=None, window=(20, 60))
        with pytest.raises(DomainError):
            window_rep_counts(0, 1.0, range(10, 20))

    def test_window_bounds_vs_H(self):
        with pytest.raises(DomainError):
            exceptional_scan(X=1000, s=4, H=0.1, window=(500, 1500))

    def test_empty_window(self):
        with pytest.raises(DomainError):
            exceptional_scan(X=40, s=5, H=None, window=(60, 20))
