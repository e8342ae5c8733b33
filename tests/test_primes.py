import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from aesq import primes as pt
from aesq.errors import CapacityError


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class TestPrimesIn:
    def test_small_interval(self):
        assert pt.primes_in(10, 20).primes == (11, 13, 17, 19)

    def test_lo_exclusive_hi_inclusive(self):
        assert pt.primes_in(1, 2).primes == (2,)
        assert pt.primes_in(2, 3).primes == (3,)
        assert pt.primes_in(3, 4).primes == ()

    def test_million_window(self):
        ps = pt.primes_in(10**6, 10**6 + 100).primes
        expected = tuple(
            n for n in range(10**6 + 1, 10**6 + 101) if trial_division_is_prime(n)
        )
        assert ps == expected
        assert len(ps) == 6

    def test_agrees_with_trial_division_exhaustively(self):
        ps = set(pt.primes_in(1, 10**5).primes)
        for n in range(2, 10**5 + 1):
            assert (n in ps) == trial_division_is_prime(n)

    def test_strictly_increasing(self):
        ps = pt.primes_in(10**4, 2 * 10**4).primes
        assert all(a < b for a, b in zip(ps, ps[1:]))

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            pt.primes_in(10**13, 10**13 + 10)


class TestPsi:
    def test_examples(self):
        assert pt.psi(35, 5) == 1
        assert pt.psi(35, 6) == 0
        assert pt.psi(7.5, 2) == 0
        assert pt.psi(1, 100) == 1

    def test_non_integer_rational(self):
        assert pt.psi(Fraction(7, 2), 2) == 0
        assert pt.psi(Fraction(14, 2), 3) == 1  # == 7

    def test_zero(self):
        assert pt.psi(0, 2) == 0

    @given(st.integers(min_value=1, max_value=10**6))
    def test_z_two_always_one(self, m):
        assert pt.psi(m, 2) == 1

    @given(st.integers(min_value=2, max_value=10**5))
    def test_threshold_at_smallest_factor(self, m):
        spf = next((d for d in range(2, math.isqrt(m) + 1) if m % d == 0), m)
        assert pt.psi(m, spf) == 1
        assert pt.psi(m, spf + 0.5) == 0

    def test_float_integer_values(self):
        assert pt.psi(35.0, 5) == 1
        assert pt.psi(35.2, 5) == 0
