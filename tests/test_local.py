import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from aesq import local
from aesq.errors import CapacityError, DomainError
from aesq.primes import primes_in


def divisors(q):
    return [d for d in range(1, q + 1) if q % d == 0]


class TestGaussSum:
    def test_small_values(self):
        # q=3, a=1: e(1/3) + e(4/3) = e(1/3) + e(1/3) = 2 e(1/3)
        val = local.gauss_sum(3, 1)
        assert val == pytest.approx(2 * cmath.exp(2j * cmath.pi / 3), abs=1e-12)
        # q=4: h in {1,3}, h^2 = 1 mod 4 -> 2 e(a/4)
        assert local.gauss_sum(4, 1) == pytest.approx(2j, abs=1e-12)

    def test_modulus_identity_odd_primes(self):
        # |S(p,a) + 1|^2 = p for every odd prime p and reduced a
        for p in primes_in(2, 97).primes:
            for a in (1, p - 1, min(5, p - 1)):
                if math.gcd(a, p) != 1:
                    continue
                val = local.gauss_sum(p, a)
                assert abs(val + 1) ** 2 == pytest.approx(p, abs=1e-9)

    def test_rejects_non_reduced(self):
        with pytest.raises(DomainError):
            local.gauss_sum(6, 2)


def direct_gauss_row(q):
    """S(q, a) for the reduced a, with one complex exponential per (a, h)."""
    a = np.array(local._reduced_residues(q), dtype=np.int64)
    h2 = np.array([h * h % q for h in local._reduced_residues(q)], dtype=np.int64)
    phases = (a[:, None] * h2[None, :]) % q
    return a, np.exp(2j * np.pi * phases / q).sum(axis=1)


class TestGaussRow:
    def test_bit_identical_to_direct_exponentials(self):
        for q in range(1, 301):
            a, row = local._gauss_row(q)
            ref_a, ref = direct_gauss_row(q)
            assert np.array_equal(a, ref_a)
            assert np.array_equal(row.view(np.float64), ref.view(np.float64)), q

    def test_series_terms_unchanged(self):
        n, s = 100, 4
        ref = [1.0]
        for q in range(2, 65):
            a, row = direct_gauss_row(q)
            total = complex(np.sum(row**s * np.exp(2j * np.pi * ((-a * n) % q) / q)))
            ref.append((total / local.euler_phi(q) ** s).real)
        assert local.singular_series_partial(n, s, 64).terms == tuple(ref)


class TestATerm:
    def test_trivial_modulus(self):
        assert local.a_term(10, 1, 4) == 1.0

    def test_real_output(self):
        for q in range(1, 30):
            v = local.a_term(25, q, 4)
            assert isinstance(v, float)

    def test_multiplicative_in_q(self):
        pairs = [
            (q1, q2)
            for q1 in range(2, 51)
            for q2 in range(2, 51)
            if q1 * q2 <= 50 and math.gcd(q1, q2) == 1
        ]
        assert pairs
        for q1, q2 in pairs:
            for n in (10, 29, 100):
                lhs = local.a_term(n, q1 * q2, 4)
                rhs = local.a_term(n, q1, 4) * local.a_term(n, q2, 4)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_requires_three_squares(self):
        with pytest.raises(DomainError):
            local.a_term(10, 3, 2)


class TestLocalDensity:
    def test_exact_small_case(self):
        # mod 3 the reduced squares are 1, 1; all 8 triples sum to 0 mod 3
        assert local.local_density(3, 3, 3) == Fraction(3 * 8, 2**3)

    def test_trivial_modulus(self):
        assert local.local_density(7, 4, 1) == 1

    def test_divisor_sum_identity(self):
        ns = [5, 12, 29, 53, 100]
        for q in (2, 3, 4, 8, 9, 12, 24, 25, 49, 60):
            for s in (3, 4, 5):
                for n in ns:
                    lhs = math.fsum(local.a_term(n, d, s) for d in divisors(q))
                    rhs = float(local.local_density(n, s, q))
                    assert lhs == pytest.approx(rhs, abs=1e-9), (q, s, n)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            local.local_density(1, 3, 10**5)


class TestSingularSeries:
    def test_partial_structure(self):
        rep = local.singular_series_partial(100, 4, 8)
        assert rep.terms[0] == 1.0
        assert rep.value == pytest.approx(math.fsum(rep.terms))
        assert len(rep.terms) == 8

    def test_tail_decay(self):
        # dyadic increments shrink as the cutoff grows
        for n in (100, 196, 244):
            s = {P: local.singular_series_partial(n, 4, P).value for P in (32, 64, 512, 1024)}
            early = abs(s[64] - s[32])
            late = abs(s[1024] - s[512])
            assert late < early

    def test_positive_for_admissible_target(self):
        # n = 4 mod 24 satisfies the local conditions for four squares
        val = local.singular_series_partial(100, 4, 512).value
        assert val > 0.5


class TestMembership:
    def test_residue_condition(self):
        assert local.is_H(29, 5)
        assert not local.is_H(30, 5)
        assert local.is_H(100, 4)
        assert local.is_H(27, 3)

    def test_three_square_five_divisibility(self):
        assert not local.is_H(75, 3)
        assert local.is_H(51, 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            local.is_H(10, 2)
