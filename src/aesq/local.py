"""Quadratic exponential sums over reduced residues and local solubility data.

The series term A_s(n; q) is computed from its defining sum over reduced
residues; its exactness is validated against a purely rational oracle that
counts solutions of h_1^2 + ... + h_s^2 = n (mod q) by dynamic programming.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError, ConsistencyError, DomainError

#: Largest modulus accepted by the rational solution-counting oracle.
DENSITY_BOUND = 10**4

IMAG_TOL = 1e-10


def _e(num: int, den: int) -> complex:
    """exp(2 pi i num/den) with the phase reduced exactly first."""
    return cmath.exp(2j * cmath.pi * (num % den) / den)


@lru_cache(maxsize=4096)
def _reduced_residues(q: int) -> tuple[int, ...]:
    return tuple(h for h in range(1, q + 1) if math.gcd(h, q) == 1)


def euler_phi(q: int) -> int:
    return len(_reduced_residues(q)) if q > 1 else 1


def gauss_sum(q: int, a: int) -> complex:
    """sum over reduced residues h mod q of e(a h^2 / q)."""
    if q < 1:
        raise DomainError(f"require q >= 1, got {q}")
    if math.gcd(a, q) != 1:
        raise DomainError(f"require gcd(a, q) = 1, got a={a}, q={q}")
    return sum(_e(a * h * h, q) for h in _reduced_residues(q))


@lru_cache(maxsize=2048)
def _gauss_row(q: int) -> tuple[np.ndarray, np.ndarray]:
    """(reduced residues a, S(q,a) for those a), by vectorized direct summation.

    Each phase a h^2 mod q is looked up in a table of the q values e(r/q),
    so the exponential is taken once per residue class, not once per (a, h).
    """
    a = np.array(_reduced_residues(q), dtype=np.int64)
    h2 = np.array([h * h % q for h in _reduced_residues(q)], dtype=np.int64)
    unit = np.exp(2j * np.pi * np.arange(q) / q)
    row = unit[(a[:, None] * h2[None, :]) % q].sum(axis=1)
    return a, row


def a_term(n: int, q: int, s: int) -> float:
    """A_s(n; q) = phi(q)^{-s} sum_{(a,q)=1} S(q,a)^s e(-a n / q).

    The sum is real; a non-vanishing imaginary part beyond tolerance raises
    ConsistencyError.
    """
    if q < 1:
        raise DomainError(f"require q >= 1, got {q}")
    if s < 3:
        raise DomainError(f"require s >= 3, got {s}")
    if q == 1:
        return 1.0
    a, row = _gauss_row(q)
    phases = (-a * n) % q
    total = complex(np.sum(row**s * np.exp(2j * np.pi * phases / q)))
    total /= euler_phi(q) ** s
    if abs(total.imag) > IMAG_TOL:
        raise ConsistencyError(f"A_{s}({n}; {q}) has imaginary part {total.imag}")
    return total.real


@dataclass(frozen=True)
class SingularSeriesPartial:
    n: int
    s: int
    P: int
    value: float
    terms: tuple[float, ...]  # A_s(n; q) for q = 1 .. P


def singular_series_partial(n: int, s: int, P: int) -> SingularSeriesPartial:
    """1 + sum_{2 <= q <= P} A_s(n; q), with per-q terms recorded."""
    if P < 1:
        raise DomainError(f"require P >= 1, got {P}")
    terms = tuple(a_term(n, q, s) for q in range(1, P + 1))
    return SingularSeriesPartial(n=n, s=s, P=P, value=math.fsum(terms), terms=terms)


def local_density(n: int, s: int, q: int) -> Fraction:
    """Exact rational N_s(n, q) * q / phi(q)^s.

    N_s counts tuples of reduced residues mod q whose squares sum to n.  The
    count is accumulated by s passes of a cyclic convolution with the
    histogram of squares of reduced residues.
    """
    if q < 1:
        raise DomainError(f"require q >= 1, got {q}")
    if s < 1:
        raise DomainError(f"require s >= 1, got {s}")
    if q > DENSITY_BOUND:
        raise CapacityError(f"q={q} exceeds the density bound {DENSITY_BOUND}")
    if q == 1:
        return Fraction(1)
    sq_hist = [0] * q
    for h in _reduced_residues(q):
        sq_hist[h * h % q] += 1
    counts = [1] + [0] * (q - 1)  # distribution of the running sum mod q
    for _ in range(s):
        nxt = [0] * q
        for r, c in enumerate(sq_hist):
            if c:
                for t in range(q):
                    nxt[(t + r) % q] += counts[t] * c
        counts = nxt
    return Fraction(counts[n % q] * q, euler_phi(q) ** s)


def is_H(n: int, s: int) -> bool:
    """Membership in the local-condition class: n = s (mod 24), and 5 does
    not divide n when s = 3."""
    if s < 3:
        raise DomainError(f"require s >= 3, got {s}")
    if n % 24 != s % 24:
        return False
    if s == 3 and n % 5 == 0:
        return False
    return True
