"""Prime generation and the rough-number indicator.

All routines are pure and the returned containers are immutable, so results
can be shared freely across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DomainError

#: Hard cap on the upper endpoint of a sieved interval.
SIEVE_BOUND = 10**12

#: Segment size (number of odd entries per segment) for interval sieving.
SEGMENT_ODD = 1 << 18


@dataclass(frozen=True)
class PrimeInterval:
    """Ascending primes in the half-open interval (lo, hi]."""

    lo: int
    hi: int
    primes: tuple[int, ...]


@lru_cache(maxsize=64)
def primes_upto(n: int) -> tuple[int, ...]:
    """All primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return ()
    if n > 10**9:
        raise CapacityError(f"primes_upto({n}) exceeds the dense-sieve bound 10^9")
    is_comp = np.zeros(n + 1, dtype=bool)
    is_comp[:2] = True
    for p in range(2, math.isqrt(n) + 1):
        if not is_comp[p]:
            is_comp[p * p :: p] = True
    return tuple(int(p) for p in np.flatnonzero(~is_comp))


def _sieve_segment(lo: int, hi: int, base: tuple[int, ...]) -> list[int]:
    """Primes in [lo, hi] given base primes covering sqrt(hi)."""
    size = hi - lo + 1
    flags = np.ones(size, dtype=bool)
    for p in base:
        if p * p > hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = False
    if lo <= 1:
        flags[: min(size, 2 - lo)] = False
    return [int(lo + i) for i in np.flatnonzero(flags)]


def primes_in(lo: int, hi: int) -> PrimeInterval:
    """Exactly the primes in (lo, hi], sieved segment by segment."""
    if not (1 <= lo < hi):
        raise DomainError(f"require 1 <= lo < hi, got lo={lo}, hi={hi}")
    if hi > SIEVE_BOUND:
        raise CapacityError(f"hi={hi} exceeds the sieve bound {SIEVE_BOUND}")
    base = primes_upto(math.isqrt(hi) + 1)
    out: list[int] = []
    seg = 2 * SEGMENT_ODD
    start = lo + 1
    while start <= hi:
        end = min(start + seg - 1, hi)
        out.extend(_sieve_segment(start, end, base))
        start = end + 1
    return PrimeInterval(lo=lo, hi=hi, primes=tuple(out))


def _as_integer(m) -> int | None:
    """Exact integer value of m, or None if m is not an integer."""
    if isinstance(m, bool):
        return None
    if isinstance(m, numbers.Integral):
        return int(m)
    if isinstance(m, Fraction):
        return int(m) if m.denominator == 1 else None
    if isinstance(m, float):
        return int(m) if m.is_integer() else None
    if isinstance(m, numbers.Rational):
        return int(m.numerator) if m.denominator == 1 else None
    return None


def psi(m, z) -> int:
    """Rough-number indicator: 1 iff m is a positive integer with no prime
    factor below z.  Non-integers map to 0 by convention."""
    if z < 2:
        raise DomainError(f"require z >= 2, got z={z}")
    n = _as_integer(m)
    if n is None or n < 1:
        return 0
    if n == 1:
        return 1
    for p in primes_upto(_ceil_excl(z)):
        if p > n:
            break
        if n % p == 0:
            return 0
    return 1


def _ceil_excl(z) -> int:
    """Largest integer below z, i.e. p < z  <=>  p <= _ceil_excl(z)."""
    return int(math.ceil(z)) - 1
