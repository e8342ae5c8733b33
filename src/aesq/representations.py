"""Representation counts n = p_1^2 + ... + p_s^2 with near-equal summands.

Counting is done two independent ways: a meet-in-the-middle convolution of
half-tuples (the fast path) and a plain recursive enumeration of
non-decreasing tuples (the oracle).  Which primes are admissible at n is
decided in one place, exactly (`_reach`).  The exceptional-set scanner counts
the members of the local-condition class in a window and lists those with
no representation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import circle
from . import primes as pt
from .errors import CapacityError, ConsistencyError, DomainError
from .local import is_H

#: Cap on the width of the prime range sieved for one admissible set.
PRIME_SET_BOUND = 200_000


def _reach(s: int, H: float | None, lo: int, hi: int) -> dict[int, tuple[int, float]]:
    """Each prime admissible at some n in [lo, hi], mapped to the range
    (nlo, nhi) of every n at which it is admissible.

    p is admissible at n when |p - sqrt(n/s)| <= H.  This is decided exactly,
    with H at its float value h: nlo = ceil(s(p - h)^2) (0 when p <= h) and
    nhi = floor(s(p + h)^2).  H = None admits every p <= isqrt(hi) at every n.
    """
    top, plo = math.isqrt(hi), 1
    if H is not None:
        if not math.isfinite(H):
            raise DomainError(f"require a finite H, got {H}")
        # loose float bounds; the exact test below filters
        plo = max(1, math.floor(math.sqrt(lo / s) - H) - 1)
        top = min(top, math.ceil(math.sqrt(hi / s) + H) + 1)
    if top - plo > PRIME_SET_BOUND:
        raise CapacityError(f"prime range ({plo}, {top}] too wide")
    ps = pt.primes_in(plo, top).primes if plo < top else ()
    if H is None:
        return dict.fromkeys(ps, (0, math.inf))
    h = Fraction(H)
    out = {}
    for p in ps:
        nlo = 0 if p <= h else math.ceil(s * (p - h) ** 2)
        nhi = math.floor(s * (p + h) ** 2)
        if max(nlo, lo) <= min(nhi, hi):
            out[p] = (nlo, nhi)
    return out


def _admissible_at(reach: dict[int, tuple[int, float]], n: int) -> tuple[int, ...]:
    """The primes p with p^2 <= n of a _reach table that are admissible at n."""
    return tuple(p for p, (nlo, nhi) in reach.items() if nlo <= n <= nhi and p * p <= n)


@dataclass(frozen=True)
class RepQuery:
    """One counting request; H=None means no near-equality constraint."""

    n: int
    s: int
    H: float | None = None
    ordered: bool = True

    def __post_init__(self):
        if self.s < 2:
            raise DomainError(f"require s >= 2, got {self.s}")
        if self.n < 4 * self.s:
            raise DomainError(f"n={self.n} below the smallest sum of {self.s} prime squares")

    def admissible_primes(self) -> tuple[int, ...]:
        """Primes p with p^2 <= n that are admissible at n (see _reach)."""
        return _admissible_at(_reach(self.s, self.H, self.n, self.n), self.n)


def _half_sums(squares: list[int], k: int, cap: int) -> Counter:
    """Ordered-count distribution of sums of k squares, pruned above cap."""
    acc = Counter({0: 1})
    for _ in range(k):
        nxt: Counter = Counter()
        for t, c in acc.items():
            for sq in squares:
                u = t + sq
                if u <= cap:
                    nxt[u] += c
        acc = nxt
    return acc


def count_representations(query: RepQuery) -> int:
    """Exact count by meet-in-the-middle over half-tuples."""
    primes = query.admissible_primes()
    if not primes:
        return 0
    squares = [p * p for p in primes]
    if query.ordered:
        s1 = query.s // 2
        s2 = query.s - s1
        h1 = _half_sums(squares, s1, query.n)
        h2 = h1 if s1 == s2 else _half_sums(squares, s2, query.n)
        return sum(c * h2.get(query.n - t, 0) for t, c in h1.items())
    return len(enumerate_representations(query.n, query.s, primes))


def enumerate_representations(n: int, s: int, primes: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All non-decreasing tuples (p_1 <= ... <= p_s) with sum of squares n,
    by direct recursive search.  Independent of the half-sum path.

    Each level starts at the first square that k - 1 copies of the largest
    square can complete to the remainder; the last two summands are
    resolved in one loop, the last one looked up, not searched for."""
    if s < 1:
        raise DomainError(f"require s >= 1, got {s}")
    out: list[tuple[int, ...]] = []
    if not primes:
        return out
    sq = [p * p for p in primes]
    index = {v: i for i, v in enumerate(sq)}
    top = sq[-1]
    if s == 1:
        if n in index:
            out.append((primes[index[n]],))
        return out

    def rec(start: int, k: int, rem: int, acc: list[int]):
        first = max(start, bisect_left(sq, rem - (k - 1) * top))
        if k == 2:
            # up to the last v with 2v <= rem: rem - v >= v, so a match is
            # never below i and the tuple stays non-decreasing
            out.extend(
                (*acc, primes[i], primes[index[rem - sq[i]]])
                for i in range(first, bisect_right(sq, rem // 2))
                if rem - sq[i] in index
            )
            return
        for i in range(first, len(sq)):
            v = sq[i]
            if v * k > rem:
                break
            acc.append(primes[i])
            rec(i, k - 1, rem - v, acc)
            acc.pop()

    rec(0, s, n, [])
    return out


def multinomial_perms(tup: tuple[int, ...]) -> int:
    """Number of distinct orderings of a multiset tuple."""
    total = math.factorial(len(tup))
    for c in Counter(tup).values():
        total //= math.factorial(c)
    return total


def count_ordered_direct(n: int, s: int, primes: tuple[int, ...]) -> int:
    """Ordered count via the enumeration oracle plus multinomials."""
    return sum(multinomial_perms(t) for t in enumerate_representations(n, s, primes))


def singular_integral_exact(n: int, s: int, interval: tuple[float, float]) -> float:
    """sum over integer tuples m_i in (lo, hi] with sum of squares n of
    prod 1/log(m_i).

    The weight runs over all integers (not just primes) in the interval,
    matching the generating sum it represents; orthogonality collapses its
    Fourier integral to this finite sum.
    """
    lo, hi = interval
    ms = tuple(m for m in range(max(2, math.floor(lo)), math.floor(hi) + 1) if lo < m <= hi)
    if len(ms) > 10**5:
        raise CapacityError(f"interval ({lo}, {hi}] too wide")
    total = 0.0
    for t in enumerate_representations(n, s, ms):
        total += math.prod(1.0 / math.log(m) for m in t) * multinomial_perms(t)
    return total


@dataclass(frozen=True)
class ExceptionReport:
    X: int
    s: int
    H: float | None
    window: tuple[int, int]
    exceptions: tuple[int, ...]
    scanned_count: int
    counts: dict = field(default=None, repr=False)  # member n -> rep_count


def exceptional_scan(X: int, s: int, H: float | None, window: tuple[int, int]) -> ExceptionReport:
    """List the local-condition integers in the window with no representation.

    Only the members (n = s mod 24, n >= 4s, `is_H`) are counted, by the
    window convolution backend; every reported exception is re-checked by
    the recursive enumeration oracle.  Exceptions are data, not errors.
    """
    lo, hi = window
    if lo >= hi:
        raise DomainError(f"empty window {window}")
    if s < 3:
        raise DomainError(f"require s >= 3, got {s}")
    if H is not None:
        span = H * math.sqrt(X)
        if lo < X - span - 1 or hi > X + span + 1:
            raise DomainError(f"window {window} exceeds |n - X| <= H*sqrt(X) = {span:.6g}")
    members = [n for n in range(lo + (s - lo) % 24, hi + 1, 24) if n >= 4 * s and is_H(n, s)]
    counts = window_rep_counts(s, H, members)
    exceptions = [n for n in members if counts[n] == 0]
    # one admissibility table serves every re-check
    reach = _reach(s, H, exceptions[0], exceptions[-1]) if exceptions else {}
    for n in exceptions:
        if enumerate_representations(n, s, _admissible_at(reach, n)):
            raise ConsistencyError(f"scanner/oracle mismatch at n={n}")
    return ExceptionReport(
        X=X, s=s, H=H, window=(lo, hi), exceptions=tuple(exceptions),
        scanned_count=len(members), counts=counts,
    )


def window_rep_counts(s: int, H: float | None, targets) -> dict[int, int]:
    """Ordered representation counts for each of the ascending targets (a
    range or a list), from one window convolution per stretch of constant
    admissible primes that holds a target."""
    if s < 2:
        raise DomainError(f"require s >= 2, got {s}")
    if not targets:
        return {}
    lo, hi = targets[0], targets[-1]
    reach = _reach(s, H, lo, hi)
    # p is admissible exactly on [nlo, nhi]: the set is constant on each
    # piece (a, b] between the cuts nlo - 1 and nhi inside the window
    cuts = {t for nlo, nhi in reach.values() for t in (nlo - 1, nhi) if lo - 1 < t < hi}
    bounds = [lo - 1, *sorted(cuts), hi]
    out: dict[int, int] = {}
    for a, b in zip(bounds[:-1], bounds[1:]):
        i, j = bisect_right(targets, a), bisect_right(targets, b)
        if i == j:
            continue
        primes = [p for p, (nlo, nhi) in reach.items() if nlo <= a + 1 and b <= nhi]
        wc = circle.window_counts(circle.CoeffVector.from_primes(primes), s)
        for n in targets[i:j]:
            out[n] = wc.count(n)
    return out
