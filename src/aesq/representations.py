"""Representation counts n = p_1^2 + ... + p_s^2 with near-equal summands.

Counting is done two independent ways: a meet-in-the-middle convolution of
half-tuples (the fast path) and a plain recursive enumeration of
non-decreasing tuples (the oracle).  The exceptional-set scanner walks a
window of targets, classifies each against the local conditions, and lists
the members with no representation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from . import circle
from . import primes as pt
from .errors import CapacityError, ConsistencyError, DomainError
from .local import is_H

#: Cap on the number of admissible primes in a single count.
PRIME_SET_BOUND = 200_000


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

    @property
    def center(self) -> float:
        return math.sqrt(self.n / self.s)

    def admissible_primes(self) -> tuple[int, ...]:
        """Primes p with p^2 <= n and, when H is finite, |p - center| <= H."""
        hi = math.isqrt(self.n)
        if self.H is None:
            lo = 1
        else:
            lo = max(1, math.ceil(self.center - self.H) - 1)
            hi = min(hi, math.floor(self.center + self.H))
        if hi - lo > PRIME_SET_BOUND:
            raise CapacityError(f"prime range ({lo}, {hi}] too wide")
        if hi <= lo:
            return ()
        ps = pt.primes_in(lo, hi).primes
        if self.H is not None:
            ps = tuple(p for p in ps if abs(p - self.center) <= self.H)
        return ps


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

    A branch ends as soon as k copies of the largest square fall short of
    the remainder; the last summand is looked up, not searched for."""
    if s < 1:
        raise DomainError(f"require s >= 1, got {s}")
    out: list[tuple[int, ...]] = []
    if not primes:
        return out
    sq = [p * p for p in primes]
    index = {v: i for i, v in enumerate(sq)}
    top = sq[-1]

    def rec(start: int, k: int, rem: int, acc: list[int]):
        if k * top < rem:
            return
        if k == 1:
            # the caller's break keeps rem >= sq[start], so the match is
            # never below start and the tuple stays non-decreasing
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
    ms = [m for m in range(max(2, math.floor(lo)), math.floor(hi) + 1) if lo < m <= hi]
    if len(ms) > 10**5:
        raise CapacityError(f"interval ({lo}, {hi}] too wide")
    weights = [1.0 / math.log(m) for m in ms]
    total = 0.0
    acc: list[int] = []

    def rec(start: int, k: int, rem: int, w: float):
        nonlocal total
        for i in range(start, len(ms)):
            v = ms[i] * ms[i]
            if v * k > rem:
                break
            acc.append(ms[i])
            if k == 1:
                if v == rem:
                    total += w * weights[i] * multinomial_perms(tuple(acc))
            else:
                rec(i, k - 1, rem - v, w * weights[i])
            acc.pop()

    rec(0, s, n, 1.0)
    return total


@dataclass(frozen=True)
class ExceptionReport:
    X: int
    s: int
    H: float | None
    window: tuple[int, int]
    exceptions: tuple[int, ...]
    scanned_count: int
    counts: dict = field(default=None, repr=False)  # n -> (in_H, rep_count)


def exceptional_scan(
    X: int,
    s: int,
    H: float | None,
    window: tuple[int, int],
    verify: bool = True,
) -> ExceptionReport:
    """List the local-condition integers in the window with no representation.

    Counting uses the whole-window convolution backend; when `verify` is on,
    every reported exception is re-checked by the recursive enumeration
    oracle.  Exceptions are data, not errors.
    """
    lo, hi = window
    if lo >= hi:
        raise DomainError(f"empty window {window}")
    if H is not None:
        span = H * math.sqrt(X)
        if lo < X - span - 1 or hi > X + span + 1:
            raise DomainError(f"window {window} exceeds |n - X| <= H*sqrt(X) = {span:.6g}")
    counts = window_rep_counts(s, H, lo, hi)
    rows = {}
    exceptions = []
    scanned = 0
    for n in range(lo, hi + 1):
        member = n >= 4 * s and is_H(n, s)
        c = counts.get(n, 0) if member else 0
        rows[n] = (member, c)
        if member:
            scanned += 1
            if c == 0:
                exceptions.append(n)
    if verify:
        for n in exceptions:
            q = RepQuery(n=n, s=s, H=H)
            if enumerate_representations(n, s, q.admissible_primes()):
                raise ConsistencyError(f"scanner/oracle mismatch at n={n}")
    return ExceptionReport(
        X=X, s=s, H=H, window=(lo, hi), exceptions=tuple(exceptions),
        scanned_count=scanned, counts=rows,
    )


def window_rep_counts(s: int, H: float | None, lo: int, hi: int) -> dict[int, int]:
    """Ordered representation counts for every n in [lo, hi], from one
    window convolution per stretch of constant admissible primes."""
    if H is None:
        primes = pt.primes_in(1, math.isqrt(hi)).primes
        wc = circle.window_counts(circle.CoeffVector.from_primes(primes), s)
        return {n: wc.count(n) for n in range(lo, hi + 1)}
    # finite H: p is admissible for s*(p-H)^2 <= n <= s*(p+H)^2, so the
    # admissible set is constant between those thresholds; split the window
    # after the last n of each constant stretch and convolve per piece
    cuts = {lo - 1}
    pmax = math.floor(math.sqrt(hi / s) + H) + 1
    for p in pt.primes_in(1, pmax).primes:
        t_in, t_out = s * max(p - H, 0.0) ** 2, s * (p + H) ** 2
        if lo - 1 < t_in <= hi:
            cuts.add(math.ceil(t_in) - 1)
        if lo - 1 < t_out <= hi:
            cuts.add(math.floor(t_out))
    bounds = sorted(cuts) + [hi]
    out: dict[int, int] = {}
    for a, b in zip(bounds[:-1], bounds[1:]):
        if b <= a:
            continue
        # constant admissible set for n in (a, b]
        primes = _primes_for_range(s, H, a + 1, b)
        if not primes:
            for n in range(a + 1, b + 1):
                out[n] = 0
            continue
        wc = circle.window_counts(circle.CoeffVector.from_primes(primes), s)
        for n in range(a + 1, b + 1):
            out[n] = wc.count(n)
    return out


def _primes_for_range(s: int, H: float, nlo: int, nhi: int) -> tuple[int, ...]:
    """Primes admissible for every n in [nlo, nhi] (set must be constant)."""
    c_lo = math.sqrt(nlo / s)
    c_hi = math.sqrt(nhi / s)
    plo = math.ceil(c_hi - H)
    phi = math.floor(c_lo + H)
    if phi < 2 or phi < plo:
        return ()
    ps = pt.primes_in(max(1, plo - 1), phi).primes
    return tuple(p for p in ps if abs(p - c_lo) <= H and abs(p - c_hi) <= H)
