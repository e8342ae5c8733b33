"""Exponential sums over squares, arc partitions, and window convolutions.

The window backend raises a coefficient vector (counts of weighted squares)
to the s-th convolution power, which by orthogonality equals the counting
integral of the s-th power of the generating sum.  The vector is stored at
the gcd stride of its squares (24 for primes >= 5), so the convolution is
as short as the lattice the sums live on.  Convolution runs through a real
FFT with a self-validating rounding check and an exact integer mass check;
when either fails, an exact big-integer (Kronecker substitution) product
takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import CapacityError, DomainError

#: Maximum convolution output length.
CONV_LENGTH_BOUND = 1 << 27

#: Pre-rounding deviation allowed when an FFT result is snapped to integers.
FFT_ROUND_TOL = 0.25


@dataclass(frozen=True)
class CoeffVector:
    """counts[k] = total weight of the m with m^2 = offset + step*k.

    `step` is the gcd of the differences of the squares present, so no slot
    is zero by congruence alone.  Every prime p >= 5 has p^2 = 1 (mod 24),
    so a set of such primes has step 24 or a multiple of it.  A set with
    2, 3 and 5 in it (any primes_in(1, N), N >= 5) has step 1.
    """

    offset: int
    counts: np.ndarray
    integral: bool  # True when all weights are integers (exact counting)
    step: int = 1

    @classmethod
    def from_primes(cls, primes) -> "CoeffVector":
        """Unit weight on each prime of the given ascending collection."""
        ps = list(primes)
        if not ps:
            return cls(offset=0, counts=np.zeros(1), integral=True)
        sq = [p * p for p in ps]
        off = sq[0]
        step = reduce(math.gcd, (v - off for v in sq), 0) or 1
        counts = np.zeros((sq[-1] - off) // step + 1)
        for v in sq:
            counts[(v - off) // step] += 1.0
        counts.setflags(write=False)
        return cls(offset=off, counts=counts, integral=True, step=step)

    @classmethod
    def from_interval_log(cls, lo: float, hi: float) -> "CoeffVector":
        """Weight 1/log(m) on every integer m in (lo, hi]."""
        ms = [m for m in range(max(2, math.floor(lo)), math.floor(hi) + 1) if lo < m <= hi]
        if not ms:
            return cls(offset=0, counts=np.zeros(1), integral=False)
        off = ms[0] ** 2
        counts = np.zeros(ms[-1] ** 2 - off + 1)
        for m in ms:
            counts[m * m - off] += 1.0 / math.log(m)
        counts.setflags(write=False)
        return cls(offset=off, counts=counts, integral=False)

    @property
    def mass(self) -> float:
        return float(self.counts.sum())


def f_eval(alpha: float, weights: CoeffVector) -> complex:
    """Direct summation of sum_m w(m) e(alpha m^2)."""
    idx = np.flatnonzero(weights.counts)
    phases = (alpha * (weights.offset + weights.step * idx)) % 1.0
    return complex(np.sum(weights.counts[idx] * np.exp(2j * np.pi * phases)))


@dataclass(frozen=True)
class WindowCounts:
    """Convolution-power coefficients: count(n) = values[k] at
    n = offset + step*k, and 0 off that lattice or past its ends."""

    offset: int
    values: np.ndarray
    exact: bool
    step: int = 1

    def count(self, n: int):
        k, r = divmod(n - self.offset, self.step)
        if r or k < 0 or k >= len(self.values):
            return 0
        v = self.values[k]
        return int(v) if self.exact else float(v)


def _kronecker_power(counts: np.ndarray, s: int) -> np.ndarray:
    """Exact integer s-fold self-convolution via big-integer substitution.

    The coefficients are Python ints (an object array), so counts of 2^63
    and beyond stay exact.  Each coefficient takes a whole number of bytes,
    so the vector is packed and the power read out in one bytes pass each.
    """
    ic = [int(round(c)) for c in counts]
    mass = sum(ic)
    out_len = s * (len(ic) - 1) + 1
    width = (mass**s).bit_length() // 8 + 1  # bytes per coefficient
    enc = int.from_bytes(b"".join(c.to_bytes(width, "little") for c in ic), "little")
    raw = (enc**s).to_bytes(width * out_len, "little")
    return np.array(
        [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)],
        dtype=object,
    )


def window_counts(weights: CoeffVector, s: int) -> WindowCounts:
    """s-fold convolution of the coefficient vector, on its stride.

    Integer-weight vectors return exact integer counts: the FFT result is
    accepted only if every coefficient is within FFT_ROUND_TOL of an
    integer and the rounded coefficients sum exactly to mass^s; otherwise
    the exact big-integer path is used.
    """
    if s < 2:
        raise DomainError(f"require s >= 2, got {s}")
    n = len(weights.counts)
    out_len = s * (n - 1) + 1
    if out_len > CONV_LENGTH_BOUND:
        raise CapacityError(f"convolution length {out_len} exceeds bound {CONV_LENGTH_BOUND}")
    size = 1
    while size < out_len:
        size <<= 1
    fa = np.fft.rfft(weights.counts, size)
    conv = np.fft.irfft(fa**s, size)[:out_len]
    off, step = s * weights.offset, weights.step
    if not weights.integral:
        return WindowCounts(offset=off, values=conv, exact=False, step=step)
    rounded = np.rint(conv)
    deviation = float(np.max(np.abs(conv - rounded))) if out_len else 0.0
    total = int(weights.mass) ** s
    if deviation < FFT_ROUND_TOL and total < 2**52:
        values = rounded.astype(np.int64)
        if sum(values.tolist()) == total:
            return WindowCounts(offset=off, values=values, exact=True, step=step)
    return WindowCounts(offset=off, values=_kronecker_power(weights.counts, s), exact=True, step=step)


def direct_convolution_power(weights: CoeffVector, s: int) -> np.ndarray:
    """Reference s-fold convolution by repeated direct (non-FFT) convolution."""
    return reduce(lambda a, _: np.convolve(a, weights.counts), range(s - 1), weights.counts)


@dataclass(frozen=True)
class Arc:
    q: int
    a: int

    def center(self) -> Fraction:
        return Fraction(self.a, self.q)

    def half_width(self, Q) -> Fraction:
        return Fraction(1) / (self.q * Fraction(Q))


@dataclass(frozen=True)
class ArcPartition:
    """Arcs |q*alpha - a| <= 1/Q for 1 <= a <= q <= P, gcd(a, q) = 1."""

    P: float
    Q: float
    arcs: tuple[Arc, ...]

    def classify(self, alpha: float) -> Arc | None:
        """The containing arc, or None for a minor-arc point."""
        for q in range(1, math.floor(self.P) + 1):
            a = round(q * alpha)
            if 1 <= a <= q and math.gcd(a, q) == 1 and abs(q * alpha - a) * self.Q <= 1.0:
                return Arc(q=q, a=a)
        return None

    def total_measure(self) -> Fraction:
        """Sum of arc lengths 2/(qQ), assuming disjointness."""
        Q = Fraction(self.Q)
        return sum((Fraction(2) / (arc.q * Q) for arc in self.arcs), Fraction(0))

    def intervals(self) -> list[tuple[Fraction, Fraction]]:
        Q = Fraction(self.Q)
        return [
            (Fraction(a.a, a.q) - Fraction(1, a.q) / Q, Fraction(a.a, a.q) + Fraction(1, a.q) / Q)
            for a in self.arcs
        ]


def arc_partition(P: float, Q: float) -> ArcPartition:
    """Complete list of arcs for the given cutoffs."""
    if P < 1 or Q <= 0:
        raise DomainError(f"require P >= 1 and Q > 0, got P={P}, Q={Q}")
    if P > 10**6:
        raise CapacityError(f"P={P} generates too many arcs")
    arcs = [
        Arc(q=q, a=a)
        for q in range(1, math.floor(P) + 1)
        for a in range(1, q + 1)
        if math.gcd(a, q) == 1
    ]
    return ArcPartition(P=P, Q=Q, arcs=tuple(arcs))


def v_power_quadrature(n: int, s: int, interval: tuple[float, float], npoints: int | None = None) -> float:
    """Trapezoid quadrature of int_0^1 v(beta)^s e(-beta n) dbeta.

    v is the 1/log-weighted sum over all integers of the interval.  The
    integrand is a trigonometric polynomial, so a uniform rule with more
    points than the top frequency integrates it exactly.
    """
    cv = CoeffVector.from_interval_log(*interval)
    top_freq = s * (weights_top(cv)) + n
    npts = npoints or (2 * top_freq + 16)
    betas = np.arange(npts) / npts
    idx = np.flatnonzero(cv.counts)
    freqs = cv.offset + cv.step * idx
    w = cv.counts[idx]
    vvals = (w[None, :] * np.exp(2j * np.pi * np.outer(betas, freqs))).sum(axis=1)
    integrand = vvals**s * np.exp(-2j * np.pi * betas * n)
    return float(np.mean(integrand).real)


def weights_top(cv: CoeffVector) -> int:
    return cv.offset + cv.step * (len(cv.counts) - 1)
