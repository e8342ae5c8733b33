"""Pointwise evaluation of the sieve decomposition of the prime indicator.

The prime indicator varpi is split by repeated application of the sieve
recursion  psi(m, z1) = psi(m, z2) - sum_{z2 <= p < z1} psi(m/p, p)  into the
pieces gamma_1 .. gamma_11 and the starred pieces gamma_5* .. gamma_9*, from
which the minorant/majorant weights lambda_1, lambda_2, lambda_3 are built.
Every sum here is evaluated literally on concrete integers, which makes the
combinatorial identities between the pieces machine-checkable.

Boundary conventions follow the printed inequalities exactly: the cutoffs
z, U, V are real and compared against integer primes with the strict or
non-strict comparisons as written (z <= p < U, U <= p <= V, V < p < sqrt_x1,
p <= sqrt(V), ...); ties are never rounded.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import primes as pt
from .constants import SieveParams
from .errors import CapacityError, DomainError

@dataclass(frozen=True)
class DecompParams:
    """Cutoffs for the decomposition: 2 <= z < U < V < sqrt_x1^2."""

    z: float
    U: float
    V: float
    sqrt_x1: float
    theta: float | None = None  # set when derived from exponents
    x: float | None = None

    def __post_init__(self):
        if not (2 <= self.z < self.U < self.V < self.sqrt_x1**2):
            raise DomainError(
                f"require 2 <= z < U < V < sqrt_x1^2, got {self.z}, {self.U}, {self.V}, {self.sqrt_x1}"
            )

    @classmethod
    def from_exponents(cls, theta, x: float, sigma=None) -> "DecompParams":
        """Cutoffs z = x^e_z, U = x^e_U, V = x^e_V at scale x."""
        sp = SieveParams.for_theta(theta, sigma=sigma)
        return cls(
            z=x ** float(sp.e_z),
            U=x ** float(sp.e_U),
            V=x ** float(sp.e_V),
            sqrt_x1=math.sqrt(x + x ** float(sp.theta)),
            theta=float(sp.theta),
            x=x,
        )

    def check_e_applicable(self) -> bool:
        """Whether gamma_8* - gamma_9* = gamma_11 is forced, i.e. U/z <= sqrt(V).

        The comparison carries a relative slack: at the boundary exponent the
        two cutoffs coincide as reals and only differ by float rounding.
        """
        return self.U / self.z <= math.sqrt(self.V) * (1 + 1e-9)

    def interval(self) -> tuple[int, int]:
        """Endpoints of the scale window (x - x^theta, x + x^theta].

        Returned as integers (lo, hi) with the same half-open convention:
        the window holds exactly the integers m with lo < m <= hi.
        """
        if self.theta is None or self.x is None:
            raise DomainError("params were not derived from a scale x")
        half = self.x ** self.theta
        return math.floor(self.x - half), math.floor(self.x + half)


# --- the evaluator --------------------------------------------------------

def _small_factors(lo: int, hi: int, bound: float) -> list[list[int]]:
    """Sorted multiset of the prime factors below `bound` of each m in (lo, hi].

    One sieve pass over the prime powers below `bound`: p is appended to m
    once for every power of p dividing m.  Primes are visited in ascending
    order, so every multiset comes out sorted.
    """
    lists: list[list[int]] = [[] for _ in range(hi - lo)]
    for p in pt.primes_upto(pt._ceil_excl(bound)):
        pk = p
        while pk <= hi:
            start = ((lo + pk) // pk) * pk  # first multiple > lo
            for mult in range(start, hi + 1, pk):
                lists[mult - lo - 1].append(p)
            pk *= p
    return lists


def _psi_without(fs: list[int], removed: tuple[int, ...], w: float) -> int:
    """psi(m / prod(removed), w) given the sorted small-factor multiset of m.

    `removed` must be a multiset of entries of fs; factors >= the sieving
    bound that produced fs never matter because w stays below that bound.
    """
    skip = list(removed)
    for f in fs:
        if f >= w:
            break
        if f in skip:
            skip.remove(f)
            continue
        return 0
    return 1


def _single(fs, ps, inside, w=None) -> int:
    """Sum of psi(m/p1, w) over primes p1 in ps with inside(p1); w defaults to p1."""
    total = 0
    for p1 in ps:
        if inside(p1):
            total += _psi_without(fs, (p1,), p1 if w is None else w)
    return total


def _pairs(fs, ps, top, cond, w=None) -> int:
    """Sum of psi(m/(p1 p2), w) over primes p2 < p1 in ps with top(p1) and
    cond(p1 p2); w defaults to p2."""
    total = 0
    for i1, p1 in enumerate(ps):
        if top(p1):
            for p2 in ps[:i1]:
                if cond(p1 * p2):
                    total += _psi_without(fs, (p1, p2), p2 if w is None else w)
    return total


def _triples(fs, ps, top, cond) -> int:
    """Sum of psi(m/(p1 p2 p3), p3) over primes p3 < p2 < p1 in ps with
    top(p1) and cond(p1 p2, p1 p2 p3)."""
    total = 0
    for i1, p1 in enumerate(ps):
        if top(p1):
            for i2, p2 in enumerate(ps[:i1]):
                for p3 in ps[:i2]:
                    if cond(p1 * p2, p1 * p2 * p3):
                        total += _psi_without(fs, (p1, p2, p3), p3)
    return total


def buchstab_identity_check(m: int, z1: float, z2: float) -> tuple[int, int]:
    """Both sides of psi(m, z1) = psi(m, z2) - sum_{z2 <= p < z1} psi(m/p, p)."""
    if not (2 <= z2 < z1):
        raise DomainError(f"require 2 <= z2 < z1, got z1={z1}, z2={z2}")
    if m < 1:
        raise DomainError(f"require m >= 1, got {m}")
    lhs = pt.psi(m, z1)
    rhs = pt.psi(m, z2)
    for p in pt.primes_upto(pt._ceil_excl(z1)):
        if p < z2:
            continue
        if m % p == 0:
            rhs -= pt.psi(m // p, p)
        # psi of a non-integer is 0; nothing to subtract
    return lhs, rhs


@dataclass(frozen=True)
class DecompValue:
    """All pieces at one integer, with the lambda combinations.

    The pieces depend on the integer only through its small-factor multiset,
    so one value serves every integer with the same multiset.
    """

    gamma: tuple[int, ...]       # gamma_1 .. gamma_11
    gamma_star: tuple[int, ...]  # gamma_5* .. gamma_9*
    varpi: int

    @property
    def lambda1(self) -> int:
        g = self.gamma
        return g[0] - g[2] - g[4] + g[6] + g[8] - g[9]

    @property
    def lambda2(self) -> int:
        g = self.gamma
        return g[3] + g[10]

    @property
    def lambda3(self) -> int:
        g, gs = self.gamma, self.gamma_star
        return g[0] - g[2] - gs[1] + gs[2] - gs[4]


def _evaluate(fs: list[int], params: DecompParams) -> DecompValue:
    """Every piece at an integer m from fs, its sorted multiset of prime
    factors below sqrt_x1.

    p1, p2, p3 run over the distinct prime factors of m; in the pair and
    triple sums they satisfy z <= p3 < p2 < p1.
    """
    z, U, V, S = params.z, params.U, params.V, params.sqrt_x1
    sqV = math.sqrt(V)
    ps = sorted(set(fs))
    rough = [p for p in ps if p >= z]
    gamma = (
        _psi_without(fs, (), z),
        _single(fs, ps, lambda p1: z <= p1 < U),
        _single(fs, ps, lambda p1: U <= p1 <= V),
        _single(fs, ps, lambda p1: V < p1 < S),
        _single(fs, ps, lambda p1: z <= p1 < U, z),
        _pairs(fs, rough, lambda p1: p1 < U, lambda q: q < U),
        _pairs(fs, rough, lambda p1: p1 < U, lambda q: U <= q <= V),
        _pairs(fs, rough, lambda p1: p1 < U, lambda q: q > V),
        _pairs(fs, rough, lambda p1: p1 < U, lambda q: q < U, z),
        _triples(fs, rough, lambda p1: p1 < U, lambda q2, q3: q2 < U and q3 <= V),
        _triples(fs, rough, lambda p1: p1 < U, lambda q2, q3: q2 < U and q3 > V),
    )
    gamma_star = (
        _single(fs, ps, lambda p1: sqV < p1 < U),
        _single(fs, ps, lambda p1: z <= p1 <= sqV, z),
        _pairs(fs, rough, lambda p1: p1 <= sqV, lambda q: True, z),
        _triples(fs, rough, lambda p1: p1 <= sqV, lambda q2, q3: True),
        _triples(fs, rough, lambda p1: p1 <= sqV, lambda q2, q3: q2 >= U or q3 <= V),
    )
    # psi(m, sqrt_x1) is what the decomposition telescopes to; it equals
    # the prime indicator exactly when m <= x1 (i.e. m in the window).
    return DecompValue(gamma=gamma, gamma_star=gamma_star, varpi=_psi_without(fs, (), S))


def decomp_value(m: int, params: DecompParams) -> DecompValue:
    """Every piece at one integer m >= 1."""
    if m < 1:
        raise DomainError(f"require m >= 1, got {m}")
    return _evaluate(_small_factors(m - 1, m, params.sqrt_x1)[0], params)


#: Class key of every m with a prime factor f < min(z, sqrt(V)).  Not ()
#: because () is the key of an m with no factor below sqrt_x1, such as a prime.
_ZERO_CLASS = "zero"


def _window_values(params: DecompParams, lo: int, hi: int):
    """(m, DecompValue) for every m in (lo, hi], evaluated once per class.

    The class of m is its small-factor multiset, except that every m with a
    factor f < min(z, sqrt(V)) shares _ZERO_CLASS: every prime a piece
    removes is >= z or (in gamma_5*) > sqrt(V), and every sieving bound w
    is >= z or that removed prime, so f survives below w and every piece
    and varpi is 0.
    """
    small = min(params.z, math.sqrt(params.V))
    values: dict = {}
    for m, fs in enumerate(_small_factors(lo, hi, params.sqrt_x1), start=lo + 1):
        key = _ZERO_CLASS if fs and fs[0] < small else tuple(fs)
        v = values.get(key)
        if v is None:
            v = values[key] = _evaluate(fs, params)
        yield m, v


CHECK_NAMES = ("a", "b", "c", "d", "e")


@dataclass
class VerifyReport:
    lo: int
    hi: int
    params: DecompParams
    checked: int = 0
    checks_run: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    check_e_run: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def _verify_chunk(args) -> tuple[int, list]:
    params, lo, hi, run_e, cap = args
    fails: list = []
    count = 0
    for m, v in _window_values(params, lo, hi):
        g, gs = v.gamma, v.gamma_star
        count += 1
        if v.varpi != v.lambda1 - v.lambda2 + g[7]:
            fails.append(("a", m, "identity"))
        if not (v.lambda1 - v.lambda2 <= v.varpi <= v.lambda3):
            fails.append(("b", m, "sandwich"))
        if v.lambda2 < 0:
            fails.append(("c", m, "negativity"))
        if v.varpi != g[0] - g[2] - g[3] - gs[0] - gs[1] + gs[2] - gs[3]:
            fails.append(("d", m, "identity"))
        if run_e and gs[3] - gs[4] != g[10]:
            fails.append(("e", m, "g8*-g9* != g11"))
        if len(fails) >= cap:
            break
    return count, fails


def verify_interval(
    params: DecompParams,
    lo: int,
    hi: int,
    run_e: bool | None = None,
    threads: int = 1,
    max_failures: int = 100,
) -> VerifyReport:
    """Check the decomposition identities for every integer in (lo, hi].

    run_e defaults to params.check_e_applicable() for scale-derived params
    with theta >= 8/9 and to False otherwise; a True override is honored but
    may legitimately report failures for synthetic cutoffs.

    The check stops at the integer that brings the failure count to
    max_failures: `failures` then holds the first max_failures failures of
    the interval, and `checked` counts the integers from lo + 1 up to and
    including that one.  Chunks past it are not run with threads=1; with
    more threads they may run, and their results are dropped.
    """
    if not (0 < lo < hi):
        raise DomainError(f"require 0 < lo < hi, got {lo}, {hi}")
    if max_failures < 1:
        raise DomainError(f"require max_failures >= 1, got {max_failures}")
    if hi > pt.SIEVE_BOUND:
        raise CapacityError(f"hi={hi} exceeds the sieve bound")
    if run_e is None:
        run_e = params.theta is not None and params.theta >= 8 / 9 - 1e-12 and params.check_e_applicable()
    report = VerifyReport(lo=lo, hi=hi, params=params)
    chunk = 1 << 15
    tasks = [
        (params, a, min(a + chunk, hi), run_e, max_failures)
        for a in range(lo, hi, chunk)
    ]
    workers = min(threads, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_verify_chunk, tasks))
    else:
        results = map(_verify_chunk, tasks)
    for (_, a, *_), (count, fails) in zip(tasks, results):
        room = max_failures - len(report.failures)
        if len(fails) >= room:
            report.failures.extend(fails[:room])
            report.checked += report.failures[-1][1] - a
            break
        report.checked += count
        report.failures.extend(fails)
    names = CHECK_NAMES if run_e else CHECK_NAMES[:4]
    report.checks_run = {name: report.checked for name in names}
    report.check_e_run = run_e
    return report
