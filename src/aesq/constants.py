"""Sieve constants: the integrals behind the positivity constant C(theta).

The constant reads C = 1 - l8 - k2*(k2 + l5s), where l8 is a double integral
over the region D8, l5s a single integral, and k2 the sum of the closed form
log((3+theta)/(4-theta)) and a triple integral over D11.  All integrands are
of the form w(linear/coordinate) / (product of coordinates), with w either
the solved delay-equation table or its closed-form upper bound; the latter
turns C into the certified lower bound reproduced in the published table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal

from . import buchstab
from .errors import DomainError, InfeasibleParametersError
from .buchstab import BuchstabTable, omega_upper

OmegaMode = Literal["solved_omega", "upper_bound_omega"]

#: The eleven abscissae of the published lower-bound table.
FIGURE1_THETAS = (
    Fraction(1),
    Fraction(98, 100),
    Fraction(96, 100),
    Fraction(95, 100),
    Fraction(94, 100),
    Fraction(93, 100),
    Fraction(92, 100),
    Fraction(91, 100),
    Fraction(90, 100),
    Fraction(89, 100),
    Fraction(8, 9),
)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class SieveParams:
    """Exponent bookkeeping for the sieve construction.

    All exponents are relative to the scale x: the sieve cutoffs are
    z = x^e_z, U = x^e_U, V = x^e_V with e_z = 2*theta - 1 - 6*sigma,
    e_U = 1 - theta + 2*sigma, e_V = theta - 4*sigma.
    """

    theta: Fraction
    sigma: Fraction

    @classmethod
    def for_theta(cls, theta, sigma=None) -> "SieveParams":
        """Default sigma = (2*theta - 1)/7, the sieve-section choice."""
        t = _frac(theta)
        s = _frac(sigma) if sigma is not None else (2 * t - 1) / 7
        return cls(theta=t, sigma=s)

    @property
    def e_z(self) -> Fraction:
        return 2 * self.theta - 1 - 6 * self.sigma

    @property
    def e_U(self) -> Fraction:
        return 1 - self.theta + 2 * self.sigma

    @property
    def e_V(self) -> Fraction:
        return self.theta - 4 * self.sigma

    def omega_argument_bound(self) -> float:
        """Largest w-argument any sieve integrand can produce: (1-3s)/s."""
        return float((1 - 3 * self.sigma) / self.sigma)


RegionKind = Literal["ell5star", "ell8", "d11", "gamma4"]


@dataclass(frozen=True)
class Region:
    """An integration domain cut out by linear inequalities in (u, v, w).

    Integration uses iterated limits derived analytically from the
    inequalities of each kind.
    """

    kind: RegionKind
    params: SieveParams

    @classmethod
    def ell5star(cls, params: SieveParams) -> "Region":
        return cls("ell5star", params)

    @classmethod
    def gamma4(cls, params: SieveParams) -> "Region":
        return cls("gamma4", params)

    @classmethod
    def ell8(cls, params: SieveParams) -> "Region":
        return cls("ell8", params)

    @classmethod
    def d11(cls, params: SieveParams) -> "Region":
        return cls("d11", params)

    def is_empty(self) -> bool:
        """Exact-rational emptiness test via the iterated limits."""
        s, eU, eV = self.params.sigma, self.params.e_U, self.params.e_V
        if self.kind in ("ell5star", "gamma4"):
            lo = self.params.theta / 2 - 2 * s if self.kind == "ell5star" else eV
            hi = eU if self.kind == "ell5star" else Fraction(1, 2)
            return lo >= hi
        if self.kind == "ell8":
            return eV / 2 >= eU
        # d11: u ranges over [eV/3, eU - s]
        return eV / 3 >= eU - s


def _omega_fn(omega_source) -> Callable[[float], float]:
    """w for "upper_bound" (the closed-form bound) or a solved BuchstabTable."""
    if omega_source == "upper_bound":
        return omega_upper
    if isinstance(omega_source, BuchstabTable):
        return lambda u: buchstab.omega(u, omega_source)
    raise DomainError(f"unknown omega source {omega_source!r}")


def sieve_integral(region: Region, omega_source, tol: float = 1e-7) -> float:
    """Iterated adaptive quadrature of the region's integrand.

    Empty regions integrate to exactly 0.  The w-argument is checked against
    the domain of the chosen source; an out-of-range point raises DomainError
    naming the offending argument.
    """
    if tol < 1e-9:
        raise DomainError(f"tol={tol} below the supported floor 1e-9")
    if region.is_empty():
        return 0.0
    # imported here so that only the commands that integrate load scipy
    from scipy.integrate import quad

    w = _omega_fn(omega_source)
    params = region.params
    s = float(params.sigma)
    eU, eV = float(params.e_U), float(params.e_V)
    theta = float(params.theta)

    def w_at(arg: float) -> float:
        if arg < 1.0 - 1e-12:
            raise DomainError(f"omega argument {arg} below 1 inside region {region.kind}")
        return w(max(arg, 1.0))

    if region.kind in ("ell5star", "gamma4"):
        lo = theta / 2 - 2 * s if region.kind == "ell5star" else eV
        hi = eU if region.kind == "ell5star" else 0.5
        val, _ = quad(lambda u: w_at((1 - u) / u) / u**2, lo, hi, epsabs=tol, epsrel=0, limit=200)
        return val

    if region.kind == "ell8":

        def inner(u: float) -> float:
            vlo = max(s, eV - u)
            if vlo >= u:
                return 0.0
            r, _ = quad(
                lambda v: w_at((1 - u - v) / v) / (u * v * v),
                vlo, u, epsabs=tol * 0.1, epsrel=0, limit=200,
            )
            return r

        val, _ = quad(inner, eV / 2, eU, epsabs=tol, epsrel=0, limit=200)
        return val

    # d11 triple integral
    def middle(u: float) -> float:
        vlo = max(s, (eV - u) / 2)
        vhi = min(u, eU - u)
        if vlo >= vhi:
            return 0.0

        def inner(v: float) -> float:
            wlo = max(s, eV - u - v)
            if wlo >= v:
                return 0.0
            r, _ = quad(
                lambda t: w_at((1 - u - v - t) / t) / (u * v * t * t),
                wlo, v, epsabs=tol * 0.01, epsrel=0, limit=200,
            )
            return r

        r, _ = quad(inner, vlo, vhi, epsabs=tol * 0.1, epsrel=0, limit=200)
        return r

    val, _ = quad(middle, eV / 3, eU - s, epsabs=tol, epsrel=0, limit=200)
    return val


def ell4(theta) -> float:
    """Closed form log((3+theta)/(4-theta)) for the two-prime-product term."""
    t = float(theta)
    if not (8 / 9 - 1e-12 <= t <= 1 + 1e-12):
        raise DomainError(f"theta={t} outside [8/9, 1]")
    return math.log((3 + t) / (4 - t))


@dataclass(frozen=True)
class ConstantsReport:
    theta: float
    sigma: float
    ell4: float
    ell5star: float
    ell8: float
    kappa2: float
    C_value: float
    mode: OmegaMode
    tol: float
    d11_empty: bool


def c_of_theta(theta, mode: OmegaMode = "upper_bound_omega", tol: float = 1e-7) -> ConstantsReport:
    """Full constants report at sigma = (2*theta - 1)/7.

    In upper_bound_omega mode the closed-form bound replaces the solved delay
    function everywhere, so C_value is a certified lower bound on C(theta).
    """
    t = _frac(theta)
    if not (Fraction(8, 9) <= t <= 1):
        raise DomainError(f"theta={theta} outside [8/9, 1]")
    params = SieveParams.for_theta(t)
    if mode == "upper_bound_omega":
        source = "upper_bound"
    elif mode == "solved_omega":
        source = buchstab.solve_buchstab(u_max=max(4.0, params.omega_argument_bound() + 0.5))
    else:
        raise DomainError(f"unknown mode {mode!r}")
    l4 = ell4(t)
    l5s = sieve_integral(Region.ell5star(params), source, tol)
    l8 = sieve_integral(Region.ell8(params), source, tol)
    d11_region = Region.d11(params)
    d11 = sieve_integral(d11_region, source, tol)
    k2 = l4 + d11
    c = 1.0 - l8 - k2 * (k2 + l5s)
    return ConstantsReport(
        theta=float(t), sigma=float(params.sigma), ell4=l4, ell5star=l5s, ell8=l8,
        kappa2=k2, C_value=c, mode=mode, tol=tol, d11_empty=d11_region.is_empty(),
    )


def figure1(mode: OmegaMode = "upper_bound_omega", tol: float = 1e-7) -> list[ConstantsReport]:
    """The eleven-row lower-bound table, descending in theta."""
    return [c_of_theta(t, mode=mode, tol=tol) for t in FIGURE1_THETAS]


def theta_s(s: int) -> Fraction:
    """Admissible exponent threshold for s >= 6 squares."""
    if s < 6:
        raise DomainError(f"require s >= 6, got {s}")
    if s >= 17:
        return Fraction(19, 24)
    return (1 + Fraction(775, 1000) * (s - 4)) / (s - 3)


_CONTEXTS = ("thm2", "thm3", "thm4_first", "thm5")


def sigma_admissible(context: str, theta, s: int | None = None) -> Fraction:
    """The sigma each theorem context selects, with its range check.

    For thm5 the feasibility condition (s-4)*sigma > 1 - theta is verified
    and InfeasibleParametersError raised when it fails.
    """
    if context not in _CONTEXTS:
        raise DomainError(f"unknown context {context!r}; expected one of {_CONTEXTS}")
    t = _frac(theta)
    if context == "thm2":
        if not (Fraction(8, 9) < t < 1):
            raise DomainError(f"thm2 requires 8/9 < theta < 1, got {theta}")
        return (2 * t - 1) / 7
    if context == "thm3":
        if not (Fraction(82, 100) < t < 1):
            raise DomainError(f"thm3 requires 0.82 < theta < 1, got {theta}")
        return min(t - Fraction(31, 40), (2 * t - 1) / 8)
    if context == "thm4_first":
        if not (Fraction(85, 100) < t < 1):
            raise DomainError(f"thm4 requires 0.85 < theta < 1, got {theta}")
        return min(t - Fraction(31, 40), (2 * t - 1) / 8)
    # thm5
    if s is None or s < 6:
        raise DomainError(f"thm5 requires s >= 6, got s={s}")
    if not (Fraction(31, 40) < t < 1):
        raise DomainError(f"thm5 requires 31/40 < theta < 1, got {theta}")
    sig = t - Fraction(31, 40)
    if not (s - 4) * sig > 1 - t:
        raise InfeasibleParametersError(
            f"(s-4)*sigma = {(s - 4) * sig} <= 1 - theta = {1 - t} (s={s}, theta={theta})"
        )
    return sig
