"""Acceptance gate: the eight headline checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines on
success; each check is also a regular assertion.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

import aesq
from aesq import buchstab, constants, local
from aesq.circle import CoeffVector, v_power_quadrature, window_counts
from aesq.constants import Region, SieveParams
from aesq.decomposition import DecompParams, verify_interval
from aesq.primes import primes_in
from aesq.representations import (
    RepQuery,
    _half_sums,
    count_representations,
    exceptional_scan,
    singular_integral_exact,
)

FIGURE1_EXPECTED = [
    (Fraction(1), 0.476),
    (Fraction(98, 100), 0.433),
    (Fraction(96, 100), 0.387),
    (Fraction(95, 100), 0.363),
    (Fraction(94, 100), 0.337),
    (Fraction(93, 100), 0.310),
    (Fraction(92, 100), 0.281),
    (Fraction(91, 100), 0.250),
    (Fraction(90, 100), 0.217),
    (Fraction(89, 100), 0.182),
    (Fraction(8, 9), 0.178),
]


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{label}]: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def test_criterion_1_lower_bound_table():
    t0 = time.perf_counter()
    reports = constants.figure1(tol=1e-7)
    elapsed = time.perf_counter() - t0
    errors = [
        abs(r.C_value - expected)
        for r, (theta, expected) in zip(reports, FIGURE1_EXPECTED)
    ]
    increasing = all(
        a.C_value > b.C_value for a, b in zip(reports, reports[1:])
    )  # reports are listed in descending theta
    ok = max(errors) <= 0.003 and elapsed < 300 and increasing
    _report(1, "eleven-point lower-bound table", ok,
            f"max err {max(errors):.2e}, {elapsed:.1f}s")


def test_criterion_2_delay_equation_solver():
    table = buchstab.solve_buchstab(u_max=10.0, step=1e-4)
    closed_err = 0.0
    for u in np.linspace(1.0, 3.0, 1201)[1:]:
        expected = 1.0 / u if u <= 2.0 else (1.0 + math.log(u - 1.0)) / u
        closed_err = max(closed_err, abs(buchstab.omega(u, table) - expected))
    coarse = buchstab.solve_buchstab(u_max=10.0, step=2e-4)
    halving = max(
        abs(buchstab.omega(u, coarse) - buchstab.omega(u, table))
        for u in np.linspace(1.0, 10.0, 901)[1:]
    )
    residual = float(np.max(np.abs(buchstab.integral_form_residual(table))))
    bounded = all(
        buchstab.omega(u, table) <= buchstab.omega_upper(u) + 1e-12
        for u in np.linspace(1.0, 10.0, 1801)[1:]
    )
    ok = closed_err <= 1e-9 and halving <= 1e-8 and residual <= 1e-8 and bounded
    _report(2, "delay-equation solver", ok,
            f"closed {closed_err:.1e}, halving {halving:.1e}, residual {residual:.1e}")


def test_criterion_3_closed_form_cross_check():
    errs = []
    for theta in (Fraction(8, 9), Fraction(95, 100), Fraction(1)):
        p = SieveParams.for_theta(theta)
        val = constants.sieve_integral(Region.gamma4(p), "upper_bound", tol=1e-9)
        errs.append(abs(val - constants.ell4(theta)))
    p1 = SieveParams.for_theta(Fraction(1))
    d11 = constants.sieve_integral(Region.d11(p1), "upper_bound")
    ok = max(errs) <= 1e-6 and d11 == 0.0 and Region.d11(p1).is_empty()
    _report(3, "closed-form density integral", ok, f"max err {max(errs):.1e}")


def test_criterion_4_local_arithmetic():
    ns = [24 * k + r for k, r in zip(range(20), [5, 12, 29, 4, 21, 3, 10, 17, 2,
                                                 9, 16, 23, 6, 13, 20, 1, 8, 15, 22, 7])]
    worst = 0.0
    for q in range(1, 61):
        ds = [d for d in range(1, q + 1) if q % d == 0]
        for s in (3, 4, 5):
            for n in ns:
                lhs = math.fsum(local.a_term(n, d, s) for d in ds)
                rhs = float(local.local_density(n, s, q))
                worst = max(worst, abs(lhs - rhs))
    mult_ok = True
    for q1 in range(2, 51):
        for q2 in range(2, 51):
            if q1 * q2 > 50 or math.gcd(q1, q2) != 1:
                continue
            for n in (29, 100):
                lhs = local.a_term(n, q1 * q2, 4)
                rhs = local.a_term(n, q1, 4) * local.a_term(n, q2, 4)
                mult_ok = mult_ok and abs(lhs - rhs) <= 1e-9
    gauss_ok = all(
        abs(abs(local.gauss_sum(p, a) + 1) ** 2 - p) <= 1e-8
        for p in primes_in(2, 97).primes
        for a in range(1, p)
    )
    ok = worst <= 1e-9 and mult_ok and gauss_ok
    _report(4, "local arithmetic oracle equivalence", ok, f"worst {worst:.1e}")


def test_criterion_5_decomposition_identities():
    synth = DecompParams(z=3, U=10, V=30, sqrt_x1=50)
    rep_s = verify_interval(synth, 50, 5000, threads=4)
    p9 = DecompParams.from_exponents(0.9, 1e5)
    lo, hi = p9.interval()
    rep_9 = verify_interval(p9, lo, hi, threads=4)
    e_ok = True
    for theta in (8 / 9, 0.95):
        p = DecompParams.from_exponents(theta, 1e5)
        lo, hi = p.interval()
        r = verify_interval(p, lo, hi, threads=4)
        e_ok = e_ok and r.check_e_run and r.ok
    ok = rep_s.ok and rep_9.ok and e_ok
    _report(5, "sieve decomposition identities", ok,
            f"synthetic {rep_s.checked}, scale {rep_9.checked} integers, zero failures"
            if ok else f"failures {rep_s.failures[:3] + rep_9.failures[:3]}")


def test_criterion_6_representation_counting():
    basics = (
        count_representations(RepQuery(100, 4)) == 1
        and count_representations(RepQuery(125, 5)) == 11
        and count_representations(RepQuery(29, 5)) == 0
    )
    scan = exceptional_scan(X=40, s=5, H=None, window=(20, 60))
    scan_ok = scan.exceptions == (29, 53)

    X, s = 10**6, 4
    lo, hi = X - 500, X + 500
    cv = CoeffVector.from_primes(primes_in(1, math.isqrt(hi)).primes)
    wc = window_counts(cv, s)
    squares = [p * p for p in primes_in(1, math.isqrt(hi)).primes]
    halves = _half_sums(squares, s // 2, hi)
    mismatches = sum(
        1
        for n in range(lo, hi + 1)
        if wc.count(n) != sum(c * halves.get(n - t, 0) for t, c in halves.items())
    )
    ok = basics and scan_ok and mismatches == 0 and wc.exact
    _report(6, "representation counting", ok,
            f"window [{lo},{hi}] mismatches {mismatches}")


def test_criterion_7_circle_identities():
    cv = CoeffVector.from_primes(primes_in(1, 300).primes)
    parseval = all(
        int(window_counts(cv, s).values.sum()) == int(cv.mass) ** s for s in (2, 3, 4)
    )
    cases = [(100, 4, (4.9, 5.1)), (125, 5, (4.2, 5.8)), (77, 3, (3.5, 6.5))]
    quad_err = max(
        abs(v_power_quadrature(n, s, iv) - singular_integral_exact(n, s, iv))
        for n, s, iv in cases
    )
    ok = parseval and quad_err <= 1e-6
    _report(7, "circle-method identities", ok, f"quadrature err {quad_err:.1e}")


def test_criterion_8_cli_determinism():
    cmds = [
        ["scan", "--s", "5", "--X", "40", "--H", "inf", "--window", "20:60",
         "--format", "csv"],
        ["decomp-check", "--z", "3", "--U", "10", "--V", "30", "--sqrt-x1", "50",
         "--lo", "50", "--hi", "2000"],
        ["figure1", "--tol", "1e-4"],
    ]
    ok = True
    for cmd in cmds:
        outs = set()
        for threads in ("1", "2", "4"):
            r = subprocess.run(
                [sys.executable, "-m", "aesq.cli", *cmd],
                capture_output=True, check=True,
                env={"PATH": "/usr/bin:/bin", "AESQ_THREADS": threads,
                     "PYTHONPATH": os.path.dirname(os.path.dirname(aesq.__file__))},
            )
            outs.add(r.stdout)
        ok = ok and len(outs) == 1
    _report(8, "byte-identical command output", ok)
