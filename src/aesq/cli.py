"""Command-line surface: every module behind one deterministic tool.

Output contract: CSV is UTF-8 with LF line endings, a header row, '.' as the
decimal separator, and 12 significant digits for reals; JSON is emitted with
sorted keys and fixed separators.  Identical configuration produces
byte-identical output regardless of thread count.  Exit codes: 0 success,
1 usage/validation error, 2 infeasible parameters, 3 tolerance/consistency
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

from . import buchstab, constants, decomposition, local, representations
from . import circle as circle_mod
from .errors import (
    AesqError,
    ConsistencyError,
    DomainError,
    InfeasibleParametersError,
    ToleranceError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_TOLERANCE = 3


def _fmt(x) -> str:
    """12 significant digits, '.' decimal separator."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    return "%.12g" % float(x)


def _write_atomic(text: str, out: str | None) -> None:
    """Write to stdout, or atomically replace the target file."""
    if out is None or out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    d = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".aesq-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _resolve_H(args, scale: int) -> float | None:
    """--H takes 'inf' or a number; --H-exp e means H = scale^e."""
    exp = getattr(args, "H_exp", None)
    if exp is not None:
        return float(scale) ** exp
    raw = getattr(args, "H", None)
    if raw is None or raw == "inf":
        return None
    return float(raw)


def _threads(args) -> int:
    env = os.environ.get("AESQ_THREADS")
    if env is not None:
        return max(1, int(env))
    return max(1, args.threads)


# --- subcommand handlers -------------------------------------------------


def _cmd_buchstab(args) -> str:
    if args.u is not None:
        table = buchstab.solve_buchstab(u_max=max(4.0, args.u + 1.0), step=args.step)
        return _fmt(buchstab.omega(args.u, table)) + "\n"
    table = buchstab.solve_buchstab(u_max=args.u_max, step=args.step)
    rows = [
        [u, v, buchstab.omega_upper(u)]
        for u, v in zip(table.grid, table.values)
        if abs(u - round(u / args.emit_step) * args.emit_step) < table.step / 2
    ]
    return _csv(["u", "omega", "upper_bound"], rows)


def _cmd_constants(args) -> str:
    if args.sigma_context is not None:
        sigma = constants.sigma_admissible(args.sigma_context, args.theta, s=args.s)
        obj = {
            "context": args.sigma_context,
            "theta": args.theta,
            "s": args.s,
            "sigma": float(sigma),
        }
        if args.format == "json":
            return _json(obj)
        keys = list(obj)
        return _csv(keys, [[obj[k] if obj[k] is not None else "" for k in keys]])
    rep = constants.c_of_theta(args.theta, mode=args.mode, tol=args.tol)
    obj = {
        "theta": rep.theta,
        "sigma": rep.sigma,
        "ell4": rep.ell4,
        "ell5star": rep.ell5star,
        "ell8": rep.ell8,
        "kappa2": rep.kappa2,
        "C": rep.C_value,
        "mode": rep.mode,
        "tol": rep.tol,
        "d11_empty": rep.d11_empty,
    }
    if args.format == "json":
        return _json(obj)
    keys = list(obj)
    return _csv(keys, [[obj[k] for k in keys]])


def _cmd_figure1(args) -> str:
    reports = constants.figure1(mode=args.mode, tol=args.tol)
    if args.gnuplot_out:
        lines = ["# theta  C_lower_bound"]
        lines += [f"{_fmt(r.theta)} {_fmt(r.C_value)}" for r in reversed(reports)]
        _write_atomic("\n".join(lines) + "\n", args.gnuplot_out)
    if args.format == "json":
        return _json([{"theta": r.theta, "C": r.C_value} for r in reports])
    return _csv(["theta", "C"], [[r.theta, r.C_value] for r in reports])


def _cmd_singular_series(args) -> str:
    rep = local.singular_series_partial(args.n, args.s, args.P)
    obj = {"n": rep.n, "s": rep.s, "P": rep.P, "value": rep.value, "terms": list(rep.terms)}
    if args.format == "csv":
        return _csv(["q", "A"], [[q, t] for q, t in enumerate(rep.terms, start=1)])
    return _json(obj)


def _cmd_count(args) -> str:
    H = _resolve_H(args, args.n)
    q = representations.RepQuery(n=args.n, s=args.s, H=H, ordered=not args.unordered)
    c = representations.count_representations(q)
    obj = {"n": args.n, "s": args.s, "H": H, "ordered": not args.unordered, "count": c}
    if args.format == "csv":
        return _csv(["n", "s", "H", "ordered", "count"],
                    [[args.n, args.s, "inf" if H is None else H, not args.unordered, c]])
    return _json(obj)


def _cmd_scan(args) -> str:
    H = _resolve_H(args, args.X)
    window = _parse_window(args.window)
    print(f"scanning window {window} for s={args.s}", file=sys.stderr)
    rep = representations.exceptional_scan(X=args.X, s=args.s, H=H, window=window)
    if args.format == "csv":
        counts = rep.counts
        rows = [[n, n in counts, counts.get(n, 0)] for n in range(window[0], window[1] + 1)]
        return _csv(["n", "in_H", "rep_count"], rows)
    obj = {
        "X": rep.X,
        "s": rep.s,
        "H": rep.H,
        "window": list(rep.window),
        "scanned_count": rep.scanned_count,
        "exceptions": list(rep.exceptions),
    }
    return _json(obj)


def _cmd_decomp_check(args) -> str:
    if args.theta is not None:
        if args.x is None:
            raise DomainError("--theta requires --x")
        params = decomposition.DecompParams.from_exponents(args.theta, args.x)
    else:
        if None in (args.z, args.U, args.V, args.sqrt_x1):
            raise DomainError("give either --theta/--x or all of --z/--U/--V/--sqrt-x1")
        params = decomposition.DecompParams(z=args.z, U=args.U, V=args.V, sqrt_x1=args.sqrt_x1)
    if args.lo is not None and args.hi is not None:
        lo, hi = args.lo, args.hi
    else:
        lo, hi = params.interval()
    rep = decomposition.verify_interval(params, lo, hi, threads=_threads(args))
    obj = {
        "interval": [rep.lo, rep.hi],
        "params": {
            "z": params.z,
            "U": params.U,
            "V": params.V,
            "sqrt_x1": params.sqrt_x1,
            "theta": params.theta,
            "x": params.x,
        },
        "checked": rep.checked,
        "checks_run": rep.checks_run,
        "failures": [{"check": c, "m": m, "note": note} for c, m, note in rep.failures],
        "ok": rep.ok,
    }
    return _json(obj)


def _cmd_arcs(args) -> str:
    part = circle_mod.arc_partition(args.P, args.Q)
    rows = [
        [arc.q, arc.a, float(arc.center()), float(arc.half_width(args.Q))]
        for arc in part.arcs
    ]
    if args.format == "json":
        return _json({
            "P": args.P,
            "Q": args.Q,
            "arc_count": len(part.arcs),
            "total_measure": float(part.total_measure()),
            "arcs": [[arc.q, arc.a] for arc in part.arcs],
        })
    return _csv(["q", "a", "center", "half_width"], rows)


def _cmd_window(args) -> str:
    H = _resolve_H(args, args.X)
    lo, hi = _parse_window(args.window)
    counts = representations.window_rep_counts(args.s, H, range(lo, hi + 1))
    rows = [[n, counts[n]] for n in range(lo, hi + 1)]
    if args.format == "json":
        return _json({"s": args.s, "H": H, "window": [lo, hi],
                      "counts": {str(n): c for n, c in sorted(counts.items())}})
    return _csv(["n", "count"], rows)


# --- parser --------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="aesq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, fmt_default="csv"):
        sp.add_argument("--format", choices=("csv", "json"), default=fmt_default)
        sp.add_argument("--out", default=None, help="output path; default stdout")

    sp = sub.add_parser("buchstab", help="delay-equation function values")
    sp.add_argument("--u", type=float, default=None, help="single evaluation point")
    sp.add_argument("--u-max", type=float, default=10.0)
    sp.add_argument("--step", type=float, default=1e-4)
    sp.add_argument("--emit-step", type=float, default=0.1, help="grid spacing of emitted rows")
    common(sp)
    sp.set_defaults(handler=_cmd_buchstab)

    sp = sub.add_parser("constants", help="sieve-constant report at one theta")
    sp.add_argument("--theta", type=float, required=True)
    sp.add_argument("--mode", choices=("upper_bound_omega", "solved_omega"), default="upper_bound_omega")
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--sigma-context", choices=("thm2", "thm3", "thm4_first", "thm5"), default=None,
                    help="report the sigma this theorem context selects instead of the C table")
    sp.add_argument("--s", type=int, default=None, help="number of squares (thm5 context)")
    common(sp, fmt_default="json")
    sp.set_defaults(handler=_cmd_constants)

    sp = sub.add_parser("figure1", help="11-row lower-bound table")
    sp.add_argument("--mode", choices=("upper_bound_omega", "solved_omega"), default="upper_bound_omega")
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--gnuplot-out", default=None, help="also write a gnuplot data file here")
    common(sp)
    sp.set_defaults(handler=_cmd_figure1)

    sp = sub.add_parser("singular-series", help="partial singular series with per-q terms")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--P", type=int, required=True)
    common(sp, fmt_default="json")
    sp.set_defaults(handler=_cmd_singular_series)

    sp = sub.add_parser("count", help="representation count for one target")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--H", default=None, help="'inf' or a number")
    sp.add_argument("--H-exp", type=float, default=None, help="H = n^exp")
    sp.add_argument("--unordered", action="store_true")
    common(sp, fmt_default="json")
    sp.set_defaults(handler=_cmd_count)

    sp = sub.add_parser("scan", help="exceptional-set scan over a window")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--X", type=int, required=True)
    sp.add_argument("--H", default=None, help="'inf' or a number")
    sp.add_argument("--H-exp", type=float, default=None, help="H = X^exp")
    sp.add_argument("--window", required=True, help="lo:hi")
    common(sp, fmt_default="json")
    sp.set_defaults(handler=_cmd_scan)

    sp = sub.add_parser("decomp-check", help="pointwise decomposition identities")
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--x", type=float, default=None)
    sp.add_argument("--z", type=float, default=None)
    sp.add_argument("--U", type=float, default=None)
    sp.add_argument("--V", type=float, default=None)
    sp.add_argument("--sqrt-x1", type=float, default=None)
    sp.add_argument("--lo", type=int, default=None)
    sp.add_argument("--hi", type=int, default=None)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes, capped at the CPU count; AESQ_THREADS overrides")
    common(sp, fmt_default="json")
    sp.set_defaults(handler=_cmd_decomp_check)

    sp = sub.add_parser("arcs", help="major-arc partition summary")
    sp.add_argument("--P", type=float, required=True)
    sp.add_argument("--Q", type=float, required=True)
    common(sp)
    sp.set_defaults(handler=_cmd_arcs)

    sp = sub.add_parser("window", help="per-n representation counts over a window")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--X", type=int, required=True)
    sp.add_argument("--H", default=None, help="'inf' or a number")
    sp.add_argument("--H-exp", type=float, default=None, help="H = X^exp")
    sp.add_argument("--window", required=True, help="lo:hi")
    common(sp)
    sp.set_defaults(handler=_cmd_window)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        text = args.handler(args)
        _write_atomic(text, args.out)
    except InfeasibleParametersError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ToleranceError, ConsistencyError) as e:
        print(f"tolerance: {e}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (AesqError, DomainError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
