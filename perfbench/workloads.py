"""The benchmark workloads: CLI invocations made from a seed, and the checks
their outputs must pass.

Seed 0 gives the reference inputs, whose outputs are compared byte for byte
with recorded files.  Other seeds move the scan window and the decomposition
interval without changing their size; those outputs are checked by what can
be proved independently of the code paths being timed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

#: How every child starts the program: a fresh interpreter running the CLI.
CLI = [sys.executable, "-m", "aesq.cli"]

SCAN_X = 10_000_000
SCAN_H_EXP = "0.35"
SCAN_WINDOW = (9_900_000, 10_100_000)
#: Seeds move the scan window by 24*k with |k| <= SCAN_SHIFT_STEPS.  Whole
#: periods of 24 keep the number of scanned targets; staying within 1,536
#: keeps the number of convolution pieces, so every seed does the same work.
SCAN_SHIFT_STEPS = 64

#: decomp-check --theta 0.9 --x 1e6 checks the integers in (lo, hi].
DECOMP_INTERVAL = (748_811, 1_251_188)
#: Seeds move that interval down by up to this much.  It may not move up:
#: hi is already x1 = x + x^theta, the top of the decomposition's range.
DECOMP_SHIFT_MAX = 50_000

TABLES = (
    (["figure1", "--tol", "1e-7"], "figure1-upper.csv"),
    (["figure1", "--tol", "1e-7", "--mode", "solved_omega"], "figure1-solved.csv"),
    (["singular-series", "--n", "100", "--s", "4", "--P", "1024"], "singular-series-n100-s4-P1024.json"),
)


def child_env() -> dict[str, str]:
    """The environment of every child: this checkout's `src` on the import
    path, and nothing that changes how the program runs (no AESQ_THREADS,
    which would override --threads, and no inherited PYTHON* settings)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "AESQ_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass(frozen=True)
class Case:
    """One workload at one seed."""

    commands: list[list[str]]  # CLI arguments of each invocation, run in order
    check: Callable[[list[bytes], float], list[str]]  # (outputs, timeout) -> problems


def _same_bytes(out: bytes, path: Path) -> list[str]:
    return [] if out == path.read_bytes() else [f"output differs from {path.relative_to(ROOT)}"]


def _fields(out: bytes, expected: dict) -> list[str]:
    """Fields of a JSON object output that differ from `expected`; raises
    ValueError when the output is not a JSON object."""
    doc = json.loads(out)
    if not isinstance(doc, dict):
        raise ValueError("output is not a JSON object")
    return [f"{k} is {doc.get(k)!r}, expected {v!r}" for k, v in expected.items() if doc.get(k) != v]


def _scan(seed: int) -> Case:
    steps = random.Random(seed).randint(-SCAN_SHIFT_STEPS, SCAN_SHIFT_STEPS) if seed else 0
    lo, hi = (end + 24 * steps for end in SCAN_WINDOW)
    args = ["scan", "--s", "4", "--X", str(SCAN_X), "--H-exp", SCAN_H_EXP,
            "--window", f"{lo}:{hi}", "--format", "json"]
    # targets are the n = 4 (mod 24) in [lo, hi]
    targets = (hi - 4) // 24 - (lo - 1 - 4) // 24

    def check(outputs: list[bytes], timeout: float) -> list[str]:
        (out,) = outputs
        report = ROOT / "reports" / f"scan-s4-X1e7-Hexp{SCAN_H_EXP}.json"
        problems = [] if steps else _same_bytes(out, report)
        problems += _fields(out, {"X": SCAN_X, "s": 4, "window": [lo, hi], "scanned_count": targets})
        verify = subprocess.run(
            [sys.executable, str(HERE / "verify_scan.py"), SCAN_H_EXP, str(seed)],
            input=out, capture_output=True, env=child_env(), timeout=timeout,
        )
        problems += verify.stdout.decode().splitlines()
        if verify.returncode and not verify.stdout:
            problems.append(f"verify_scan.py exited {verify.returncode}: {verify.stderr.decode()[-500:]}")
        return problems

    return Case([args], check)


def _decomp_tables(seed: int) -> Case:
    """decomp-check, then the three table commands.  The seed moves only the
    decomposition interval: every table input is fixed."""
    shift = random.Random(seed).randint(0, DECOMP_SHIFT_MAX) if seed else 0
    lo, hi = (end - shift for end in DECOMP_INTERVAL)
    decomp = ["decomp-check", "--theta", "0.9", "--x", "1e6"]
    if shift:
        decomp += ["--lo", str(lo), "--hi", str(hi)]

    def check(outputs: list[bytes], timeout: float) -> list[str]:
        out, *tables = outputs
        problems = [] if shift else _same_bytes(out, REFERENCE / "decomp-x1e6.json")
        problems += _fields(out, {"ok": True, "failures": [], "interval": [lo, hi], "checked": hi - lo})
        return problems + [p for out, (_, ref) in zip(tables, TABLES) for p in _same_bytes(out, REFERENCE / ref)]

    return Case([decomp] + [args for args, _ in TABLES], check)


#: Each workload's name and the function that makes its Case from a seed.
WORKLOADS: dict[str, Callable[[int], Case]] = {
    "scan-h035": _scan,
    "decomp-tables": _decomp_tables,
}
