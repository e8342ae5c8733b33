"""Re-check a `scan` result without the FFT path.

Usage: python verify_scan.py H_EXP SEED < SCAN_JSON

Every reported exception, and a seed-chosen sample of the other scanned
targets, is re-counted with the meet-in-the-middle
`representations.count_representations`.  Exceptions must count 0 and the
sampled targets at least 1.  Prints one line per problem and exits 1 if
there is any.
"""

from __future__ import annotations

import json
import random
import sys

from aesq.representations import RepQuery, count_representations

SAMPLE = 32


def problems(scan: dict, h_exp: float, seed: int) -> list[str]:
    X, s = scan["X"], scan["s"]
    lo, hi = scan["window"]
    H = float(X) ** h_exp
    if scan["H"] != H:
        return [f"H is {scan['H']!r}, expected {H!r}"]
    exceptions = set(scan["exceptions"])
    out = [f"exception {n} counts {c}" for n in sorted(exceptions)
           if (c := count_representations(RepQuery(n=n, s=s, H=H)))]
    # the local class for s = 4: n = 4 (mod 24)
    others = [n for n in range(lo, hi + 1) if n % 24 == s % 24 and n not in exceptions]
    for n in random.Random(seed).sample(others, min(SAMPLE, len(others))):
        if count_representations(RepQuery(n=n, s=s, H=H)) == 0:
            out.append(f"target {n} has no representation but is not listed")
    return out


def main(argv: list[str]) -> int:
    found = problems(json.load(sys.stdin), float(argv[0]), int(argv[1]))
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
