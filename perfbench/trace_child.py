"""Run one `aesq` CLI invocation with timing wrappers around each layer.

Usage: python trace_child.py SPANS_OUT RUN_ID CLI_ARG...

The wrappers are installed from outside: each public function is replaced
under the name its caller looks it up by, so nothing in `src/` changes.
Most calls become spans (name, start, end, parent, run id).  Functions
called hundreds of thousands of times per run only get an aggregated call
count and total time, which is subtracted from the enclosing span's self
time.  Everything stays in memory until the invocation ends; then one JSON
document is written to SPANS_OUT.  The CLI's stdout is left untouched.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[list] = []  # open frames: [span index, hot seconds]
        self.hot: dict[str, list] = {}  # name -> [calls, seconds]
        self.counts: dict[str, int] = {}

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span.  `name` may be a function of the call's
        arguments; `before(args)` and `after(result)` record counts."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = {
                "name": name(args) if callable(name) else name,
                "parent": stack[-1][0] if stack else None,
                "run": self.run_id,
            }
            frame = [len(spans), 0.0]
            spans.append(rec)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec.update(start=start, end=end, hot_s=frame[1])
            if after is not None:
                after(result)
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        """Wrap a hot function: count calls and total time only."""
        stats = self.hot.setdefault(name, [0, 0.0])
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stats[0] += 1
                stats[1] += dt
                if stack:
                    stack[-1][1] += dt

        return wrapper


def _fft_len(weights, s: int) -> int:
    """Padded transform length window_counts uses: the next power of two
    at least s*(len-1)+1.  Computed here from the call's arguments."""
    out_len = s * (len(weights.counts) - 1) + 1
    return 1 << max(0, out_len - 1).bit_length()


def install(tr: Tracer) -> None:
    from aesq import buchstab, circle, constants, decomposition, local, primes, representations

    def wrap(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    wrap(primes, "primes_in", lambda f: tr.span("primes.primes_in", f))
    wrap(primes, "primes_upto", lambda f: tr.span("primes.primes_upto", f))

    # a classmethod: wrap the bound method, re-bind as a classmethod
    from_primes = tr.span("circle.CoeffVector.from_primes", circle.CoeffVector.from_primes)
    circle.CoeffVector.from_primes = classmethod(lambda cls, *a, **k: from_primes(*a, **k))

    def on_window_counts(args):
        n = _fft_len(*args[:2])
        tr.count("circle.fft_len_sum", n)
        tr.counts["circle.fft_len_max"] = max(tr.counts.get("circle.fft_len_max", 0), n)

    # imported at call time by representations._window_rep_counts
    wrap(circle, "window_counts", lambda f: tr.span("circle.window_counts", f, before=on_window_counts))

    wrap(representations, "exceptional_scan", lambda f: tr.span(
        "representations.exceptional_scan", f,
        after=lambda rep: tr.count("representations.exceptions", len(rep.exceptions)),
    ))
    wrap(representations, "enumerate_representations",
         lambda f: tr.span("representations.enumerate_representations", f))
    wrap(representations, "is_H", lambda f: tr.aggregate("local.is_H", f))

    wrap(local, "a_term", lambda f: tr.span("local.a_term", f))
    wrap(local, "singular_series_partial", lambda f: tr.span("local.singular_series_partial", f))

    wrap(constants, "sieve_integral",
         lambda f: tr.span(lambda args: f"constants.sieve_integral.{args[0].kind}", f))
    wrap(constants, "omega_upper", lambda f: tr.aggregate("buchstab.omega_upper", f))
    wrap(buchstab, "solve_buchstab", lambda f: tr.span("buchstab.solve_buchstab", f))
    wrap(buchstab, "omega", lambda f: tr.aggregate("buchstab.omega", f))

    wrap(decomposition, "verify_interval", lambda f: tr.span(
        "decomposition.verify_interval", f,
        after=lambda rep: tr.count("decomposition.checked", rep.checked),
    ))


def main(argv: list[str]) -> int:
    spans_out, run_id, cli_args = argv[0], argv[1], argv[2:]
    tr = Tracer(run_id)
    code = 1
    try:
        t0 = perf_counter()
        from aesq import cli

        tr.spans.append({"name": "cli.import", "parent": None, "run": run_id,
                         "start": t0, "end": perf_counter(), "hot_s": 0.0})
        install(tr)
        code = tr.span("cli.main", cli.main)(cli_args)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"run": run_id, "spans": tr.spans, "hot": tr.hot, "counts": tr.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
