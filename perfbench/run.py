"""Benchmark of the `aesq` command-line tool.

Usage: python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

A workload is a fixed list of `python -m aesq.cli` invocations made from
--seed (see workloads.py).  One client runs them in a closed loop, one
invocation at a time, each in a fresh interpreter as a user would, and
checks every output.

--trace 0 runs the workload's invocations in turn, over and over, for about
--seconds (every invocation at least once).  After each invocation one
`<subcommand> --help` is timed, so set-up samples are spread over the run
as the work is.  It reports the end-to-end metrics named in BENCHMARK.json:
  wall_s       wall time of one pass over the invocations: the sum over
               the invocations of the median of each one's samples
  cpu_s        the same for user + system CPU of the children
  peak_rss_mb  the largest, over the invocations, of the median peak RSS
               of each one's samples (ru_maxrss of that child, from wait4)
  setup_s      median wall time of one `<subcommand> --help` invocation
The three times are given at the host's reference speed: speed_probe.py
samples how fast the child's CPU runs during the run, and they are scaled
by its SpeedProbe.scale().  The measured times are printed too.
--trace 1 runs the workload once untraced, then TRACE_REPEATS times under
trace_child.py, and reports the per-layer metrics of BENCHMARK.json.
Counts must repeat exactly across the traced repeats, and the layers' self
times must cover MIN_COVERAGE of the traced wall time.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  attempted and failed
count invocations, so fail_frac = failed / attempted.  With --workload all
every workload runs in turn (end-to-end, and per-layer too with --trace 1),
and metric names are prefixed with the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed_probe import SpeedProbe
from workloads import CLI, HERE, ROOT, WORKLOADS, child_env

#: Traced passes per --trace 1 run; their counts must agree exactly.
TRACE_REPEATS = 2
#: Share of the traced wall time the per-layer self times must cover.
MIN_COVERAGE = 0.9
#: Every child is stopped once a run has taken this long (the limit is 180 s).
RUN_DEADLINE_S = 170.0
#: Units of metrics that must repeat exactly between traced passes.
EXACT_UNITS = ("count", "B")


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes

    @property
    def ok(self) -> bool:
        return self.returncode == 0 and b"Traceback" not in self.stderr


def run_child(argv: list[str], tmp: Path, deadline: float, probe: SpeedProbe | None) -> Child:
    """Run one child to completion; its resource use comes from wait4, so
    it is this child's own, not a maximum over every child reaped so far."""
    with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        if probe is not None:
            probe.pid = proc.pid
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            if probe is not None:
                probe.pid = None
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, out.read(), err.read())


class Run:
    """One workload measured once: the numbers and the problems found."""

    def __init__(self, name: str, seed: int, tmp: Path):
        self.name, self.seed, self.tmp = name, seed, tmp
        self.case = WORKLOADS[name](seed)
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.lines: list[str] = []
        self.probe: SpeedProbe | None = None

    def child(self, argv: list[str]) -> Child:
        return run_child(argv, self.tmp, self.deadline, self.probe)

    def one_pass(self) -> list[Child]:
        return [self.child(CLI + cmd) for cmd in self.case.commands]

    def record(self, runs: list[tuple[int, Child]], expected: list[bytes] | None) -> list[bytes]:
        """Count runs of the workload's commands (index, child) and their
        problems.  `expected` are the already checked outputs of every
        command, by index; None runs the checks on a whole pass instead."""
        cmds = self.case.commands
        outputs = [c.stdout for _, c in runs]
        bad = [not c.ok for _, c in runs]
        problems = [f"`{' '.join(cmds[k])}` exited {c.returncode}: {c.stderr.decode()[-500:]}"
                    for k, c in runs if not c.ok]
        if not problems and expected is None:
            try:
                problems = self.case.check(outputs, max(1.0, self.deadline - perf_counter()))
            except (ValueError, subprocess.TimeoutExpired) as e:
                problems = [f"output could not be checked: {e}"]
            bad = [bool(problems)] * len(runs)
        elif not problems:
            bad = [c.stdout != expected[k] for k, c in runs]
            problems = [f"`{' '.join(cmds[k])}` printed other output than its first run"
                        for (k, _), b in zip(runs, bad) if b]
        self.attempted += len(runs)
        self.failed += sum(bad)
        self.problems += problems
        return outputs

    def setup_sample(self, cmd: list[str]) -> float:
        c = self.child(CLI + [cmd[0], "--help"])
        if c.returncode:
            self.problems.append(f"{cmd[0]} --help exited {c.returncode}")
        return c.wall_s

    def end_to_end(self, seconds: float, spec: dict) -> None:
        self.probe = SpeedProbe()
        with self.probe:
            samples, setup, elapsed = self.timed_runs(seconds)
        expected = self.record(list(enumerate(runs[0] for runs in samples)), None)
        for k, runs in enumerate(samples):
            for c in runs[1:]:
                self.record([(k, c)], expected)

        def median(field):
            return [statistics.median(getattr(c, field) for c in runs) for runs in samples]

        measured = {
            "wall_s": sum(median("wall_s")),
            "cpu_s": sum(median("cpu_s")),
            "setup_s": statistics.median(setup),
        }
        scale = self.probe.scale()
        values = {k: v * scale for k, v in measured.items()}
        values["peak_rss_mb"] = max(median("maxrss_mb"))
        self.lines.append(f"{self.name} seed={self.seed}: {sum(map(len, samples))} invocation(s) "
                          f"in {elapsed:.1f} s, runs per command {[len(runs) for runs in samples]}; "
                          f"setup_s is the median of {len(setup)} --help samples")
        self.lines.append(f"  times at the reference speed: measured x {scale:.4f}, from "
                          f"{len(self.probe.samples)} speed-probe samples; measured "
                          + ", ".join(f"{k} {v:.4f} s" for k, v in measured.items()))
        for m in spec["end_to_end"]:
            self.metrics[m["name"]] = (values[m["name"]], m["unit"])
        self.metrics_lines(spec["end_to_end"])
        self.lines.append(f"  {'fail_frac':<50} {self.failed:>14d} / {self.attempted}")

    def timed_runs(self, seconds: float) -> tuple[list[list[Child]], list[float], float]:
        """Run the commands in turn for about `seconds`: each command's runs,
        the --help times and the time taken."""
        cmds = self.case.commands
        # untimed: the first start in a checkout also compiles the bytecode
        self.setup_sample(cmds[0])
        samples: list[list[Child]] = [[] for _ in cmds]
        setup: list[float] = []
        start = perf_counter()

        def run(k: int) -> None:
            samples[k].append(self.child(CLI + cmds[k]))
            setup.append(self.setup_sample(cmds[k]))

        def fits(k: int) -> bool:
            """Would command k and its --help end within the run?"""
            typical = statistics.median(c.wall_s for c in samples[k]) + statistics.median(setup)
            now = perf_counter()
            return now - start + typical <= seconds and now + typical <= self.deadline

        n = len(cmds)
        for k in range(n):
            run(k)
        while True:
            # the next command in turn that still fits; none left ends the run
            k = next((j % n for j in range(k + 1, k + 1 + n) if fits(j % n)), None)
            if k is None:
                break
            run(k)
        return samples, setup, perf_counter() - start

    def traced(self, spec: dict) -> None:
        untraced = self.one_pass()
        expected = self.record(list(enumerate(untraced)), None)
        layers = []
        for r in range(TRACE_REPEATS):
            children, docs = [], []
            for i, cmd in enumerate(self.case.commands):
                run_id = f"{self.name}-seed{self.seed}-pass{r}-cmd{i}"
                spans = self.tmp / f"spans-{run_id}.json"
                children.append(self.child([sys.executable, str(HERE / "trace_child.py"),
                                            str(spans), run_id, *cmd]))
                docs.append(json.loads(spans.read_text()) if spans.exists() else None)
            self.record(list(enumerate(children)), expected)
            if None in docs:
                self.problems.append("a traced child wrote no spans")
                return
            layers.append(layer_metrics(docs, children))
        untraced_wall = sum(c.wall_s for c in untraced)
        listed = [m["name"] for m in spec["per_layer"]]
        for m in layers:
            covered = sum(m.get(k, 0) for k in listed if k.endswith(".self_s") or k == "cli.import_s")
            m["trace.coverage"] = covered / m["trace.wall_s"]
            m["trace.overhead_s"] = m["trace.wall_s"] - untraced_wall
            if m["trace.coverage"] < MIN_COVERAGE:
                self.problems.append(f"per-layer self times cover {m['trace.coverage']:.1%} "
                                     f"of traced wall time, below {MIN_COVERAGE:.0%}")
        for m in spec["per_layer"]:
            name, unit = m["name"], m["unit"]
            values = [layer.get(name, 0) for layer in layers]
            if unit not in EXACT_UNITS:
                self.metrics[name] = (statistics.median(values), unit)
                continue
            if len(set(values)) > 1:
                self.problems.append(f"{name} drifted between traced passes: {values}")
            self.metrics[name] = (int(values[0]), unit)
        self.lines.append(f"{self.name} seed={self.seed}: per-layer metrics, medians of "
                          f"{TRACE_REPEATS} traced passes; untraced wall {untraced_wall:.3f} s")
        self.metrics_lines(spec["per_layer"])

    def metrics_lines(self, names: list[dict]) -> None:
        for m in names:
            value, unit = self.metrics[m["name"]]
            shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
            self.lines.append(f"  {m['name']:<50} {shown} {unit}")


def layer_metrics(docs: list[dict], children: list[Child]) -> dict[str, float]:
    """Per-layer calls, self times and counts of one traced pass.

    A span's self time is its duration minus its child spans and the
    aggregated hot calls made directly under it."""
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for doc in docs:
        spans = doc["spans"]
        children_s = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] is not None:
                children_s[sp["parent"]] += sp["end"] - sp["start"]
        for sp, inner in zip(spans, children_s):
            duration = sp["end"] - sp["start"]
            if sp["name"] == "cli.import":
                add("cli.import_s", duration)
                continue
            add(sp["name"] + ".calls", 1)
            add(sp["name"] + ".self_s", duration - inner - sp["hot_s"])
        for name, (calls, seconds) in doc["hot"].items():
            add(name + ".calls", calls)
            add(name + ".self_s", seconds)
        for name, value in doc["counts"].items():
            m[name] = max(m.get(name, 0), value) if name.endswith("_max") else m.get(name, 0) + value
    m["constants.omega_evals"] = m.get("buchstab.omega.calls", 0) + m.get("buchstab.omega_upper.calls", 0)
    m["cli.output_bytes"] = sum(len(c.stdout) for c in children)
    m["trace.wall_s"] = sum(c.wall_s for c in children)
    return m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "aesq" / "cli.py").is_file():
        print(f"error: no aesq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name in names:
            modes = ["e2e", "trace"] if args.workload == "all" and args.trace else \
                ["trace" if args.trace else "e2e"]
            for mode in modes:
                run = Run(name, args.seed, tmp)
                if mode == "e2e":
                    run.end_to_end(args.seconds, spec)
                else:
                    run.traced(spec)
                runs.append(run)
                print("\n".join(run.lines), flush=True)
                for problem in run.problems:
                    print(f"  FAIL {problem}", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    prefix = args.workload == "all"
    result = {
        "correct": all(not r.problems for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {
            (f"{r.name}.{k}" if prefix else k): {"value": v, "unit": u}
            for r in runs for k, (v, u) in r.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
