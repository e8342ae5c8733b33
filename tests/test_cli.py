import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import aesq
from aesq import cli, local, representations


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def load_schema(name):
    with resources.files("aesq.schemas").joinpath(name).open() as fh:
        return json.load(fh)


class TestBuchstabCommand:
    def test_single_value(self, capsys):
        rc, out = run_cli(capsys, "buchstab", "--u", "2.5")
        assert rc == 0
        assert float(out) == pytest.approx((1 + math.log(1.5)) / 2.5, abs=1e-7)

    def test_table_has_header(self, capsys):
        rc, out = run_cli(capsys, "buchstab", "--u-max", "4", "--emit-step", "1.0")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "u,omega,upper_bound"
        assert len(lines) > 2


class TestScanCommand:
    def test_json_matches_schema(self, capsys):
        rc, out = run_cli(capsys, "scan", "--s", "5", "--X", "40", "--H", "inf",
                          "--window", "20:60", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        jsonschema.validate(obj, load_schema("scan.json"))
        assert obj["exceptions"] == [29, 53]

    def test_csv_rows(self, capsys):
        rc, out = run_cli(capsys, "scan", "--s", "5", "--X", "200", "--H", "inf",
                          "--window", "20:300", "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "n,in_H,rep_count"
        assert len(lines) == 282
        for n, line in zip(range(20, 301), lines[1:]):
            member = local.is_H(n, 5)
            count = representations.count_representations(representations.RepQuery(n, 5)) if member else 0
            assert line == f"{n},{int(member)},{count}"

    def test_tie_scan_agrees_with_oracle(self, capsys):
        # p = 5 is admissible from n = 362 on (the float 1.2 is below 6/5);
        # 361 has no representation, 385 has C(25, 15)
        rc, out = run_cli(capsys, "scan", "--s", "25", "--X", "364", "--H", "1.2",
                          "--window", "342:386", "--format", "json")
        assert rc == 0
        assert json.loads(out)["exceptions"] == [361]
        rc, out = run_cli(capsys, "window", "--s", "25", "--X", "100", "--H", "0.2",
                          "--window", "100:121")
        assert rc == 0
        assert out.splitlines()[1] == "100,1"

    def test_non_finite_H_exits_usage(self, capsys):
        rc, _ = run_cli(capsys, "count", "--n", "100", "--s", "4", "--H", "1e400")
        assert rc == cli.EXIT_USAGE

    def test_h_exponent(self, capsys):
        rc, out = run_cli(capsys, "scan", "--s", "4", "--X", "1000", "--H-exp", "0.5",
                          "--window", "990:1010", "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert obj["H"] == pytest.approx(1000**0.5)


class TestRecordedReports:
    """The scans in reports/ reproduce byte for byte (commands in its README)."""

    @pytest.mark.parametrize("h_exp", ["0.35", "0.40", "0.45"])
    def test_scan_reproduces(self, h_exp, tmp_path, capsys):
        recorded = Path(__file__).resolve().parent.parent / "reports" / f"scan-s4-X1e7-Hexp{h_exp}.json"
        out = tmp_path / recorded.name
        rc, _ = run_cli(capsys, "scan", "--s", "4", "--X", "10000000", "--H-exp", h_exp,
                        "--window", "9900000:10100000", "--format", "json", "--out", str(out))
        assert rc == 0
        assert out.read_bytes() == recorded.read_bytes()


class TestSingularSeriesCommand:
    def test_schema(self, capsys):
        rc, out = run_cli(capsys, "singular-series", "--n", "100", "--s", "4", "--P", "20")
        assert rc == 0
        obj = json.loads(out)
        jsonschema.validate(obj, load_schema("singular-series.json"))
        assert len(obj["terms"]) == 20


class TestDecompCheckCommand:
    def test_schema_and_result(self, capsys):
        rc, out = run_cli(capsys, "decomp-check", "--z", "3", "--U", "10", "--V", "30",
                          "--sqrt-x1", "50", "--lo", "50", "--hi", "500")
        assert rc == 0
        obj = json.loads(out)
        jsonschema.validate(obj, load_schema("decomp-check.json"))
        assert obj["ok"] is True
        assert obj["failures"] == []

    def test_parameter_validation(self, capsys):
        rc, _ = run_cli(capsys, "decomp-check", "--z", "3", "--U", "10")
        assert rc == 1


class TestCountCommand:
    def test_known(self, capsys):
        rc, out = run_cli(capsys, "count", "--n", "125", "--s", "5")
        assert rc == 0
        assert json.loads(out)["count"] == 11


class TestConstantsCommand:
    def test_report(self, capsys):
        rc, out = run_cli(capsys, "constants", "--theta", "0.95", "--tol", "1e-5")
        assert rc == 0
        obj = json.loads(out)
        assert obj["C"] == pytest.approx(0.363, abs=0.003)

    def test_infeasible_exit_code(self, capsys):
        rc, _ = run_cli(capsys, "constants", "--theta", "0.78",
                        "--sigma-context", "thm5", "--s", "6")
        assert rc == 2

    def test_feasible_sigma(self, capsys):
        rc, out = run_cli(capsys, "constants", "--theta", "0.9",
                          "--sigma-context", "thm5", "--s", "8")
        assert rc == 0
        assert json.loads(out)["sigma"] == pytest.approx(0.9 - 31 / 40)


class TestArcsWindowCommands:
    def test_arcs_csv(self, capsys):
        rc, out = run_cli(capsys, "arcs", "--P", "4", "--Q", "32")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "q,a,center,half_width"
        assert len(lines) == 1 + 1 + 1 + 2 + 2  # header + phi(1..4)

    def test_window_csv(self, capsys):
        rc, out = run_cli(capsys, "window", "--s", "4", "--X", "100", "--H", "inf",
                          "--window", "98:102")
        assert rc == 0
        rows = dict(
            line.split(",") for line in out.splitlines()[1:]
        )
        assert rows["100"] == "1"


class TestOutputContract:
    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["no-such-command"]) == 1

    def test_atomic_out_file(self, tmp_path, capsys):
        target = tmp_path / "scan.json"
        rc, _ = run_cli(capsys, "scan", "--s", "5", "--X", "40", "--H", "inf",
                        "--window", "20:60", "--out", str(target))
        assert rc == 0
        assert json.loads(target.read_text())["exceptions"] == [29, 53]
        assert list(tmp_path.iterdir()) == [target]

    def test_byte_identical_across_threads(self, tmp_path):
        outs = []
        for threads in ("1", "4"):
            r = subprocess.run(
                [sys.executable, "-m", "aesq.cli", "decomp-check", "--z", "3",
                 "--U", "10", "--V", "30", "--sqrt-x1", "50",
                 "--lo", "50", "--hi", "2000"],
                capture_output=True, check=True,
                env={"PATH": "/usr/bin:/bin", "AESQ_THREADS": threads,
                     "PYTHONPATH": os.path.dirname(os.path.dirname(aesq.__file__))},
            )
            outs.append(r.stdout)
        assert outs[0] == outs[1]

    def test_consistency_failure_exit_code(self, monkeypatch, capsys):
        # the oracle reports a representation for every scanner exception
        monkeypatch.setattr(representations, "enumerate_representations",
                            lambda n, s, primes: [(2,) * s])
        rc, out = run_cli(capsys, "scan", "--s", "5", "--X", "40", "--H", "inf",
                          "--window", "20:60")
        assert rc == 3
        assert out == ""

    def test_twelve_significant_digits(self, capsys):
        rc, out = run_cli(capsys, "figure1", "--tol", "1e-4")
        assert rc == 0
        cell = out.splitlines()[-1].split(",")[0]
        assert cell == "0.888888888889"


COLD_START = """
import contextlib, io, sys
from aesq import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

run("--help")
run("scan", "--help")
run("scan", "--s", "5", "--X", "40", "--H", "inf", "--window", "20:60")
run("window", "--s", "4", "--X", "1000", "--H", "6", "--window", "990:1010")
run("count", "--n", "125", "--s", "5", "--H", "1")
run("decomp-check", "--z", "3", "--U", "10", "--V", "30", "--sqrt-x1", "50", "--lo", "50", "--hi", "500")
run("singular-series", "--n", "100", "--s", "4", "--P", "16")
run("arcs", "--P", "12", "--Q", "288")
run("buchstab", "--u", "2.5")
print("scipy" in sys.modules)
run("figure1", "--tol", "1e-4")
print("scipy" in sys.modules)
"""


class TestColdStart:
    def test_scipy_loaded_only_to_integrate(self):
        # a fresh interpreter: scipy is left unloaded by every command but
        # the ones that integrate, of which figure1 is one
        r = subprocess.run(
            [sys.executable, "-c", COLD_START], capture_output=True, text=True, check=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": os.path.dirname(os.path.dirname(aesq.__file__))},
        )
        assert r.stdout.split() == ["False", "True"]

