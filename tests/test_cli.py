import contextlib
import csv
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fracplace.fraccore
from fracplace import FracSystem, load_system_file, simulate
from fracplace.cli import main

CHAIN_SPARSE = """\
fracsys 1
n 3
alpha 0.97
k 3
matrix sparse
2 1 1.3
3 2 0.7
end
"""

WORKED = """\
fracsys 1
n 2
alpha 0.5
k 2
matrix dense
0 1
0 0
end
"""

PATTERN_ONLY = """\
fracsys 1
n 3
alpha 1.1
matrix pattern
2 1
3 2
end
"""

BIG_SPARSE = """\
fracsys 1
n 600
alpha 0.97
matrix sparse
2 1 1.0
end
"""


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "fracplace", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode}\n{proc.stderr}")
    return proc


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain.fracsys"
    p.write_text(CHAIN_SPARSE)
    return str(p)


class TestPlace:
    def test_chain_places_sink_sensor(self, chain_file):
        proc = run_cli("place", chain_file, check=True)
        doc = json.loads(proc.stdout)
        assert doc["sensors"] == [3]
        assert doc["j_prime"] == [3]
        assert doc["condition_i"] and doc["condition_ii"]
        assert doc["beta"] == 1
        assert doc["k"] == 3

    def test_zero_horizon_uses_base_pattern_only(self, chain_file):
        proc = run_cli("place", chain_file, "--k", "0", check=True)
        doc = json.loads(proc.stdout)
        assert doc["k"] == 0
        assert doc["sensors"] == [3]

    def test_csv_format(self, chain_file):
        proc = run_cli("place", chain_file, "--format", "csv", check=True)
        header, row = proc.stdout.strip().splitlines()
        assert "sensors" in header.split(",")
        assert "3" in row.split(",")

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "bad.fracsys"
        p.write_text("this is not a system file\n")
        proc = run_cli("place", str(p))
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_repeated_dimension_line_exits_two(self, tmp_path):
        p = tmp_path / "twice.fracsys"
        p.write_text("fracsys 1\nn 3\nalpha 0.5\nn 2\nmatrix pattern\n2 1\nend\n")
        proc = run_cli("place", str(p))
        assert proc.returncode == 2
        assert "line 4: repeated 'n' line" in proc.stderr
        assert proc.stdout == ""

    def test_missing_file(self):
        proc = run_cli("place", "/nonexistent/x.fracsys")
        assert proc.returncode == 2

    def test_non_finite_tolerance_exits_two(self, chain_file, tmp_path):
        # a nan threshold would otherwise drop every entry of the pattern;
        # a pattern file, which needs no threshold, still rejects a bad one
        pattern_file = tmp_path / "pattern.fracsys"
        pattern_file.write_text(PATTERN_ONLY)
        for path in (chain_file, str(pattern_file)):
            for cmd in (["place", path], ["verify", path, "--sensors", "1"]):
                for tol in ("nan", "-1"):
                    proc = run_cli(*cmd, "--tol", tol)
                    assert proc.returncode == 2
                    assert "zero_tol" in proc.stderr


class TestVerify:
    def test_round_trip_from_place(self, chain_file):
        placed = json.loads(run_cli("place", chain_file, check=True).stdout)
        sensors = ",".join(str(s) for s in placed["sensors"])
        proc = run_cli("verify", chain_file, "--sensors", sensors)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["observable"] is True

    def test_insufficient_sensor_exits_one_with_witness(self, chain_file):
        proc = run_cli("verify", chain_file, "--sensors", "1")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["observable"] is False
        assert doc["non_accessible"] == [2, 3]

    def test_out_of_range_sensor_exits_two(self, chain_file):
        proc = run_cli("verify", chain_file, "--sensors", "99")
        assert proc.returncode == 2

    def test_unparseable_sensor_list(self, chain_file):
        proc = run_cli("verify", chain_file, "--sensors", "a,b")
        assert proc.returncode == 2

    def test_repeated_sensor_reported_once(self, chain_file):
        proc = run_cli("verify", chain_file, "--sensors", "3,3,1", check=True)
        assert json.loads(proc.stdout)["sensors"] == [1, 3]
        proc = run_cli("verify", chain_file, "--sensors", "3,3", "--format", "csv", check=True)
        row = next(csv.DictReader(io.StringIO(proc.stdout)))
        assert row["sensors"] == "3"


class TestSimulate:
    def test_worked_example(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(WORKED)
        x0 = tmp_path / "x0.txt"
        x0.write_text("0 1\n")
        proc = run_cli("simulate", str(sysf), "--x0", str(x0), "--steps", "2", check=True)
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "k,x1,x2"
        assert lines[1] == "0,0,1"
        assert lines[2] == "1,0,0"
        assert lines[3] == "2,0.125,0"

    def test_zero_initial_state(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(WORKED)
        x0 = tmp_path / "x0.txt"
        x0.write_text("0 0\n")
        proc = run_cli("simulate", str(sysf), "--x0", str(x0), check=True)
        for line in proc.stdout.strip().splitlines()[1:]:
            assert set(line.split(",")[1:]) == {"0"}

    def test_steps_beyond_horizon_exits_two(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(WORKED)
        x0 = tmp_path / "x0.txt"
        x0.write_text("0 1\n")
        proc = run_cli("simulate", str(sysf), "--x0", str(x0), "--steps", "5")
        assert proc.returncode == 2
        assert proc.stderr == (
            "fracplace: error: steps=5 exceeds horizon K=2; extend the horizon to simulate further\n"
        )

    def test_initial_state_length_mismatch_exits_two(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(WORKED)
        x0 = tmp_path / "x0.txt"
        x0.write_text("0 1 2\n")
        proc = run_cli("simulate", str(sysf), "--x0", str(x0))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "fracplace: error: x0 has 3 entries, expected 2\n"

    def test_pattern_only_file_rejected(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(PATTERN_ONLY)
        x0 = tmp_path / "x0.txt"
        x0.write_text("0 0 1\n")
        proc = run_cli("simulate", str(sysf), "--x0", str(x0))
        assert proc.returncode == 2
        assert "numeric" in proc.stderr

    def test_non_finite_matrix_value_exits_two(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(WORKED.replace("0 1\n", "0 nan\n"))
        x0 = tmp_path / "x0.txt"
        x0.write_text("0 1\n")
        proc = run_cli("simulate", str(sysf), "--x0", str(x0))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip() == "fracplace: error: line 6: matrix values must be finite"

    def test_non_finite_initial_state_exits_two(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(WORKED)
        x0 = tmp_path / "x0.txt"
        x0.write_text("nan inf\n")
        for fmt in ("csv", "json"):
            proc = run_cli("simulate", str(sysf), "--x0", str(x0), "--format", fmt)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == "fracplace: error: initial state values must be finite\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflowing_trajectory_exits_two(self, tmp_path, fmt):
        # x_k = 2^(k+1) for a scalar system with order 1 leaves float64 at k = 1023
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text("fracsys 1\nn 1\nalpha 1.0\nk 1100\nmatrix dense\n2.0\nend\n")
        x0 = tmp_path / "x0.txt"
        x0.write_text("1\n")
        proc = run_cli("simulate", str(sysf), "--x0", str(x0), "--format", fmt)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "fracplace: error: the trajectory overflows float64 at step 1023; "
            "lower the number of steps\n"
        )

    def test_output_is_the_library_trajectory(self, tmp_path):
        rng = np.random.default_rng(23)
        n = 5
        rows = [" ".join(repr(float(v)) for v in row) for row in rng.normal(0, 0.6, (n, n))]
        orders = " ".join(repr(float(a)) for a in rng.uniform(0.2, 2.5, n))
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(
            "\n".join(["fracsys 1", f"n {n}", f"alpha {orders}", "k 30", "matrix dense", *rows, "end"])
            + "\n"
        )
        x0 = tmp_path / "x0.txt"
        x0.write_text(" ".join(repr(float(v)) for v in rng.normal(size=n)))
        sysfile = load_system_file(str(sysf))
        states = simulate(
            FracSystem(sysfile.matrix, sysfile.alpha, sysfile.horizon),
            np.loadtxt(x0),
            30,
        ).states

        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(["k"] + [f"x{i + 1}" for i in range(n)])
        for k, row in enumerate(states):
            writer.writerow([k] + [f"{v:.17g}" for v in row])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(sysf), "--x0", str(x0)]) == 0
        assert out.getvalue() == want.getvalue()

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(sysf), "--x0", str(x0), "--format", "json"]) == 0
        assert json.loads(out.getvalue())["states"] == states.tolist()

    def test_csv_digits_match_per_value_formatting(self, tmp_path, monkeypatch):
        # each row goes through one %-format call; every value must get the
        # digits that _fmt gives it alone
        from fracplace.cli import _fmt

        n = 6
        special = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1e300, -1e-300,
                   3.0, -2.0, 1e16, 2.0**53, 1e-5, 123456789.0]
        rng = np.random.default_rng(41)
        states = np.array(special + rng.normal(size=5 * n).tolist() + (rng.normal(size=n) * 1e200).tolist())
        states = states.reshape(-1, n)

        class Trajectory:
            pass

        def fake_simulate(system, x0, steps):
            trajectory = Trajectory()
            trajectory.states = states
            return trajectory

        monkeypatch.setattr(fracplace.fraccore, "simulate", fake_simulate)
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(f"fracsys 1\nn {n}\nalpha 0.5\nmatrix sparse\nend\n")
        x0 = tmp_path / "x0.txt"
        x0.write_text("1 " * n)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(sysf), "--x0", str(x0)]) == 0
        want = ",".join(["k"] + [f"x{i + 1}" for i in range(n)]) + "\r\n"
        for k, row in enumerate(states.tolist()):
            want += f"{k}," + ",".join(map(_fmt, row)) + "\r\n"
        assert out.getvalue() == want
        assert "0,-0,0,4.9406564584124654e-324," in want and "1.0000000000000001e+300" in want

    def test_never_builds_transition_factors(self, tmp_path, monkeypatch):
        def refused(system):
            raise AssertionError("simulate built transition factors")

        monkeypatch.setattr(fracplace.fraccore, "transition_factors", refused)
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(CHAIN_SPARSE.replace("k 3", "k 2000"))
        x0 = tmp_path / "x0.txt"
        x0.write_text("1 0 0\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(sysf), "--x0", str(x0)]) == 0
        assert len(out.getvalue().splitlines()) == 2002

    def test_oversized_numeric_system_redirected(self, tmp_path):
        sysf = tmp_path / "big.fracsys"
        sysf.write_text(BIG_SPARSE)
        x0 = tmp_path / "x0.txt"
        x0.write_text(" ".join(["0"] * 600))
        proc = run_cli("simulate", str(sysf), "--x0", str(x0), "--steps", "1")
        assert proc.returncode == 2
        assert "structural" in proc.stderr

    def test_huge_horizon_fails_cleanly(self, tmp_path):
        # n = 64 with K = 700000 would need a 21 GiB factor stack
        rng = np.random.default_rng(7)
        n = 64
        rows = [" ".join(repr(float(v)) for v in row) for row in rng.normal(0, 0.1, (n, n))]
        sysf = tmp_path / "deep.fracsys"
        sysf.write_text(
            "\n".join(["fracsys 1", f"n {n}", "alpha 0.8", "k 700000", "matrix dense", *rows, "end"])
            + "\n"
        )
        x0 = tmp_path / "x0.txt"
        x0.write_text(" ".join(["1"] * n))
        base = ["simulate", str(sysf), "--x0", str(x0)]

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main([*base, "--steps", "1"]) == 0
        assert len(out.getvalue().splitlines()) == 3

        out, err = io.StringIO(), io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*base, "--steps", "700000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert err.getvalue().startswith("fracplace: error:")
        assert "Traceback" not in err.getvalue()
        assert out.getvalue() == ""
        assert peak < 64 * 2**20


class TestSweep:
    def test_seeded_runs_are_byte_identical(self):
        args = ("sweep", "--n", "12", "--levels", "0.2,0.6,0.9", "--trials", "4", "--seed", "5")
        a = run_cli(*args, check=True)
        b = run_cli(*args, check=True)
        assert a.stdout == b.stdout

    def test_header_and_shape(self):
        proc = run_cli("sweep", "--n", "8", "--levels", "0.5", "--trials", "3", check=True)
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "sparsity,trial,n_sensors,beta,K"
        assert len(lines) == 4

    def test_base_matrix_clamp_warns(self, tmp_path, chain_file):
        # chain has 2 nonzeros; density 1.0 asks for 9
        proc = run_cli("sweep", "--base", chain_file, "--levels", "0.0", "--trials", "1")
        assert proc.returncode == 0
        assert "clamp" in proc.stderr.lower()

    def test_requires_source(self):
        proc = run_cli("sweep", "--levels", "0.5")
        assert proc.returncode == 2

    def test_level_out_of_range(self):
        proc = run_cli("sweep", "--n", "6", "--levels", "1.0")
        assert proc.returncode == 2

    def test_nonpositive_dimension_exits_two(self):
        for n in ("0", "-3"):
            proc = run_cli("sweep", "--n", n, "--levels", "0.5")
            assert proc.returncode == 2
            assert proc.stderr == "fracplace: error: state dimension must be positive\n"
            assert proc.stdout == ""

    def test_no_tolerance_option(self, chain_file):
        # the sweep thresholds by entry count, so a zero threshold has no use
        proc = run_cli("sweep", "--base", chain_file, "--levels", "0.0", "--tol", "5")
        assert proc.returncode == 2
        assert "--tol" in proc.stderr


class TestSweepScript:
    """``scripts/run_sweep.py`` goes through ``fracplace sweep``."""

    script = str(Path(__file__).resolve().parents[1] / "scripts" / "run_sweep.py")
    args = ("--n", "10", "--levels", "0.5,0.9", "--trials", "3", "--seed", "4")

    def run_script(self, *args):
        return subprocess.run([sys.executable, self.script, *args], capture_output=True)

    def test_csv_is_byte_identical_to_the_cli(self, tmp_path):
        cli = subprocess.run(
            [sys.executable, "-m", "fracplace", "sweep", *self.args, "--format", "csv"],
            capture_output=True,
        )
        assert cli.returncode == 0
        out = tmp_path / "sweep.csv"
        to_file = self.run_script(*self.args, "--out", str(out))
        assert to_file.returncode == 0
        assert out.read_bytes() == cli.stdout
        assert b"per-level mean sensor count" in to_file.stderr
        to_stdout = self.run_script(*self.args)
        assert to_stdout.returncode == 0
        assert to_stdout.stdout == cli.stdout

    def test_bad_input_exits_two_with_one_line(self, tmp_path):
        pattern_only = tmp_path / "pattern.fracsys"
        pattern_only.write_text(PATTERN_ONLY)
        for args in (("--n", "6", "--levels", "0.5,1.0"), ("--base", str(pattern_only))):
            proc = self.run_script(*args)
            assert proc.returncode == 2
            assert proc.stdout == b""
            lines = proc.stderr.decode().splitlines()
            assert len(lines) == 1 and lines[0].startswith("fracplace: error:")


class TestImports:
    def test_runtime_does_not_import_scipy(self):
        code = "import sys, fracplace.cli, fracplace; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_structural_commands_do_not_import_numpy(self, tmp_path):
        # place and verify print no floats: numpy and the test oracles stay unloaded
        pattern_file = tmp_path / "pattern.fracsys"
        pattern_file.write_text(PATTERN_ONLY)
        dense_file = tmp_path / "dense.fracsys"
        dense_file.write_text(WORKED)
        code = f"""
import contextlib, io, sys
import fracplace, fracplace.cli
loaded = lambda: sorted({{"numpy", "fracplace.oracle"}} & set(sys.modules))
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    for path in ({str(pattern_file)!r}, {str(dense_file)!r}):
        assert fracplace.cli.main(["place", path]) == 0
        assert fracplace.cli.main(["verify", path, "--sensors", "1,2"]) in (0, 1)
print(loaded())
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == ["[]", "[]", ""]

    def test_every_public_name_resolves(self):
        code = (
            "import fracplace\n"
            "for name in fracplace.__all__:\n"
            "    assert getattr(fracplace, name) is not None, name\n"
            "ns = {}\n"
            "exec('from fracplace import *', ns)\n"
            "assert set(fracplace.__all__) <= set(ns), set(fracplace.__all__) - set(ns)\n"
            "assert set(fracplace.__all__) <= set(dir(fracplace))\n"
            "assert not hasattr(fracplace, 'no_such_name')\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
