import argparse
import ast
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

    def test_repeated_entry_exits_two(self, tmp_path):
        p = tmp_path / "twice.fracsys"
        p.write_text(CHAIN_SPARSE.replace("2 1 1.3\n", "2 1 1.3\n2 1 0.0\n"))
        proc = run_cli("place", str(p))
        assert proc.returncode == 2
        assert "line 7: entry (2, 1) given twice" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("number", ["1_0", "\u0663"], ids=["underscore", "arabic-indic-digit"])
    def test_number_int_would_take_exits_two(self, tmp_path, number):
        # int() reads '1_0' as 10 and an Arabic-Indic three as 3; the format takes ASCII decimals
        p = tmp_path / "spelled.fracsys"
        p.write_text(CHAIN_SPARSE.replace("k 3\n", f"k {number}\n"), encoding="utf-8")
        proc = run_cli("place", str(p))
        assert proc.returncode == 2
        assert "expected 'k <non-negative integer>'" in proc.stderr
        assert proc.stdout == ""

    def test_byte_order_mark_is_accepted(self, chain_file, tmp_path):
        # editors on some platforms save UTF-8 with a leading BOM
        marked = tmp_path / "marked.fracsys"
        marked.write_text(CHAIN_SPARSE, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        outputs = []
        for path in (chain_file, str(marked)):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["place", path]) == 0
            outputs.append(out.getvalue())
        assert outputs[0] == outputs[1]

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

    def test_blank_sensor_list_exits_two(self, chain_file):
        proc = run_cli("verify", chain_file, "--sensors", " , ")
        assert proc.returncode == 2
        assert proc.stderr == "fracplace: error: empty sensor list\n"
        assert proc.stdout == ""

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

    def test_initial_state_with_byte_order_mark(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(WORKED)
        x0 = tmp_path / "x0.txt"
        x0.write_text("0 1\n", encoding="utf-8-sig")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["simulate", str(sysf), "--x0", str(x0), "--steps", "2"]) == 0
        assert out.getvalue() == "k,x1,x2\r\n0,0,1\r\n1,0,0\r\n2,0.125,0\r\n"

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
            FracSystem(sysfile.values, sysfile.orders, sysfile.horizon),
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

    def test_refusal_above_the_dense_limit_names_it(self, tmp_path):
        sysf = tmp_path / "n513.fracsys"
        sysf.write_text(BIG_SPARSE.replace("n 600", "n 513"))
        x0 = tmp_path / "x0.txt"
        x0.write_text(" ".join(["0"] * 513))
        proc = run_cli("simulate", str(sysf), "--x0", str(x0))
        assert proc.returncode == 2
        assert proc.stderr == (
            "fracplace: error: numeric mode refused for n=513 > 512; the structural "
            "commands (place/verify/sweep) handle any size\n"
        )
        assert proc.stdout == ""

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

    def test_clamp_warning_is_one_line_per_entry_count(self, chain_file):
        # levels 0.5 and 0.6 both ask for 4 entries: one line for both
        args = ("--levels", "0.0,0.1,0.5,0.6,0.9", "--trials", "3")
        proc = run_cli("sweep", "--base", chain_file, *args)
        assert proc.returncode == 0
        assert proc.stderr == "".join(
            f"fracplace: warning: target density needs {want} entries but the base "
            "matrix has only 2 nonzeros; clamping\n"
            for want in (9, 8, 4)
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "sparsity,trial,n_sensors,beta,K" and len(lines) == 16

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_negative_zero_level_prints_as_zero(self, fmt):
        proc = run_cli("sweep", "--n", "3", "--levels", "-0", "--format", fmt, check=True)
        if fmt == "csv":
            assert proc.stdout.splitlines()[1].startswith("0,")
        else:
            sparsity = json.loads(proc.stdout)["rows"][0]["sparsity"]
            assert sparsity == 0.0 and str(sparsity) == "0.0"

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

    def test_negative_seed_exits_two_naming_the_seed(self):
        # numpy's "expected non-negative integer" named no flag
        proc = run_cli("sweep", "--n", "4", "--levels", "0.5", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr == "fracplace: error: seed must be >= 0\n"
        assert proc.stdout == ""

    def test_both_sources_exit_two(self, chain_file):
        # --n was dropped without a word and the file swept
        proc = run_cli("sweep", "--n", "5", "--base", chain_file, "--levels", "0.0")
        assert proc.returncode == 2
        assert proc.stderr == "fracplace: error: give --n or --base FILE, not both\n"
        assert proc.stdout == ""

    def test_no_tolerance_option(self, chain_file):
        # the sweep thresholds by entry count, so a zero threshold has no use
        proc = run_cli("sweep", "--base", chain_file, "--levels", "0.0", "--tol", "5")
        assert proc.returncode == 2
        assert "--tol" in proc.stderr


class TestCsvOutput:
    """Every command's CSV, read back with ``csv.reader``, holds its JSON values.

    The CLI writes CSV without the csv module, so each output is also
    compared with the bytes ``csv.writer`` gives for the cells read back.
    """

    @staticmethod
    def outputs(argv):
        out = {}
        for fmt in ("csv", "json"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main([*argv, "--format", fmt]) in (0, 1)
            out[fmt] = buf.getvalue()
        rows = list(csv.reader(io.StringIO(out["csv"], newline="")))
        want = io.StringIO()
        csv.writer(want).writerows(rows)
        assert out["csv"] == want.getvalue()
        return rows, json.loads(out["json"])

    @staticmethod
    def same(cell, value):
        if isinstance(value, list):
            return cell == ";".join(map(str, value))
        if isinstance(value, float):
            return float(cell) == value
        return cell == str(value)

    def check_table(self, rows, records):
        header, *body = rows
        assert len(body) == len(records)
        for cells, record in zip(body, records):
            assert header == list(record)
            assert all(map(self.same, cells, record.values()))

    def test_place_and_verify(self, chain_file):
        for argv in (["place", chain_file], ["verify", chain_file, "--sensors", "1,2"]):
            rows, doc = self.outputs(argv)
            self.check_table(rows, [doc])

    def test_sweep(self):
        rows, doc = self.outputs(["sweep", "--n", "6", "--levels", "0.2,0.6", "--trials", "2"])
        self.check_table(rows, doc["rows"])

    def test_simulate(self, tmp_path):
        sysf = tmp_path / "sys.fracsys"
        sysf.write_text(CHAIN_SPARSE)
        x0 = tmp_path / "x0.txt"
        x0.write_text("0.3 -1.7 2.1\n")
        rows, doc = self.outputs(["simulate", str(sysf), "--x0", str(x0)])
        records = [{"k": k, **{f"x{i + 1}": v for i, v in enumerate(state)}}
                   for k, state in enumerate(doc["states"])]
        self.check_table(rows, records)


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


# flag -> (command line holding the flag's value V, what stderr names on refusal);
# each line runs as it stands when V is spelled the way int() and float() read it
NUMBER_FLAGS = {
    "--sensors": (["verify", "{n12}", "--sensors", "V,1"], "cannot parse sensor list"),
    "--levels": (["sweep", "--n", "4", "--levels", "0.V"], "cannot parse sparsity levels"),
    "--x0": (["simulate", "{worked}", "--x0", "{x0}"], "initial state values must be numbers"),
    "--k": (["place", "{n12}", "--k", "V"], "argument --k: invalid integer value"),
    "--steps": (["simulate", "{worked}", "--x0", "{zeros}", "--k", "20", "--steps", "V"],
                "argument --steps: invalid integer value"),
    "--n": (["sweep", "--n", "V", "--levels", "0.5"], "argument --n: invalid integer value"),
    "--trials": (["sweep", "--n", "4", "--levels", "0.5", "--trials", "V"], "argument --trials: invalid integer value"),
    "--seed": (["sweep", "--n", "4", "--levels", "0.5", "--seed", "V"], "argument --seed: invalid integer value"),
    "--tol": (["place", "{n12}", "--tol", "V"], "argument --tol: invalid number value"),
}


class TestNumberRule:
    """Every numeric flag and the ``--x0`` file take ASCII decimals, as system files do."""

    @pytest.mark.parametrize("spelled", ["1_0", "\u0661\u0662"], ids=["underscore", "arabic-indic-digits"])
    @pytest.mark.parametrize("flag", NUMBER_FLAGS)
    def test_number_int_would_take_exits_two(self, tmp_path, capsys, flag, spelled):
        # int() reads '1_0' as 10 and the Arabic-Indic digits as 12
        (tmp_path / "n12.fracsys").write_text("fracsys 1\nn 12\nalpha 1\nmatrix pattern\nend\n")
        (tmp_path / "worked.fracsys").write_text(WORKED)
        (tmp_path / "zeros.txt").write_text("0 0\n")
        (tmp_path / "x0.txt").write_text(f"{spelled} 0\n", encoding="utf-8")
        argv, message = NUMBER_FLAGS[flag]
        paths = {name: str(tmp_path / f) for name, f in [
            ("n12", "n12.fracsys"), ("worked", "worked.fracsys"), ("zeros", "zeros.txt"), ("x0", "x0.txt")]}
        argv = [arg.format(**paths).replace("V", spelled) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag's value this way
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert message in err

    def test_every_numeric_flag_uses_the_number_reader(self):
        from fracplace.cli import _build_parser, integer, number

        subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        types = {
            (command, action.option_strings[0]): action.type
            for command, sub in subparsers.choices.items()
            for action in sub._actions
            if action.option_strings
        }
        assert not [key for key, kind in types.items() if kind in (int, float)]
        assert {key for key, kind in types.items() if kind in (integer, number)} == {
            ("place", "--k"), ("place", "--tol"), ("verify", "--k"), ("verify", "--tol"),
            ("simulate", "--k"), ("simulate", "--steps"),
            ("sweep", "--k"), ("sweep", "--n"), ("sweep", "--trials"), ("sweep", "--seed"),
        }


class TestInProcessCalls:
    def test_calls_in_one_process_share_no_state(self, chain_file):
        # the parser is built once per process and reused: after a usage
        # error and a call with flags, each call still prints what it
        # prints as the first call of a fresh process
        argvs = [
            ["place", "--k", "3"],
            ["place", chain_file, "--format", "csv", "--k", "3"],
            ["place", chain_file],
            ["verify", chain_file, "--sensors", "3"],
        ]
        code = f"""
import contextlib, io, json
import fracplace.cli
out = []
for argv in {argvs!r}:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = fracplace.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    out.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        # bytes, so the CSV's \r\n line ends are compared as written
        first = [subprocess.run([sys.executable, "-m", "fracplace", *argv], capture_output=True) for argv in argvs]
        assert got == [[p.returncode, p.stdout.decode(), p.stderr.decode()] for p in first]
        assert [g[0] for g in got] == [2, 0, 0, 0]


class TestImports:
    def test_runtime_does_not_import_scipy(self):
        code = "import sys, fracplace.cli, fracplace; print('scipy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_structural_commands_do_not_import_numpy(self, tmp_path):
        # place and verify print no floats: numpy and the test oracles stay
        # unloaded, and so do dataclasses and the inspect module it imports
        pattern_file = tmp_path / "pattern.fracsys"
        pattern_file.write_text(PATTERN_ONLY)
        dense_file = tmp_path / "dense.fracsys"
        dense_file.write_text(WORKED)
        code = f"""
import contextlib, io, sys
import fracplace, fracplace.cli
loaded = lambda: sorted({{"numpy", "fracplace.oracle", "dataclasses", "inspect"}} & set(sys.modules))
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

    def test_each_subcommand_loads_only_what_it_runs(self, tmp_path):
        # simulate with CSV output needs neither the placement engine nor json
        numeric = tmp_path / "chain.fracsys"
        numeric.write_text(CHAIN_SPARSE)
        x0 = tmp_path / "x0.txt"
        x0.write_text("1 0 0\n")
        code = f"""
import contextlib, io, sys
import fracplace.cli
loaded = lambda: sorted({{"fracplace.placement", "fracplace.matching", "json"}} & set(sys.modules))
path = {str(numeric)!r}
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert fracplace.cli.main(["simulate", path, "--x0", {str(x0)!r}, "--format", "csv"]) == 0
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    assert fracplace.cli.main(["place", path]) == 0
print(loaded())
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "[]",
            "[]",
            "['fracplace.matching', 'fracplace.placement', 'json']",
        ]

    def test_csv_output_does_not_import_csv(self, tmp_path):
        numeric = tmp_path / "chain.fracsys"
        numeric.write_text(CHAIN_SPARSE)
        x0 = tmp_path / "x0.txt"
        x0.write_text("1 0 0\n")
        code = f"""
import contextlib, io, sys
import fracplace.cli
path = {str(numeric)!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert fracplace.cli.main(["place", path, "--format", "csv"]) == 0
    assert fracplace.cli.main(["verify", path, "--sensors", "3", "--format", "csv"]) == 0
    assert fracplace.cli.main(["simulate", path, "--x0", {str(x0)!r}, "--format", "csv"]) == 0
    assert fracplace.cli.main(["sweep", "--base", path, "--levels", "0.8", "--format", "csv"]) == 0
print("csv" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_no_submodule_imports_dataclasses(self):
        # numpy imports inspect, so only dataclasses is checked here;
        # __main__ is skipped, since importing it runs the command
        code = (
            "import importlib, pkgutil, sys, fracplace\n"
            "for info in pkgutil.iter_modules(fracplace.__path__):\n"
            "    if info.name != '__main__':\n"
            "        importlib.import_module(f'fracplace.{info.name}')\n"
            "print(sorted(m for m in sys.modules if m.startswith('fracplace.')))\n"
            "print('dataclasses' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        modules, dataclasses_loaded = proc.stdout.splitlines()
        assert "fracplace.oracle" in modules and "fracplace.cli" in modules
        assert dataclasses_loaded == "False"

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

    def test_each_module_all_reads_the_export_table(self):
        # outside the package root and cli, no __all__ spells a name itself
        found = {}
        for path in Path(fracplace.__file__).parent.glob("*.py"):
            if path.stem in ("__init__", "cli"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
                    found[path.stem] = ast.unparse(node.value)
        assert found == {m: f"list(_EXPORTS['{m}'])" for m in fracplace._EXPORTS}
