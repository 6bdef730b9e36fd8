"""The benchmark's output checks accept fracplace's answers and reject wrong ones.

Run from the repository root with ``PYTHONPATH=src python -m pytest fracbench``.
Small instances keep this fast; the workloads use the same checks at
full size.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from fracplace.cli import main as cli_main  # noqa: E402


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def verify_sensor_sets(U):
    """A passing set and the same set with one sink representative removed.

    The passing set holds the rows one maximum matching of U^T leaves
    unmatched plus the smallest state of every sink SCC that has none of
    them.  The removed sensor is the only one in its sink SCC, so the
    second set fails condition (i).
    """
    unmatched = set(checks.unmatched_rows(U.T).tolist())
    sensors = set(unmatched)
    sinks = checks.sink_sccs(U)
    for members in sinks:
        if not unmatched.intersection(members.tolist()):
            sensors.add(int(members[0]))
    lone = [m for m in sinks if len(sensors.intersection(m.tolist())) == 1]
    assert lone and len(sensors) > 1
    drop = sensors.intersection(max(lone, key=len).tolist()).pop()
    return sorted(sensors), sorted(sensors - {drop})


@pytest.fixture
def fragmented(tmp_path):
    """A pattern with several sink SCCs, so placements need many sensors."""
    rng = np.random.default_rng(7)
    n = 24
    P = workloads.random_pattern(rng, n, 1.0 - 1.5 / n)
    path = workloads.write_pattern_file(tmp_path / "frag.fsys", P, n)
    return P, n, path


def test_union_matches_walks_of_bounded_length():
    # chain 0 -> 1 -> 2 -> 3: with horizon 1 only walks of length 1 and 2 count
    P = np.zeros((4, 4), dtype=bool)
    P[1, 0] = P[2, 1] = P[3, 2] = True
    U = checks.union_pattern(P, 1)
    assert U[2, 0] and not U[3, 0]
    assert checks.union_pattern(P, 3)[3, 0]


def test_place_check_accepts_output_and_rejects_dropped_sensor(fragmented):
    P, n, path = fragmented
    code, out = run_cli(["place", path])
    assert code == 0
    U = checks.union_pattern(P, n)
    assert checks.check_place_output(U, out) == []

    doc = json.loads(out)
    assert len(doc["sensors"]) > 1
    for drop in (doc["sensors"][0], doc["sensors"][-1]):
        doc_wrong = dict(doc, sensors=[s for s in doc["sensors"] if s != drop])
        assert checks.check_place_output(U, json.dumps(doc_wrong)) != []
    # one sensor too many still passes (i) and (ii); only the size check sees it
    extra = min(set(range(1, n + 1)) - set(doc["sensors"]))
    doc_wrong = dict(doc, sensors=sorted(doc["sensors"] + [extra]))
    assert checks.check_place_output(U, json.dumps(doc_wrong)) != []


def test_place_check_rejects_wrong_beta_and_matching(fragmented):
    P, n, path = fragmented
    doc = json.loads(run_cli(["place", path])[1])
    U = checks.union_pattern(P, n)
    assert checks.check_place_output(U, json.dumps(dict(doc, beta=doc["beta"] + 1))) != []
    wrong_nu = dict(doc, matching_cardinality=doc["matching_cardinality"] - 1)
    assert checks.check_place_output(U, json.dumps(wrong_nu)) != []


def test_sweep_check_accepts_minimal_sensors_report():
    from fracplace.placement import minimal_sensors
    from fracplace.structure import pattern_of

    rng = np.random.default_rng(3)
    for level in workloads.README_LEVELS:
        P = workloads.random_pattern(rng, 16, level)
        report = minimal_sensors(pattern_of(P.astype(float)), 16)
        U = checks.union_pattern(P, 16)
        sensors = sorted(report.sensors.all)
        assert checks.check_placement(
            U, sensors, report.beta, report.matching_cardinality
        ) == []
        assert checks.check_placement(
            U, sensors[1:], report.beta, report.matching_cardinality
        ) != []


def test_verify_check_rejects_flipped_exit_code(fragmented):
    P, n, path = fragmented
    U = checks.union_pattern(P, n)
    passing, failing = verify_sensor_sets(U)
    for sensors, want in ((passing, 0), (failing, 1)):
        argv = ["verify", path, "--sensors", ",".join(str(s + 1) for s in sensors)]
        code, out = run_cli(argv)
        assert code == want
        assert checks.check_verify_output(U, sensors, code, out) == []
        assert checks.check_verify_output(U, sensors, 1 - code, out) != []


def test_verify_check_rejects_wrong_certificate_field(fragmented):
    P, n, path = fragmented
    U = checks.union_pattern(P, n)
    _, failing = verify_sensor_sets(U)
    argv = ["verify", path, "--sensors", ",".join(str(s + 1) for s in failing)]
    code, out = run_cli(argv)
    doc = json.loads(out)
    for key, value in (("condition_i", True), ("matching_deficiency", 99)):
        assert checks.check_verify_output(U, failing, code, json.dumps({**doc, key: value}))


def simulate_case(tmp_path, n=8, steps=8):
    rng = np.random.default_rng(5)
    A = rng.normal(0.0, 0.7 / np.sqrt(n), (n, n))
    alpha = rng.uniform(0.5, 0.9, n)
    x0 = rng.normal(0.0, 1.0, n)
    sysfile = workloads.write_dense_file(tmp_path / "sim.fsys", A, alpha, steps)
    x0file = tmp_path / "sim.x0"
    x0file.write_text(" ".join(repr(float(v)) for v in x0), encoding="utf-8")
    code, out = run_cli(["simulate", sysfile, "--x0", str(x0file), "--steps", str(steps)])
    assert code == 0
    return checks.reference_trajectory(A, alpha, x0, steps), out


def test_simulate_check_accepts_output_and_rejects_perturbed_entry(tmp_path):
    ref, out = simulate_case(tmp_path)
    assert checks.check_trajectory_csv(ref, out) == []

    # nudge the largest entry of step 4 by one part in a million
    lines = out.splitlines()
    cells = lines[5].split(",")
    col = 1 + int(np.argmax(np.abs(ref[4])))
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[5] = ",".join(cells)
    assert checks.check_trajectory_csv(ref, "\n".join(lines) + "\n") != []


def test_simulate_check_rejects_missing_step(tmp_path):
    ref, out = simulate_case(tmp_path)
    assert checks.check_trajectory_csv(ref, "\n".join(out.splitlines()[:-1]) + "\n") != []


def test_gl_tails_match_integer_order_closed_form():
    # alpha = 1: binom(1, m) = 0 for m >= 2, so every tail vanishes;
    # alpha = 2: c_1 = -binom(2, 2) = -1 and the rest vanish
    table = checks.gl_tail_table(np.array([1.0, 2.0]), 4)
    assert np.array_equal(table[0], np.zeros(4))
    assert np.array_equal(table[1], np.array([-1.0, 0.0, 0.0, 0.0]))

