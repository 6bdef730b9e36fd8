#!/usr/bin/env python3
"""Run one fracplace benchmark workload and print its metrics.

    python3 fracbench/run.py --workload place-mixed --seed 1 --seconds 30 --trace 0

Run from the root of a fracplace source tree; the package is imported
from ``src/``.  The run measures ``setup_s`` (median time to ``import
fracplace.cli`` in fresh interpreters), runs one untimed warm-up op,
then times whole rounds of ops for about ``--seconds`` seconds, checking
every output with :mod:`checks`.  Host-speed samples (:mod:`calibrate`)
taken between the starts and between the ops scale every reported time
to the reference host speed.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  Spans of a traced run go to ``fracbench/out/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, so timings do not depend on how many cores are idle
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 6
IMPORTTIME_REPEATS = 3
# seconds between two calibration samples, about 5 % of a run's time
CALIBRATE_EVERY_S = 0.5


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def measure_setup(repeats: int) -> tuple[float, list]:
    """Median seconds to ``import fracplace.cli`` in a fresh interpreter.

    Also returns the calibration samples taken before and after each start.
    """
    code = (
        "import time; t = time.perf_counter(); import fracplace.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    samples, calibration = [], []
    for _ in range(repeats):
        calibration.append(calibrate.sample("interpreted"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
        calibration.append(calibrate.sample("interpreted"))
    return statistics.median(samples), calibration


def run_workload(workload, seed: int, seconds: float, tracer, workdir: Path) -> dict:
    """Warm up, then call whole rounds until one more would end past ``seconds``.

    Returns the call counts, the check problems, ``rounds``, one list of
    op latencies per round, and ``calibration``, host-speed samples of the
    workload's kernel (:mod:`calibrate`) taken between ops, one for each
    ``CALIBRATE_EVERY_S`` that has passed since the previous samples (at
    least one).  Every output is checked.  The warm-up op is checked but
    neither timed nor traced.  A call that raises, or a CLI call that
    exits with code 2, counts as failed.
    """
    res = {"attempted": 0, "failed": 0, "problems": [], "rounds": [], "calibration": []}

    def call(op, index=None):
        gc.collect()
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit) as exc:
            result = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        res["attempted"] += 1
        if isinstance(result, BaseException) or (op.cli and result[0] == 2):
            print(f"op {op.label} failed: {result!r}", file=sys.stderr)
            res["failed"] += 1
        else:
            res["problems"] += [f"{op.label}: {p}" for p in op.check(result)]
        return elapsed

    ops = workload.ops(seed, workdir)
    res["labels"] = [op.label for op in ops]
    call(workload.warmup(seed, workdir, ops))
    calibrate.sample(workload.kernel)
    began = last_sample = time.perf_counter()
    while True:
        round_began = time.perf_counter()
        first = len(res["rounds"]) * len(ops)
        times = []
        for i, op in enumerate(ops):
            times.append(call(op, first + i))
            due = int((time.perf_counter() - last_sample) / CALIBRATE_EVERY_S)
            if due:
                res["calibration"] += [calibrate.sample(workload.kernel) for _ in range(due)]
                last_sample = time.perf_counter()
        res["rounds"].append(times)
        now = time.perf_counter()
        if now - began + (now - round_began) > seconds:
            break
    if not res["calibration"]:
        res["calibration"].append(calibrate.sample(workload.kernel))
    for p in res["problems"][:20]:
        print(f"check failed: {p}", file=sys.stderr)
    return res


def raw_times(rounds: list, setup_s: float) -> dict:
    """Unscaled seconds: ``setup_s``, ``wall_s`` and ``op_p50_s``.

    ``wall_s`` is the time of a typical round: each op position of a
    round (one input, the same in every round) is timed by the median of
    its calls across the rounds, and the positions are summed.
    ``op_p50_s`` is the median of every timed call.
    """
    typical = [statistics.median(col) for col in zip(*rounds)]
    calls = [t for times in rounds for t in times]
    return {"setup_s": setup_s, "wall_s": sum(typical), "op_p50_s": statistics.median(calls)}


def scale(calibration: list, kernel: str) -> float:
    """Factor that turns seconds measured alongside ``calibration``, samples
    of the named kernel, into seconds at the reference host speed."""
    return calibrate.REFERENCE_S[kernel] / statistics.median(calibration)


def scaled(metrics: dict, factor: float) -> dict:
    """``metrics`` with every value in seconds multiplied by ``factor``."""
    return {
        k: {"value": v["value"] * factor, "unit": v["unit"]} if v["unit"] == "s" else v
        for k, v in metrics.items()
    }


def end_to_end(raw: dict, setup_scale: float, run_scale: float) -> dict:
    """The four end-to-end metrics, times scaled to the reference host speed.

    ``setup_scale`` comes from the samples taken around the fresh starts
    and ``run_scale`` from those taken between the ops.
    """
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": {"value": raw["setup_s"] * setup_scale, "unit": "s"},
        "wall_s": {"value": raw["wall_s"] * run_scale, "unit": "s"},
        "op_p50_s": {"value": raw["op_p50_s"] * run_scale, "unit": "s"},
        "peak_rss_mib": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fracplace" / "__init__.py").is_file():
        print(f"fracbench: no fracplace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import fracplace.cli  # noqa: F401  (compiles bytecode before setup is timed)
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    calibrate.sample("interpreted")
    setup_s, setup_calibration = measure_setup(SETUP_REPEATS)
    tracer = tracing.Tracer() if args.trace else None
    workdir = OUT / f"inputs-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            tracer.install()
        try:
            res = run_workload(workload, args.seed, args.seconds, tracer, workdir)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = raw_times(res["rounds"], setup_s)
    setup_scale = scale(setup_calibration, "interpreted")
    run_scale = scale(res["calibration"], workload.kernel)
    e2e = end_to_end(raw, setup_scale, run_scale)
    summary = ", ".join(f"{k}={v['value']:.4g}" for k, v in e2e.items())
    unscaled = ", ".join(f"{k}={v:.4g}" for k, v in raw.items())
    print(
        f"{workload.name} seed={args.seed} trace={args.trace}: {res['attempted']} calls "
        f"in {len(res['rounds'])} rounds, {summary}; unscaled {unscaled}, {workload.kernel} "
        f"kernel median {statistics.median(res['calibration']):.4g} s of "
        f"{len(res['calibration'])} samples",
        file=sys.stderr,
    )
    result_file = OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "end_to_end": e2e, "unscaled_s": raw, "labels": res["labels"],
        "rounds": res["rounds"], "calibration": res["calibration"],
        "setup_calibration": setup_calibration,
    }), encoding="utf-8")
    if tracer is not None:
        metrics = scaled(tracing.import_times(child_env(), IMPORTTIME_REPEATS), setup_scale)
        metrics.update(scaled(tracer.layer_metrics(sum(map(len, res["rounds"]))), run_scale))
        trace_file = OUT / f"trace-{workload.name}-{args.seed}.json"
        trace_file.write_text(
            json.dumps({"end_to_end": e2e, "metrics": metrics, "spans": tracer.dump()}),
            encoding="utf-8",
        )
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
