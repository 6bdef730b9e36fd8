#!/usr/bin/env python3
"""Size ladder: time placements and numeric runs, write BENCH_<label>.json.

    python3 scripts/ladder.py --label mine
    python3 scripts/ladder.py --label old --src ../other-checkout/src

Every case runs in a subprocess of its own that imports fracplace from
``--src``.  The structural cases time ``minimal_sensors`` on one pattern
and cover n in
{256, 512, 1024, 2048} in two regimes, each at horizon K = n and K = 2,
drawn with ``sweep._random_pattern`` (seed 0):

  giant       mean degree 5.12 (sparsity .99 at n = 512): one giant SCC
  fragmented  mean degree 1 (sparsity 1 - 1/n): many small SCCs

plus the reference case n = 2048 at sparsity .999 and K = n, drawn the
same way, and the chain x0 -> x1 -> ... at n = 2048 and K = n, whose
union holds walks of every length up to n - 1.  (The giant case at
n = 1024 is sparsity .995.)  A case records the min and the spread
(max - min) of its repeats, its peak RSS, the union and SCC sizes, the
sensor count and a digest of the sorted sensor set, so two result files
can be checked for equal output.

The numeric cases draw one dense system per n in {64, 128, 256} with
K = n, A ~ N(0, 0.49/n), orders uniform in [0.5, 0.9) and x0 ~ N(0, 1)
(seed 0), and time ``simulate`` over K steps (regime ``simulate``) and
``is_observable_numeric`` with state 0 sensed (``observe-one``) and with
every state sensed (``observe-all``).  A numeric case records the min and
spread of its repeats, the tracemalloc peak of one more run, its peak RSS,
and a digest of the trajectory bytes or the observability answer.

A case that runs past ``TIMEOUT_S`` is recorded as a timeout with the
repeats it finished.  Needs the standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (256, 512, 1024, 2048)
GIANT_DEGREE = 5.12
REFERENCE = ((2048, 0.999),)
CHAINS = (2048,)
NUMERIC_SIZES = (64, 128, 256)
NUMERIC_REGIMES = ("simulate", "observe-one", "observe-all")
REPEATS = 3
TIMEOUT_S = 400.0  # per case


def cases() -> list[dict]:
    out = []
    for n in SIZES:
        for regime, sparsity in (("giant", 1.0 - GIANT_DEGREE / n), ("fragmented", 1.0 - 1.0 / n)):
            for horizon in (n, 2):
                out.append({"regime": regime, "n": n, "sparsity": sparsity, "horizon": horizon})
    for n, sparsity in REFERENCE:
        out.append({"regime": "reference", "n": n, "sparsity": sparsity, "horizon": n})
    for n in CHAINS:
        out.append({"regime": "chain", "n": n, "sparsity": 1.0 - (n - 1) / n**2, "horizon": n})
    for regime in NUMERIC_REGIMES:
        for n in NUMERIC_SIZES:
            out.append({"regime": regime, "n": n, "horizon": n})
    for case in out:
        case["name"] = f"{case['regime']}-n{case['n']}-k{case['horizon']}"
    return out


def run_numeric_case(case: dict) -> None:
    """Child side of a numeric case: one JSON line per repeat, then one more."""
    import tracemalloc

    import numpy as np

    from fracplace.fraccore import FracSystem, is_observable_numeric, simulate

    n, K = case["n"], case["horizon"]
    rng = np.random.default_rng(0)
    system = FracSystem(rng.normal(0.0, 0.7 / np.sqrt(n), (n, n)), rng.uniform(0.5, 0.9, n), K)
    x0 = rng.normal(0.0, 1.0, n)
    if case["regime"] == "simulate":
        def run():
            return simulate(system, x0, K).states.tobytes()
    else:
        sensors = [0] if case["regime"] == "observe-one" else range(n)

        def run():
            return is_observable_numeric(system, sensors)
    for _ in range(REPEATS):
        t = time.perf_counter()
        out = run()
        print(json.dumps({"seconds": time.perf_counter() - t}), flush=True)
    tracemalloc.start()
    run()
    traced = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({
        "result": hashlib.sha256(out).hexdigest()[:16] if isinstance(out, bytes) else out,
        "traced_peak_mib": traced / 2**20,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }), flush=True)


def run_case(case: dict) -> None:
    """Child side: one JSON line per repeat, then one with the sizes."""
    if case["regime"] in NUMERIC_REGIMES:
        run_numeric_case(case)
        return
    import numpy as np

    from fracplace.placement import minimal_sensors
    from fracplace.structure import Pattern
    from fracplace.sweep import _random_pattern

    n = case["n"]
    if case["regime"] == "chain":
        pattern = Pattern(n, n, ((i + 1, i) for i in range(n - 1)))
    else:
        pattern = _random_pattern(n, case["sparsity"], np.random.default_rng(0))
    for _ in range(REPEATS):
        t = time.perf_counter()
        report = minimal_sensors(pattern, case["horizon"])
        print(json.dumps({"seconds": time.perf_counter() - t}), flush=True)
    sensors = sorted(report.sensors.all)
    print(json.dumps({
        "pattern_entries": pattern.count,
        "union_entries": report.g_union.count,
        "sccs": len(report.condensation.sccs),
        "sensors": len(sensors),
        "sensors_sha256": hashlib.sha256(repr(sensors).encode()).hexdigest()[:16],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }), flush=True)


def measure(case: dict, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, __file__, "--child", json.dumps(case)]
    result = dict(case, timeout=False)
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        stdout, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout, code = exc.stdout or "", None
        stdout = stdout.decode() if isinstance(stdout, bytes) else stdout
        result["timeout"] = True
    lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    times = [line["seconds"] for line in lines if "seconds" in line]
    for line in lines:
        if "seconds" not in line:
            result.update(line)
    if times:
        result.update(min_s=min(times), spread_s=max(times) - min(times), repeats=len(times))
    if code not in (0, None):
        result["error"] = proc.stderr.strip().splitlines()[-1:]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="writes BENCH_<label>.json at the repo root")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the fracplace source tree to time")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        run_case(json.loads(args.child))
        return 0
    if not args.label:
        parser.error("--label is required")

    results = []
    for case in cases():
        result = measure(case, Path(args.src).resolve())
        results.append(result)
        shown = "timeout" if result["timeout"] else f"{result.get('min_s', float('nan')):.3f} s"
        print(f"{case['name']:28s} {shown}", file=sys.stderr, flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "repeats": REPEATS,
        "timeout_s": TIMEOUT_S,
        "cases": results,
    }, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
