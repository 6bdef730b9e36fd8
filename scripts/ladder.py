#!/usr/bin/env python3
"""Size ladder: time placements and numeric runs, write BENCH_<label>.json.

    python3 scripts/ladder.py --label mine
    python3 scripts/ladder.py --label old --src ../other-checkout/src
    python3 scripts/ladder.py --label mine --against ../other-checkout/src

Every case runs in a subprocess of its own that imports fracplace from
``--src``.  The structural cases time ``minimal_sensors`` on one pattern
and cover n in
{256, 512, 1024, 2048, 4096} in two regimes, each at horizon K = n and
K = 2, drawn with ``sweep._random_pattern`` (seed 0):

  giant       mean degree 5.12 (sparsity .99 at n = 512): one giant SCC
  fragmented  mean degree 1 (sparsity 1 - 1/n): many small SCCs

plus the reference cases n = 2048 at sparsity .999, n = 4096 at
sparsity .9995, n = 8192 at sparsity .99975 and n = 16384 at sparsity
.999875 (mean degree 2), all at K = n and drawn the same way,
and the chain x0 -> x1 -> ... at n = 2048 and n = 4096 with K = n, whose
union holds walks of every length up to n - 1.  (The giant case at
n = 1024 is sparsity .995.)  A case records the min and the spread
(max - min) of its repeats, its peak RSS, the union and SCC sizes, the
sensor count and a digest of the sorted sensor set, so two result files
can be checked for equal output.

Every case repeats its timed run until it has at least ``MIN_REPEATS``
repeats and they have taken at least ``MIN_TIMED_S`` seconds, so a case
of a few milliseconds gets hundreds of repeats and its min settles, while
a case of 4 s or more runs ``MIN_REPEATS`` times.

The numeric cases draw one dense system per n in {64, 128, 256} with
K = n, A ~ N(0, 0.49/n), orders uniform in [0.5, 0.9) and x0 ~ N(0, 1)
(seed 0), and time ``simulate`` over K steps (regime ``simulate``) and
``is_observable_numeric`` with state 0 sensed (``observe-one``) and with
every state sensed (``observe-all``).  A numeric case records the min and
spread of its repeats, the tracemalloc peak of one more run, its peak RSS,
and a digest of the trajectory bytes or the observability answer.

The CLI cases time whole ``python -m fracplace`` subprocesses, start to
exit, on small seeded files: ``place`` and ``verify`` on the giant
pattern at n = K = 256 (``verify`` checks the set ``place`` prints),
``sweep --n 32`` over three sparsity levels with three trials each, and
``simulate`` of the numeric draw above at n = K = 64.  A CLI case records
the min and spread of its repeats, the exit code and a digest of the
output of the last repeat.  ``cli-import`` records the cumulative time
``python -X importtime`` reports for ``import fracplace.cli``.

A case that runs past ``TIMEOUT_S`` is recorded as a timeout with the
repeats it finished.  Needs the standard library and numpy only.

With ``--against SRC`` the run is paired: each case runs
``PAIRED_ROUNDS`` times on both trees, in alternating child runs whose
first side alternates from round to round and from case to case, so
that a drift in the host's speed falls on both trees alike.  The case
records the ``--src`` tree's fields from its fastest round, and under
``against`` the other tree's min and peak RSS from its own fastest round,
the median and the spread (max - min) of the per-round ratio of the mins
(``--src`` over ``SRC``), and the non-timing fields (digests, counts,
exit codes, errors) on which any two runs disagree.  Runs that timed out
are left out of that check.  If any field disagrees, the result file is
still written and the run exits with code 1.  Every case whose ``--src``
peak RSS is more than ``RSS_BOUND`` above the other tree's is named at
the end; that alone does not change the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (256, 512, 1024, 2048, 4096)
GIANT_DEGREE = 5.12
REFERENCE = ((2048, 0.999), (4096, 0.9995), (8192, 0.99975), (16384, 0.999875))
CHAINS = (2048, 4096)
NUMERIC_SIZES = (64, 128, 256)
NUMERIC_REGIMES = ("simulate", "observe-one", "observe-all")
CLI_CASES = (("place", 256), ("verify", 256), ("sweep", 32), ("simulate", 64), ("import", 0))
MIN_REPEATS = 3
MIN_TIMED_S = 2.0
TIMEOUT_S = 400.0  # per case
PAIRED_ROUNDS = 5  # per case and tree with --against
RSS_BOUND = 0.05  # the peak_rss_mib bound of BENCHMARK.json
MEASURED = ("min_s", "spread_s", "repeats", "peak_rss_mib", "traced_peak_mib", "timeout")


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
    for command, n in CLI_CASES:
        out.append({"regime": f"cli-{command}", "n": n, "horizon": n})
    for case in out:
        case["name"] = f"{case['regime']}-n{case['n']}-k{case['horizon']}" if case["n"] else case["regime"]
    return out


def repeats():
    """Yield until ``MIN_REPEATS`` repeats have run and ``MIN_TIMED_S`` seconds have passed."""
    began, count = time.perf_counter(), 0
    while count < MIN_REPEATS or time.perf_counter() - began < MIN_TIMED_S:
        yield
        count += 1


def numeric_draw(n: int):
    """The dense system and initial state of the numeric cases."""
    import numpy as np

    rng = np.random.default_rng(0)
    A, alpha = rng.normal(0.0, 0.7 / np.sqrt(n), (n, n)), rng.uniform(0.5, 0.9, n)
    return A, alpha, rng.normal(0.0, 1.0, n)


def run_cli_case(case: dict) -> None:
    """Child side of a CLI case: one JSON line per repeat, then one with the output."""
    import tempfile

    import numpy as np

    from fracplace.sweep import _random_pattern

    command, n, K = case["regime"][len("cli-"):], case["n"], case["horizon"]
    cli = [sys.executable, "-m", "fracplace"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "system.fsys")
        head = ["fracsys 1", f"n {n}"]
        if command == "import":
            argv = [sys.executable, "-X", "importtime", "-c", "import fracplace.cli"]
        elif command == "sweep":
            argv = cli + ["sweep", "--n", str(n), "--levels", "0.5,0.9,0.99", "--trials", "3", "--seed", "0"]
        elif command == "simulate":
            A, alpha, x0 = numeric_draw(n)
            lines = head + ["alpha " + " ".join(map(repr, alpha.tolist())), f"k {K}", "matrix dense"]
            lines += [" ".join(map(repr, row)) for row in A.tolist()]
            path.write_text("\n".join(lines + ["end"]) + "\n")
            Path(tmp, "x0.txt").write_text(" ".join(map(repr, x0.tolist())) + "\n")
            argv = cli + ["simulate", str(path), "--x0", str(Path(tmp, "x0.txt")), "--steps", str(K)]
        else:
            pattern = _random_pattern(n, 1.0 - GIANT_DEGREE / n, np.random.default_rng(0))
            lines = head + ["alpha 0.8", f"k {K}", "matrix pattern"]
            lines += [f"{r + 1} {c + 1}" for r, c in sorted(pattern.entries)]
            path.write_text("\n".join(lines + ["end"]) + "\n")
            argv = cli + ["place", str(path)]
            if command == "verify":
                placed = subprocess.run(argv, capture_output=True, text=True, check=True)
                sensors = json.loads(placed.stdout)["sensors"]
                argv = cli + ["verify", str(path), "--sensors", ",".join(map(str, sensors))]
        for _ in repeats():
            t = time.perf_counter()
            proc = subprocess.run(argv, capture_output=True, text=True)
            seconds = time.perf_counter() - t
            if command == "import":  # "import time: self | cumulative | name", in microseconds
                line = next(line for line in proc.stderr.splitlines() if line.endswith("| fracplace.cli"))
                seconds = int(line.split("|")[1]) / 1e6
            print(json.dumps({"seconds": seconds}), flush=True)
    print(json.dumps({
        "exit_code": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout.encode()).hexdigest()[:16],
    }), flush=True)


def run_numeric_case(case: dict) -> None:
    """Child side of a numeric case: one JSON line per repeat, then one more."""
    import tracemalloc

    from fracplace.fraccore import FracSystem, is_observable_numeric, simulate

    n, K = case["n"], case["horizon"]
    A, alpha, x0 = numeric_draw(n)
    system = FracSystem(A, alpha, K)
    if case["regime"] == "simulate":
        def run():
            return simulate(system, x0, K).states.tobytes()
    else:
        sensors = [0] if case["regime"] == "observe-one" else range(n)

        def run():
            return is_observable_numeric(system, sensors)
    for _ in repeats():
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
    if case["regime"].startswith("cli-"):
        run_cli_case(case)
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
    for _ in repeats():
        t = time.perf_counter()
        report = minimal_sensors(pattern, case["horizon"])
        print(json.dumps({"seconds": time.perf_counter() - t}), flush=True)
    sensors = sorted(report.sensors.all)
    print(json.dumps({
        "pattern_entries": pattern.count,
        "union_entries": report.union_t.count,
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


def paired(index: int, case: dict, src: Path, against: Path) -> dict:
    """``case`` on both trees, ``PAIRED_ROUNDS`` alternating child runs each."""
    runs: dict = {src: [], against: []}
    for i in range(PAIRED_ROUNDS):
        for tree in (src, against) if (index + i) % 2 == 0 else (against, src):
            runs[tree].append(measure(case, tree))
    ratios = sorted(
        a["min_s"] / b["min_s"] for a, b in zip(runs[src], runs[against]) if "min_s" in a and "min_s" in b
    )
    finished = [r for r in runs[src] + runs[against] if not r["timeout"]]
    fields = {k for r in finished for k in r if k not in MEASURED}

    def fastest(rs):
        return min(rs, key=lambda r: r.get("min_s", float("inf")))

    result, other = fastest(runs[src]), fastest(runs[against])
    result["against"] = {
        "min_s": other.get("min_s"),
        "peak_rss_mib": other.get("peak_rss_mib"),
        "ratio_median": statistics.median(ratios) if ratios else None,
        "ratio_spread": ratios[-1] - ratios[0] if ratios else None,
        "differs": sorted(k for k in fields if len({json.dumps(r.get(k)) for r in finished}) > 1),
    }
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", help="writes BENCH_<label>.json at the repo root")
    parser.add_argument("--src", default=str(ROOT / "src"), help="the fracplace source tree to time")
    parser.add_argument("--against", help="a second source tree, timed in alternation with --src")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        run_case(json.loads(args.child))
        return 0
    if not args.label:
        parser.error("--label is required")

    src = Path(args.src).resolve()
    results = []
    for index, case in enumerate(cases()):
        if args.against:
            result = paired(index, case, src, Path(args.against).resolve())
        else:
            result = measure(case, src)
        results.append(result)
        shown = "timeout" if result["timeout"] else f"{result.get('min_s', float('nan')):.4f} s"
        if args.against:
            other = result["against"]
            if other["ratio_median"] is not None:
                shown += f" against {other['min_s']:.4f} s, ratio {other['ratio_median']:.3f}"
                shown += f" (spread {other['ratio_spread']:.3f})"
            if other["differs"]:
                shown += f"; DIFFERS: {', '.join(other['differs'])}"
        print(f"{case['name']:28s} {shown}", file=sys.stderr, flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "min_repeats": MIN_REPEATS,
        "min_timed_s": MIN_TIMED_S,
        "timeout_s": TIMEOUT_S,
        **({"paired_rounds": PAIRED_ROUNDS} if args.against else {}),
        "cases": results,
    }, indent=1) + "\n")
    print(out)
    above = []
    for r in results:
        mine, theirs = r.get("peak_rss_mib"), r.get("against", {}).get("peak_rss_mib")
        if mine and theirs and mine > (1 + RSS_BOUND) * theirs:
            above.append(f"{r['name']} ({mine:.1f} against {theirs:.1f} MiB)")
    if above:
        print(f"peak RSS more than {RSS_BOUND:.0%} above the other tree: {', '.join(above)}", file=sys.stderr)
    differ = [r["name"] for r in results if r.get("against", {}).get("differs")]
    if differ:
        print(f"non-timing fields differ between the trees: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
