#!/usr/bin/env python3
"""Sparsity sweep experiment: sensor count vs. coupling sparsity.

Runs ``fracplace sweep`` over a sparsity grid on the uniform random
ensemble (or a system file via --base), writes its per-trial CSV, and
prints per-level means.  The interesting region for the uniform ensemble
at these sizes is high sparsity; the default grid samples it densely.

    python3 scripts/run_sweep.py --n 32 --trials 20 --out sweep.csv

The CSV is byte-identical to ``fracplace sweep --format csv`` with the same
arguments; input errors exit 2 with the command's one-line message.
"""

import argparse
import contextlib
import csv
import io
import statistics
import sys

from fracplace.cli import main as fracplace_main

DEFAULT_LEVELS = "0.0,0.5,0.75,0.875,0.9375,0.96875,0.984375,0.9921875"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", default="32")
    parser.add_argument("--base", default=None, help="numeric system file to sparsify")
    parser.add_argument("--levels", default=DEFAULT_LEVELS)
    parser.add_argument("--trials", default="20")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--k", default=None, help="horizon (default n)")
    parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    args = parser.parse_args()

    sweep = ["sweep", "--levels", args.levels, "--trials", args.trials, "--seed", args.seed,
             "--format", "csv"]
    sweep += ["--base", args.base] if args.base is not None else ["--n", args.n]
    if args.k is not None:
        sweep += ["--k", args.k]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fracplace_main(sweep)
    if code != 0:
        return code
    text = out.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)

    counts: dict = {}
    for row in csv.DictReader(io.StringIO(text)):
        counts.setdefault(float(row["sparsity"]), []).append(int(row["n_sensors"]))
    print("\nper-level mean sensor count:", file=sys.stderr)
    for lvl, vals in counts.items():
        print(f"  sparsity {lvl:<12.10g} mean {statistics.mean(vals):7.2f} "
              f"min {min(vals):3d} max {max(vals):3d}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
