"""Command-line front end.

Subcommands::

    fracplace place FILE     minimal sensor placement for a system file
    fracplace verify FILE    check a given sensor set (--sensors 1,3)
    fracplace simulate FILE  trajectory CSV from an initial state file
    fracplace sweep          sparsity sweep CSV over random or file systems

Exit codes: 0 on success (and on "observable" for verify), 1 when verify
finds the sensor set insufficient, 2 on usage or input errors.  All
indices in files, flags and output are 1-based; CSV numbers are rendered
with 17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .placement import minimal_sensors, verify_observability
from .sysfile import load_system_file

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _one_based(indices) -> list[int]:
    return sorted(int(i) + 1 for i in indices)


def _emit_json(doc: dict):
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _emit_kv_csv(doc: dict):
    writer = csv.writer(sys.stdout)
    keys = list(doc.keys())
    writer.writerow(keys)
    row = []
    for k in keys:
        v = doc[k]
        if isinstance(v, (list, tuple)):
            row.append(";".join(str(x) for x in v))
        elif isinstance(v, float):
            row.append(_fmt(v))
        else:
            row.append(v)
    writer.writerow(row)


def _resolve_horizon(args, sysfile) -> int:
    if getattr(args, "k", None) is not None:
        return args.k
    if sysfile.horizon is not None:
        return sysfile.horizon
    return sysfile.n


def _cmd_place(args) -> int:
    sysfile = load_system_file(args.file)
    horizon = _resolve_horizon(args, sysfile)
    pattern = sysfile.pattern_at(zero_tol=args.tol)
    report = minimal_sensors(pattern, horizon, strict_j3=args.strict_j3)
    doc = {
        "schema": "fracplace.placement/1",
        "n": sysfile.n,
        "k": horizon,
        "strict_j3": args.strict_j3,
        "sensors": _one_based(report.sensors.all),
        "j_prime": _one_based(report.sensors.j_prime),
        "j_double": _one_based(report.sensors.j_double),
        "j_triple": _one_based(report.sensors.j_triple),
        "beta": report.beta,
        "matching_cardinality": report.matching_cardinality,
        "covered_sccs": _one_based(report.covered_sccs),
        "condition_i": report.certificate.condition_i,
        "condition_ii": report.certificate.condition_ii,
    }
    (_emit_kv_csv if args.format == "csv" else _emit_json)(doc)
    return 0


def _cmd_verify(args) -> int:
    sysfile = load_system_file(args.file)
    horizon = _resolve_horizon(args, sysfile)
    try:
        sensors_1b = [int(tok) for tok in args.sensors.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"cannot parse sensor list '{args.sensors}'")
    if not sensors_1b:
        raise ValueError("empty sensor list")
    for s in sensors_1b:
        if not (1 <= s <= sysfile.n):
            raise ValueError(f"sensor index {s} outside 1..{sysfile.n}")
    sensors = [s - 1 for s in sensors_1b]
    pattern = sysfile.pattern_at(zero_tol=args.tol)
    cert = verify_observability(pattern, horizon, sensors)
    doc = {
        "schema": "fracplace.certificate/1",
        "n": sysfile.n,
        "k": horizon,
        "sensors": sorted(set(sensors_1b)),
        "condition_i": cert.condition_i,
        "condition_ii": cert.condition_ii,
        "observable": cert.observable,
        "non_accessible": _one_based(cert.non_accessible),
        "matching_deficiency": cert.matching_deficiency,
    }
    (_emit_kv_csv if args.format == "csv" else _emit_json)(doc)
    return 0 if cert.observable else 1


def _cmd_simulate(args) -> int:
    # numpy loads here and in _cmd_sweep only: place and verify print no floats
    from .fraccore import MAX_DENSE_DIMENSION, FracSystem, simulate

    sysfile = load_system_file(args.file)
    if not sysfile.numeric:
        raise ValueError(
            "simulation needs numeric matrix values; this file holds only a "
            "pattern (use 'matrix dense' or 'matrix sparse')"
        )
    if sysfile.n > MAX_DENSE_DIMENSION:
        raise ValueError(
            f"numeric mode refused for n={sysfile.n} > {MAX_DENSE_DIMENSION}; "
            "the structural commands (place/verify/sweep) handle any size"
        )
    horizon = _resolve_horizon(args, sysfile)
    with open(args.x0, "r", encoding="utf-8") as fh:
        x0 = [float(tok) for tok in fh.read().split()]
    steps = args.steps if args.steps is not None else horizon
    system = FracSystem(sysfile.matrix, sysfile.alpha, horizon)
    traj = simulate(system, x0, steps)
    if args.format == "json":
        _emit_json(
            {
                "schema": "fracplace.trajectory/1",
                "n": sysfile.n,
                "states": traj.states.tolist(),
            }
        )
    else:
        # the bytes csv.writer would give: no field here needs quoting
        out = sys.stdout
        out.write(",".join(["k"] + [f"x{i + 1}" for i in range(sysfile.n)]) + "\r\n")
        # one format call per row, with the digits _fmt gives each value
        values = ",".join(["%.17g"] * sysfile.n)
        for k, row in enumerate(traj.states):
            out.write(f"{k}," + values % tuple(row) + "\r\n")
    return 0


def _parse_levels(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"cannot parse sparsity levels '{text}'")


def _cmd_sweep(args) -> int:
    from .sweep import SweepSpec, run_sweep

    base = None
    n = args.n
    if args.base is not None:
        sysfile = load_system_file(args.base)
        if not sysfile.numeric:
            raise ValueError("sweep base file must hold numeric matrix values")
        base = sysfile.matrix
        n = None
    elif n is None:
        raise ValueError("give --n for the random ensemble or --base FILE")
    spec = SweepSpec(
        levels=_parse_levels(args.levels),
        trials=args.trials,
        n=n,
        base_matrix=base,
        horizon=args.k,
        seed=args.seed,
    )
    rows = run_sweep(spec)
    if args.format == "json":
        _emit_json(
            {
                "schema": "fracplace.sweep/1",
                "rows": [
                    {
                        "sparsity": r.sparsity,
                        "trial": r.trial,
                        "n_sensors": r.n_sensors,
                        "beta": r.beta,
                        "K": r.horizon,
                    }
                    for r in rows
                ],
            }
        )
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(["sparsity", "trial", "n_sensors", "beta", "K"])
        for r in rows:
            writer.writerow(
                [_fmt(r.sparsity), r.trial, r.n_sensors, r.beta, r.horizon]
            )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracplace",
        description=(
            "Minimum dedicated sensor placement for structural observability "
            "of discrete-time fractional-order linear systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_tol=True):
        p.add_argument("--k", type=int, default=None, help="horizon override")
        if with_tol:
            p.add_argument(
                "--tol",
                type=float,
                default=1e-12,
                help="zero threshold when thresholding numeric entries into a "
                "pattern (default 1e-12)",
            )
        p.add_argument(
            "--format", choices=("json", "csv"), default=None, help="output format"
        )

    p = sub.add_parser("place", help="compute a minimal sensor placement")
    p.add_argument("file", help="system file")
    common(p)
    p.add_argument(
        "--strict-j3",
        action="store_true",
        help="place a reachability sensor in every uncovered sink SCC even "
        "when one of its states already carries a sensor",
    )
    p.set_defaults(run=_cmd_place, default_format="json")

    p = sub.add_parser("verify", help="check a sensor set")
    p.add_argument("file", help="system file")
    common(p)
    p.add_argument(
        "--sensors", required=True, help="comma-separated 1-based state indices"
    )
    p.set_defaults(run=_cmd_verify, default_format="json")

    p = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    p.add_argument("file", help="system file (numeric matrix required)")
    common(p, with_tol=False)
    p.add_argument("--x0", required=True, help="file with n initial values")
    p.add_argument("--steps", type=int, default=None, help="steps to simulate")
    p.set_defaults(run=_cmd_simulate, default_format="csv")

    p = sub.add_parser("sweep", help="sparsity sweep to CSV")
    common(p, with_tol=False)
    p.add_argument("--n", type=int, default=None, help="random ensemble dimension")
    p.add_argument("--base", default=None, help="numeric system file to sparsify")
    p.add_argument(
        "--levels",
        default="0.0,0.25,0.5,0.75,0.9",
        help="comma-separated sparsity levels in [0, 1)",
    )
    p.add_argument("--trials", type=int, default=1, help="trials per level")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(run=_cmd_sweep, default_format="csv")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = args.default_format
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"fracplace: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
