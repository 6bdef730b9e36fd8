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

# Loaded here is only what every subcommand runs; each subcommand imports
# the rest itself, so `simulate` never loads the placement engine and CSV
# output never loads json.
import argparse
import functools
import sys
import warnings

from .structure import _ZERO_TOL
from .sysfile import _load_initial_state, _numbers, load_system_file

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _one_based(indices) -> list[int]:
    return sorted(int(i) + 1 for i in indices)


def _emit_json(doc: dict):
    import json

    # one write: json.dump would write each indented chunk on its own
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _emit_csv(header, lines):
    # the bytes csv.writer gives: no field here holds a comma, a quote or a newline
    write = sys.stdout.write
    write(",".join(header) + "\r\n")
    for line in lines:
        write(line + "\r\n")


def _emit_doc(doc: dict, fmt: str):
    """One JSON object, or a CSV header of its keys over one row, lists joined by ';'."""
    if fmt == "json":
        _emit_json(doc)
    else:
        cells = (";".join(map(str, v)) if isinstance(v, list) else str(v) for v in doc.values())
        _emit_csv(doc, [",".join(cells)])


def _number_list(text: str, kind, what: str) -> tuple:
    """The comma- or space-separated numbers of a flag, each read by ``kind``."""
    try:
        return _numbers(text.replace(",", " ").split(), kind)
    except ValueError:
        raise ValueError(f"cannot parse {what} '{text}'") from None


# the argparse types of the numeric flags; argparse names them in its error
def integer(text: str) -> int:
    return _numbers((text,), int)[0]


def number(text: str) -> float:
    return _numbers((text,), float)[0]


def _resolve_horizon(args, sysfile) -> int:
    if args.k is not None:
        return args.k
    if sysfile.horizon is not None:
        return sysfile.horizon
    return sysfile.n


def _cmd_place(args) -> int:
    from .placement import minimal_sensors

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
    _emit_doc(doc, args.format)
    return 0


def _cmd_verify(args) -> int:
    from .placement import verify_observability

    sysfile = load_system_file(args.file)
    horizon = _resolve_horizon(args, sysfile)
    sensors_1b = _number_list(args.sensors, int, "sensor list")
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
    _emit_doc(doc, args.format)
    return 0 if cert.observable else 1


def _cmd_simulate(args) -> int:
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
    x0 = _load_initial_state(args.x0)
    steps = args.steps if args.steps is not None else horizon
    system = FracSystem(sysfile.values, sysfile.orders, horizon)
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
        # one format call per row, with the digits _fmt gives each value;
        # row.tolist() gives floats, so no numpy scalar is boxed, and only
        # one row is converted at a time
        values = ",".join(["%.17g"] * sysfile.n)
        _emit_csv(
            ["k"] + [f"x{i + 1}" for i in range(sysfile.n)],
            (f"{k}," + values % tuple(row.tolist()) for k, row in enumerate(traj.states)),
        )
    return 0


def _cmd_sweep(args) -> int:
    from .sweep import SweepRow, SweepSpec, run_sweep

    if args.n is None and args.base is None:
        raise ValueError("give --n for the random ensemble or --base FILE")
    if args.n is not None and args.base is not None:
        raise ValueError("give --n or --base FILE, not both")
    base = None
    if args.base is not None:
        sysfile = load_system_file(args.base)
        if not sysfile.numeric:
            raise ValueError("sweep base file must hold numeric matrix values")
        base = sysfile.values
    spec = SweepSpec(
        levels=_number_list(args.levels, float, "sparsity levels"),
        trials=args.trials,
        n=args.n,
        base_matrix=base,
        horizon=args.k,
        seed=args.seed,
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        rows = run_sweep(spec)
    # every trial of a clamped level warns alike: one line per message
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"fracplace: warning: {message}", file=sys.stderr)
    header = SweepRow._fields[:-1] + ("K",)
    if args.format == "json":
        _emit_json({"schema": "fracplace.sweep/1", "rows": [dict(zip(header, r)) for r in rows]})
    else:
        _emit_csv(header, (",".join([_fmt(r.sparsity), *map(str, r[1:])]) for r in rows))
    return 0


@functools.cache  # built on the first main() call, then shared by later calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracplace",
        description=(
            "Minimum dedicated sensor placement for structural observability "
            "of discrete-time fractional-order linear systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt, with_tol=True):
        p.add_argument("--k", type=integer, default=None, help="horizon override")
        if with_tol:
            p.add_argument(
                "--tol",
                type=number,
                default=_ZERO_TOL,
                help="zero threshold when thresholding numeric entries into a "
                "pattern (default %(default)s)",
            )
        p.add_argument(
            "--format", choices=("json", "csv"), default=fmt, help="output format"
        )

    p = sub.add_parser("place", help="compute a minimal sensor placement")
    p.add_argument("file", help="system file")
    common(p, "json")
    p.add_argument(
        "--strict-j3",
        action="store_true",
        help="kept for compatibility: every uncovered sink SCC already gets "
        "a reachability sensor, so the set is the same",
    )
    p.set_defaults(run=_cmd_place)

    p = sub.add_parser("verify", help="check a sensor set")
    p.add_argument("file", help="system file")
    common(p, "json")
    p.add_argument(
        "--sensors", required=True, help="comma-separated 1-based state indices"
    )
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    p.add_argument("file", help="system file (numeric matrix required)")
    common(p, "csv", with_tol=False)
    p.add_argument("--x0", required=True, help="file with n initial values")
    p.add_argument("--steps", type=integer, default=None, help="steps to simulate")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("sweep", help="sparsity sweep to CSV")
    common(p, "csv", with_tol=False)
    p.add_argument("--n", type=integer, default=None, help="random ensemble dimension")
    p.add_argument("--base", default=None, help="numeric system file to sparsify")
    p.add_argument(
        "--levels",
        default="0.0,0.25,0.5,0.75,0.9",
        help="comma-separated sparsity levels in [0, 1)",
    )
    p.add_argument("--trials", type=integer, default=1, help="trials per level")
    p.add_argument("--seed", type=integer, default=0, help="random seed")
    p.set_defaults(run=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"fracplace: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
