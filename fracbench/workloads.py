"""The seeded workloads: input generation and the operations each one times.

A workload is a sequence of rounds that repeat the same operations on the
same inputs.  A run with seed ``s`` draws those inputs once from
``numpy.random.default_rng([s, tag])``, so the same seed gives the same
inputs whatever the run length, and each operation's fastest call is
taken over identical calls.  The program only sees the generated system
files (or, for ``sweep-small``, the generated patterns).

Each :class:`Op` has a ``run`` callable (the timed call into fracplace)
and a ``check`` callable that judges its result with :mod:`checks`, which
never calls fracplace.  ``run`` looks fracplace's functions up on their
modules at call time, so the spans :mod:`tracing` patches in are seen.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import fracplace.cli
import fracplace.placement
import numpy as np
from fracplace.structure import pattern_of

import checks

# the sparsity grid of the README sweep experiment (scripts/run_sweep.py)
README_LEVELS = (0.0, 0.5, 0.75, 0.875, 0.9375, 0.96875, 0.984375, 0.9921875)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    # takes what run returned; returns a list of problems
    check: Callable[[object], list]
    # CLI ops return (exit code, stdout); exit code 2 means the op failed
    cli: bool = True


def cli_call(argv: list[str]) -> tuple[int, str]:
    """``fracplace.cli.main(argv)`` with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = fracplace.cli.main(argv)
    return code, buf.getvalue()


def random_pattern(rng: np.random.Generator, n: int, sparsity: float) -> np.ndarray:
    """Uniform ensemble: round((1 - sparsity) n^2) positions, no repeats."""
    total = n * n
    P = np.zeros(total, dtype=bool)
    P[rng.choice(total, size=int(round((1.0 - sparsity) * total)), replace=False)] = True
    return P.reshape(n, n)


def _numbers(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def write_pattern_file(path: Path, P: np.ndarray, horizon: int) -> str:
    rows, cols = np.nonzero(P)
    lines = ["fracsys 1", f"n {P.shape[0]}", "alpha 0.8", f"k {horizon}", "matrix pattern"]
    lines += [f"{r + 1} {c + 1}" for r, c in zip(rows.tolist(), cols.tolist())]
    lines.append("end")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_dense_file(path: Path, A: np.ndarray, alpha: np.ndarray, horizon: int) -> str:
    lines = ["fracsys 1", f"n {A.shape[0]}", f"alpha {_numbers(alpha)}", f"k {horizon}"]
    lines.append("matrix dense")
    lines += [_numbers(row) for row in A]
    lines.append("end")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class Workload:
    """Base: ``make_ops(rng, workdir)`` builds the ops of every round."""

    name = ""
    tag = 0
    # the calibrate kernel whose work is like the workload's
    kernel = "interpreted"

    def ops(self, seed: int, workdir: Path) -> list[Op]:
        """The ops every round repeats, drawn once from ``default_rng([seed, tag])``."""
        return self.make_ops(np.random.default_rng([seed, self.tag]), workdir)

    def warmup(self, seed: int, workdir: Path, ops: list[Op]) -> Op:
        """The untimed op run before timing starts: the first op of a round."""
        return ops[0]

    def make_ops(self, rng, workdir: Path) -> list[Op]:
        raise NotImplementedError


class PlaceMixed(Workload):
    """``fracplace place``, alternating giant-SCC and fragmented patterns."""

    name = "place-mixed"
    tag = 1
    pairs = 4
    # The giant n is chosen so both regimes take about as long per op.
    # Every giant pattern has the complete union, so every giant op does
    # the same work.  Fragmented ops do not: their time follows the union's
    # size and shape, which vary widely from draw to draw.  So the
    # fragmented patterns are fixed draws whose union holds 7n to 9n
    # entries, and a seed relabels their states: one seed's ops then cost
    # what another's do.
    giant_n, giant_sparsity = 112, 0.9
    fragmented_n, fragmented_band = 256, (7, 9)

    def fragmented_base(self, i: int) -> np.ndarray:
        """Fragmented pattern ``i``, the same for every seed."""
        n = self.fragmented_n
        base_rng = np.random.default_rng([self.tag, i, 0])
        while True:
            P = random_pattern(base_rng, n, 1.0 - 1.0 / n)
            entries = checks.union_pattern(P, n).sum()
            if self.fragmented_band[0] * n <= entries <= self.fragmented_band[1] * n:
                return P

    def make_ops(self, rng, workdir):
        out = []
        for i in range(self.pairs):
            giant = random_pattern(rng, self.giant_n, self.giant_sparsity)
            perm = rng.permutation(self.fragmented_n)
            fragmented = self.fragmented_base(i)[np.ix_(perm, perm)]
            for label, P in (("giant", giant), ("fragmented", fragmented)):
                n = P.shape[0]
                U = checks.union_pattern(P, n)
                path = write_pattern_file(workdir / f"place-{label}-{i}.fsys", P, n)

                def check(result, U=U):
                    code, stdout = result
                    if code != 0:
                        return [f"exit code {code}"]
                    return checks.check_place_output(U, stdout)

                out.append(Op(f"{label}-{i}", partial(cli_call, ["place", path]), check))
        return out


class SweepSmall(Workload):
    """Three sweeps of ``minimal_sensors`` over the README sweep grid, n = 32.

    One op is one sweep: a placement at each of the eight sparsity levels.
    A single placement takes from about 12 ms at the sparsest levels to
    30 ms at the densest, so the median over single placements was the time
    of whichever level sat in the middle, and it moved with the draws.
    Whole sweeps are similar in size.
    """

    name = "sweep-small"
    tag = 2
    n = 32
    sweeps = 3

    def make_ops(self, rng, workdir):
        out = []
        for i in range(self.sweeps):
            cases = []
            for level in README_LEVELS:
                P = random_pattern(rng, self.n, level)
                cases.append((level, pattern_of(P.astype(float)), checks.union_pattern(P, self.n)))

            def run(cases=cases):
                return [fracplace.placement.minimal_sensors(pattern, self.n)
                        for _, pattern, _ in cases]

            def check(reports, cases=cases):
                problems = []
                for (level, _, U), report in zip(cases, reports):
                    problems += [
                        f"sparsity={level}: {p}"
                        for p in checks.check_placement(
                            U, report.sensors.all, report.beta, report.matching_cardinality
                        )
                    ]
                return problems

            out.append(Op(f"sweep-{i}", run, check, cli=False))
        return out


class SimulateNumeric(Workload):
    """``fracplace simulate`` on a dense n = 256 realization, K = steps = 256."""

    name = "simulate-numeric"
    tag = 4
    kernel = "streaming"

    def __init__(self, n: int = 256, steps: int = 256):
        self.n, self.steps = n, steps

    def warmup(self, seed, workdir, ops):
        return SimulateNumeric(32, 32).ops(seed, workdir)[0]

    def make_ops(self, rng, workdir):
        n = self.n
        # coupling N(0, 0.49/n) and orders in [0.5, 0.9) keep |x_k| of order 1
        A = rng.normal(0.0, 0.7 / np.sqrt(n), (n, n))
        alpha = rng.uniform(0.5, 0.9, n)
        x0 = rng.normal(0.0, 1.0, n)
        sysfile = write_dense_file(workdir / f"sim-{n}.fsys", A, alpha, self.steps)
        x0file = workdir / f"sim-{n}.x0"
        x0file.write_text(_numbers(x0) + "\n", encoding="utf-8")
        argv = ["simulate", sysfile, "--x0", str(x0file), "--steps", str(self.steps)]

        ref = checks.reference_trajectory(A, alpha, x0, self.steps)

        def check(result):
            code, stdout = result
            if code != 0:
                return [f"exit code {code}"]
            return checks.check_trajectory_csv(ref, stdout)

        return [Op("dense", partial(cli_call, argv), check)]


WORKLOADS = {w.name: w for w in (PlaceMixed(), SweepSmall(), SimulateNumeric())}
