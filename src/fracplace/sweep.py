"""Sparsity sweep: sensor count as a function of coupling sparsity.

For each sparsity level and trial a pattern is produced, the minimal
placement is computed with the horizon equal to the state dimension
(unless overridden), and one result row is emitted.  Patterns come either
from a numeric base matrix, keeping the largest-magnitude entries until
the target density is reached, or from a uniform random ensemble.  A
fixed seed makes the whole sweep deterministic, trial by trial.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from .fraccore import _ArrayValue, _readonly
from .placement import minimal_sensors
from .structure import Pattern, _at_least

__all__ = list(_EXPORTS["sweep"])


class SweepSpec(_ArrayValue):
    """Sweep configuration.

    Exactly one of ``n`` (random ensemble of that dimension, >= 1) or
    ``base_matrix`` (finite numeric matrix to sparsify) must be given.
    Levels are sparsity fractions in [0, 1), sorted ascending;
    ``base_matrix`` is kept as a read-only copy.  ``trials``, ``n``,
    ``seed`` (>= 0) and ``horizon`` (>= 0 when given) are taken through
    ``operator.index``: a float raises TypeError.
    """

    _fields = ("levels", "trials", "n", "base_matrix", "horizon", "seed")
    levels: tuple
    trials: int
    n: int | None
    base_matrix: np.ndarray | None
    horizon: int | None
    seed: int

    def __init__(
        self,
        levels: tuple,
        trials: int,
        n: int | None = None,
        base_matrix: np.ndarray | None = None,
        horizon: int | None = None,
        seed: int = 0,
    ):
        levels = tuple(float(s) + 0.0 for s in levels)  # + 0.0 canonicalizes -0.0
        if not levels:
            raise ValueError("need at least one sparsity level")
        if any(not (0.0 <= s < 1.0) for s in levels):
            raise ValueError("sparsity levels must lie in [0, 1)")
        if list(levels) != sorted(levels):
            raise ValueError("sparsity levels must be sorted ascending")
        trials = _at_least(trials, 1, "need at least one trial per level")
        if (n is None) == (base_matrix is None):
            raise ValueError("give exactly one of n or base_matrix")
        if n is not None:
            n = _at_least(n, 1, "state dimension must be positive")
        if horizon is not None:
            horizon = _at_least(horizon, 0, "horizon must be >= 0")
        if base_matrix is not None:
            base_matrix = _readonly(np.atleast_2d(base_matrix))
            if base_matrix.shape[0] != base_matrix.shape[1]:
                raise ValueError("base matrix must be square")
            if not np.all(np.isfinite(base_matrix)):
                raise ValueError("every base matrix entry must be finite")
        seed = _at_least(seed, 0, "seed must be >= 0")
        super().__init__(levels, trials, n, base_matrix, horizon, seed)

    @property
    def dimension(self) -> int:
        return self.n if self.n is not None else self.base_matrix.shape[0]


class SweepRow(NamedTuple):
    sparsity: float
    trial: int
    n_sensors: int
    beta: int
    horizon: int


def _entry_budget(sparsity: float, total: int) -> int:
    return int(round((1.0 - sparsity) * total))


def _flat_pattern(n: int, flat: np.ndarray) -> Pattern:
    """The n x n pattern whose entries sit at the ascending row-major flat indices ``flat``.

    Rows are packed a block of about 2**18 cells at a time, so no n x n
    scratch buffer is made, whatever n is.
    """
    step = max(1, (1 << 18) // max(n, 1))
    masks = []
    for lo in range(0, n, step):
        start, stop = np.searchsorted(flat, (lo * n, (lo + step) * n))
        keep = np.zeros((min(step, n - lo), n), dtype=bool)
        keep.flat[flat[start:stop] - lo * n] = True
        rows = np.packbits(keep, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in rows)
    return Pattern.from_masks(n, n, masks)


def _random_pattern(n: int, sparsity: float, rng: np.random.Generator) -> Pattern:
    want = min(_entry_budget(sparsity, n * n), n * n)
    # no rng call for an empty draw, so no numpy version can advance the stream there
    flat = rng.choice(n * n, size=want, replace=False) if want else np.empty(0, np.int64)
    flat.sort()  # in place, so a dense draw is not copied
    return _flat_pattern(n, flat)


def _magnitude_order(base: np.ndarray) -> np.ndarray:
    """Flat indices of the nonzeros of ``base``, largest magnitude first.

    Ties keep ascending position, (row, col) order: the argsort is stable
    over the ascending flat indices.
    """
    flat = np.flatnonzero(base)
    return flat[np.argsort(-np.abs(base.ravel()[flat]), kind="stable")]


def _thresholded_pattern(n: int, order: np.ndarray, sparsity: float) -> Pattern:
    """The pattern of the largest-magnitude entries that meet the target density.

    ``order`` is the base matrix's :func:`_magnitude_order`.
    """
    want = _entry_budget(sparsity, n * n)
    if want > len(order):
        warnings.warn(
            f"target density needs {want} entries but the base matrix has only "
            f"{len(order)} nonzeros; clamping",
            stacklevel=3,
        )
        want = len(order)
    return _flat_pattern(n, np.sort(order[:want]))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """All sweep rows, ordered by level then trial, deterministic per seed."""
    n = spec.dimension
    horizon = spec.horizon if spec.horizon is not None else n
    rng = np.random.default_rng(spec.seed)
    if spec.base_matrix is not None:
        order = _magnitude_order(spec.base_matrix)  # sorted once per sweep
    rows = []
    for level in spec.levels:
        for trial in range(spec.trials):
            if spec.base_matrix is not None:
                pat = _thresholded_pattern(n, order, level)
            else:
                pat = _random_pattern(n, level, rng)
            report = minimal_sensors(pat, horizon)
            rows.append(
                SweepRow(level, trial, len(report.sensors), report.beta, horizon)
            )
    return rows
