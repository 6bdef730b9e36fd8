"""Numeric layer for discrete-time fractional-order linear systems.

A system is described by a real n x n coupling matrix A, a vector of
positive fractional orders alpha (one per state), and a finite horizon.
The closed-form solution is carried by a sequence of transition factor
matrices T_0..T_K with

    T_0 = A,      T_k = A T_{k-1} + sum_{j=1}^{k-1} D_j T_{k-1-j}

where D_j = diag(c_j(alpha_1), ..., c_j(alpha_n)) holds the
Grunwald-Letnikov memory tail coefficients, and the trajectory is
x_k = T_k x_0 for k >= 1.  One block recursion runs this sequence: on the
factors themselves (:func:`transition_factors`), on the vector T_k x_0
(:func:`simulate`), and, transposed, on the sensor rows of the observability
test (:func:`is_observable_numeric`), which so never builds an n x n factor.

Everything in this module is a pure function of its inputs; all returned
containers hold read-only arrays and are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection

import numpy as np

__all__ = [
    "FracSystem",
    "GlCoefficients",
    "TransitionSequence",
    "Trajectory",
    "gl_coefficient",
    "gl_tails",
    "transition_factors",
    "simulate",
    "numeric_rank",
    "is_observable_numeric",
]

# Dense transition factors are refused above this state dimension; use the
# structural path instead, which never materializes numeric matrices.
MAX_DENSE_DIMENSION = 512
# A factor stack or observability matrix larger than this many bytes is
# refused before anything is allocated; n = K = 512 takes 1 GiB.
MAX_FACTOR_STACK_BYTES = 2 * 2**30
# simulate's memory term costs n * steps * (steps + 1) / 2 multiply-adds, the
# observability test's n * |S| * K * (K + 1) / 2; a run above this many is
# refused before anything is allocated.
# At the 0.5-0.9 ns per multiply-add measured on one Xeon core that caps
# the term near 15 s, and still admits n = 64 at 23,000 steps or n = 512 at
# 8,000.
MAX_SIMULATION_WORK = 2**34


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _adopt(cls, field: str, a: np.ndarray):
    # a cls holding an array this module has just built, frozen but not copied
    a.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, field, a)
    return obj


@dataclass(frozen=True)
class FracSystem:
    """A fractional-order difference system: coupling matrix, orders, horizon.

    ``horizon`` is the number of transition factors kept beyond T_0; it
    defaults to the state dimension when omitted.
    """

    A: np.ndarray
    alpha: np.ndarray
    horizon: int | None = None

    def __post_init__(self):
        A = _readonly(self.A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {A.shape}")
        alpha = _readonly(self.alpha).reshape(-1)
        if alpha.shape[0] != A.shape[0]:
            raise ValueError(
                f"need one order per state: {alpha.shape[0]} orders for "
                f"{A.shape[0]} states"
            )
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValueError("every fractional order must be finite and > 0")
        horizon = self.horizon
        if horizon is None:
            horizon = A.shape[0]
        horizon = int(horizon)
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "horizon", horizon)

    @property
    def n(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class GlCoefficients:
    """Per-state memory tail coefficients.

    ``table[i, j-1]`` is the diagonal entry of the j-th tail matrix D_j
    for state i, j = 1..horizon.
    """

    table: np.ndarray

    def __post_init__(self):
        table = _readonly(self.table)
        if table.ndim != 2:
            raise ValueError("coefficient table must be 2-d (state x tail index)")
        if not np.all(np.isfinite(table)):
            raise ValueError("tail coefficients must be finite")
        object.__setattr__(self, "table", table)

    @property
    def n(self) -> int:
        return self.table.shape[0]

    @property
    def horizon(self) -> int:
        return self.table.shape[1]


@dataclass(frozen=True)
class TransitionSequence:
    """Stack of transition factors T_0..T_K, shape (K+1, n, n)."""

    stack: np.ndarray

    def __post_init__(self):
        stack = _readonly(self.stack)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("expected a (K+1, n, n) stack of square matrices")
        object.__setattr__(self, "stack", stack)

    @property
    def horizon(self) -> int:
        return self.stack.shape[0] - 1

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return self.stack.shape[0]

    def __getitem__(self, k: int) -> np.ndarray:
        return self.stack[k]


@dataclass(frozen=True)
class Trajectory:
    """States x_0..x_T as rows of a (T+1, n) array."""

    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", _readonly(self.states))

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1

    def __getitem__(self, k: int) -> np.ndarray:
        return self.states[k]


def gl_coefficient(alpha: float, j: int) -> float:
    """Grunwald-Letnikov tail coefficient -(-1)**(j+1) * C(alpha, j+1).

    The generalized binomial C(alpha, m) is evaluated by the product
    recurrence C(alpha, m) = C(alpha, m-1) * (alpha - m + 1) / m starting
    from C(alpha, 0) = 1.  Gamma-function quotients are deliberately not
    used: at integer alpha the quotient form hits poles exactly where the
    coefficient is 0, while the recurrence is exact there.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    j = int(j)
    if j < 1:
        raise ValueError("tail index j must be >= 1")
    b = 1.0
    for m in range(1, j + 2):
        b *= (alpha - m + 1) / m
    return (-b if j % 2 else b) + 0.0  # + 0.0 canonicalizes -0.0


def gl_tails(system: FracSystem) -> GlCoefficients:
    """Tail coefficient table for all states, j = 1..horizon.

    The j = 0 matrix is the system's coupling matrix itself and is not
    stored here.  For integer orders the table is exactly zero past the
    order (the recurrence hits an exact zero factor).
    """
    n, horizon = system.n, system.horizon
    table = np.empty((n, horizon))
    b = system.alpha.copy()  # C(alpha, 1)
    for m in range(2, horizon + 2):
        b = b * (system.alpha - m + 1) / m  # C(alpha, m), m = j + 1
        table[:, m - 2] = (-b if (m - 1) % 2 else b) + 0.0
    return _adopt(GlCoefficients, "table", table)


def _check_limits(what: str, remedy: str, work: int = 0, nbytes: int = 0) -> None:
    if work > MAX_SIMULATION_WORK:
        raise ValueError(
            f"{what} {work:.2e} memory-term operations, above the limit of "
            f"{MAX_SIMULATION_WORK:.2e}; {remedy}"
        )
    if nbytes > MAX_FACTOR_STACK_BYTES:
        raise ValueError(
            f"{what} {nbytes / 2**30:.1f} GiB, above the "
            f"{MAX_FACTOR_STACK_BYTES / 2**30:.0f} GiB limit; {remedy}"
        )


def _recursion(A: np.ndarray, tails: np.ndarray, Y0: np.ndarray, steps: int) -> np.ndarray:
    """Y_0..Y_steps of Y_k = A Y_{k-1} + sum_{j=1}^{k-1} D_j Y_{k-1-j}, Y_0 an n x m block.

    Reversed in time, shape (n, steps + 1, m): Y_k is ``hist[:, steps - k]``,
    so the memory term of every step reads one contiguous slice.
    """
    hist = np.empty((Y0.shape[0], steps + 1, Y0.shape[1]))
    hist[:, steps] = Y0
    for k in range(1, steps + 1):
        y = A @ hist[:, steps - k + 1]
        if k >= 2:
            y += np.einsum("ij,ijm->im", tails[:, : k - 1], hist[:, steps - k + 2 :])
        hist[:, steps - k] = y
    return hist


def transition_factors(system: FracSystem) -> TransitionSequence:
    """Transition factors T_0..T_K of the closed-form solution.

    T_0 = A and T_k = A T_{k-1} + sum_{j=1}^{k-1} D_j T_{k-1-j}, with the D_j
    from :func:`gl_tails`: the block recursion on Y_0 = A, whose history the
    returned stack views.  O(K n^3 + K^2 n^2) time and O(K n^2) memory.
    """
    n, K = system.n, system.horizon
    if n > MAX_DENSE_DIMENSION:
        raise ValueError(
            f"dense transition factors refused for n={n} > {MAX_DENSE_DIMENSION}; "
            "use the structural path, which never builds numeric factors"
        )
    what = f"transition factors for n={n}, K={K} need"
    _check_limits(what, "lower the horizon or the number of steps", nbytes=(K + 1) * n * n * 8)
    hist = _recursion(system.A, gl_tails(system).table, system.A, K)
    return _adopt(TransitionSequence, "stack", hist[:, ::-1].transpose(1, 0, 2))


def simulate(system: FracSystem, x0: np.ndarray, steps: int) -> Trajectory:
    """Trajectory x_0..x_steps via x_k = T_k x_0 (k >= 1).

    The factor recursion is applied to x_0 rather than built: the block
    recursion on Y_0 = A x_0 gives y_k = T_k x_0 with no factor ever formed.
    That costs O(steps n^2 + steps^2 n) time and O(steps n) memory; the
    result agrees with ``transition_factors(...).stack[k] @ x0`` up to
    rounding in the last digits.  ``steps`` must not exceed the system
    horizon, ``x0`` must be finite, and runs whose memory term exceeds
    ``MAX_SIMULATION_WORK`` multiply-adds are refused before anything is
    allocated.  A trajectory that leaves the float64 range raises ValueError
    naming the first step with a non-finite state.
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps > system.horizon:
        raise ValueError(
            f"steps={steps} exceeds horizon K={system.horizon}; "
            "extend the horizon to simulate further"
        )
    n = system.n
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != n:
        raise ValueError(f"x0 has {x0.shape[0]} entries, expected {n}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state values must be finite")
    work = n * steps * (steps + 1) // 2
    _check_limits(f"simulating n={n} for {steps} steps needs", "lower the number of steps", work)
    A = system.A
    tails = gl_tails(FracSystem(A, system.alpha, steps)).table
    # an overflow is reported once, below, as an error rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        hist = _recursion(A, tails, (A @ x0)[:, None], steps)
    states = hist[:, ::-1, 0].T  # row k is y_k
    states[0] = x0
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"the trajectory overflows float64 at step {int(np.argmin(finite))}; "
            "lower the number of steps"
        )
    return Trajectory(states)  # copied: row k of the reversed view is strided


def numeric_rank(M: np.ndarray, tol: float) -> int:
    """Rank as the number of singular values above tol * (largest one).

    The threshold is relative to the largest singular value; an empty or
    all-zero matrix has rank 0.
    """
    if tol <= 0:
        raise ValueError("tolerance must be > 0")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def is_observable_numeric(
    system: FracSystem, sensors: Collection[int], tol: float = 1e-9
) -> bool:
    """Realization-level observability test for a dedicated sensor set.

    Stacks the selector rows C of the sensor states at time zero together
    with their rows C T_0..C T_K of every transition factor (the
    measurements y_0..y_{K+1}) and checks that the stack has full column
    rank n.  The time-zero block is included: without it a sensor on a
    state with no outgoing coupling could never certify its own initial
    value, and the structural criteria this oracle validates do count that
    reading.

    No factor is formed.  The rows R_0 = C and R_k = R_{k-1} A +
    sum_{j=1}^{k-1} R_{k-1-j} D_j give C T_k = R_k A; their transposes are
    the block recursion on (A^T, C^T), in O(K |S| n^2 + K^2 |S| n) time and
    O(K |S| n) memory.  A memory term n |S| K (K + 1) / 2 above
    ``MAX_SIMULATION_WORK``, or a stack above ``MAX_FACTOR_STACK_BYTES``, is
    refused before anything is allocated.

    Rows are scaled to unit max-magnitude before the rank test so that the
    geometric growth of the factors cannot mask small but genuine rank
    contributions at the given tolerance.  Scaling rows by positive
    constants leaves the exact rank unchanged.

    The float rank can still miss an observable realization: a dense
    N(0, 1/n) coupling with orders in [0.9, 1.3), one sensor on state 0
    and ``default_rng(0)`` gives False at n = 64, where the rank of the
    stack computed exactly mod 2**31 - 1 is 64.  False is therefore no
    proof of unobservability (ROADMAP item 5).
    """
    n, K = system.n, system.horizon
    idx = sorted(set(int(s) for s in sensors))
    if any(s < 0 or s >= n for s in idx):
        raise ValueError(f"sensor indices must lie in 0..{n - 1}")
    if not idx:
        return False
    m = len(idx)
    what = f"testing n={n} with {m} sensors over K={K} needs"
    _check_limits(what, "lower the horizon", n * m * K * (K + 1) // 2, (K + 2) * m * n * 8)
    stacked = np.zeros((K + 2, m, n))
    stacked[0, range(m), idx] = 1.0  # C
    # R_k^T is hist[:, K - k]; R_k A goes straight into block k + 1
    hist = _recursion(system.A.T, gl_tails(system).table, stacked[0].T, K)
    np.matmul(hist.transpose(1, 2, 0)[::-1], system.A, out=stacked[1:])
    del hist  # freed before the SVD
    stacked = stacked.reshape(-1, n)
    scale = np.abs(stacked).max(axis=1)
    scale[scale == 0.0] = 1.0  # an all-zero row adds no rank
    stacked /= scale[:, None]
    return numeric_rank(stacked, tol) == n
