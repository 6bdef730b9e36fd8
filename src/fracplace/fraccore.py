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
from typing import Collection

import numpy as np

from . import _EXPORTS
from .structure import _at_least, _states, _Value

__all__ = list(_EXPORTS["fraccore"])

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


class _ArrayValue(_Value):
    """A value type with numpy array fields.

    Array fields compare by shape and entries (``np.array_equal``), so
    ``==`` has a plain truth value; the hash still raises TypeError on an
    array.  Pickle and copy rebuild the value through its constructor,
    which copies the arrays and makes them read-only again.
    """

    # kept, not dropped with the new __eq__: a SweepSpec without a base
    # matrix holds no array and stays hashable
    __hash__ = _Value.__hash__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            np.array_equal(a, b) if np.ndarray in (type(a), type(b)) else a == b
            for a, b in zip(self._values(), other._values())
        )

    def __reduce__(self):
        return self.__class__, self._values()


def _adopt(cls, field: str, a: np.ndarray):
    # a cls holding an array this module has just built, frozen but not copied
    a.setflags(write=False)
    obj = object.__new__(cls)
    object.__setattr__(obj, field, a)
    return obj


class FracSystem(_ArrayValue):
    """A fractional-order difference system: coupling matrix, orders, horizon.

    ``horizon`` is the number of transition factors kept beyond T_0; it
    defaults to the state dimension when omitted, and is taken through
    ``operator.index``: a float raises TypeError.
    """

    _fields = ("A", "alpha", "horizon")
    A: np.ndarray
    alpha: np.ndarray
    horizon: int

    def __init__(self, A: np.ndarray, alpha: np.ndarray, horizon: int | None = None):
        A = _readonly(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"coupling matrix must be square, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("every coupling matrix entry must be finite")
        alpha = _readonly(alpha).reshape(-1)
        if alpha.shape[0] != A.shape[0]:
            raise ValueError(
                f"need one order per state: {alpha.shape[0]} orders for "
                f"{A.shape[0]} states"
            )
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0.0):
            raise ValueError("every fractional order must be finite and > 0")
        if horizon is None:
            horizon = A.shape[0]
        super().__init__(A, alpha, _at_least(horizon, 0, "horizon must be >= 0"))

    @property
    def n(self) -> int:
        return self.A.shape[0]


class GlCoefficients(_ArrayValue):
    """Per-state memory tail coefficients.

    ``table[i, j-1]`` is the diagonal entry of the j-th tail matrix D_j
    for state i, j = 1..horizon.
    """

    _fields = ("table",)
    table: np.ndarray

    def __init__(self, table: np.ndarray):
        table = _readonly(table)
        if table.ndim != 2:
            raise ValueError("coefficient table must be 2-d (state x tail index)")
        if not np.all(np.isfinite(table)):
            raise ValueError("tail coefficients must be finite")
        super().__init__(table)


class TransitionSequence(_ArrayValue):
    """Stack of transition factors T_0..T_K, shape (K+1, n, n)."""

    _fields = ("stack",)
    stack: np.ndarray

    def __init__(self, stack: np.ndarray):
        stack = _readonly(stack)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("expected a (K+1, n, n) stack of square matrices")
        super().__init__(stack)

    def __getitem__(self, k: int) -> np.ndarray:
        return self.stack[k]


class Trajectory(_ArrayValue):
    """States x_0..x_T as rows of a (T+1, n) array."""

    _fields = ("states",)
    states: np.ndarray

    def __init__(self, states: np.ndarray):
        super().__init__(_readonly(states))


def _tail_table(alpha: np.ndarray, horizon: int) -> np.ndarray:
    """The tail coefficients of orders ``alpha``: entry [i, j-1] for j = 1..horizon.

    C(alpha, m) runs the product recurrence C(alpha, m) = C(alpha, m-1) *
    (alpha - m + 1) / m from C(alpha, 1) = alpha, elementwise, so every
    entry is the same float whichever other orders share the table.
    """
    table = np.empty((alpha.shape[0], horizon))
    b = alpha.copy()  # C(alpha, 1)
    for m in range(2, horizon + 2):
        b = b * (alpha - m + 1) / m  # C(alpha, m), m = j + 1
        table[:, m - 2] = (-b if (m - 1) % 2 else b) + 0.0  # + 0.0 canonicalizes -0.0
    return table


def gl_coefficient(alpha: float, j: int) -> float:
    """Grunwald-Letnikov tail coefficient -(-1)**(j+1) * C(alpha, j+1).

    The generalized binomial C(alpha, m) is evaluated by the product
    recurrence C(alpha, m) = C(alpha, m-1) * (alpha - m + 1) / m starting
    from C(alpha, 1) = alpha.  Gamma-function quotients are deliberately not
    used: at integer alpha the quotient form hits poles exactly where the
    coefficient is 0, while the recurrence is exact there.  The value is
    bit for bit that of :func:`gl_tails` for the same order, and ``j`` is
    taken through ``operator.index``: a float raises TypeError.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    j = _at_least(j, 1, "tail index j must be >= 1")
    return float(_tail_table(np.array([alpha]), j)[0, j - 1])


def gl_tails(system: FracSystem) -> GlCoefficients:
    """Tail coefficient table for all states, j = 1..horizon.

    The j = 0 matrix is the system's coupling matrix itself and is not
    stored here.  For integer orders the table is exactly zero past the
    order (the recurrence hits an exact zero factor).
    """
    return _adopt(GlCoefficients, "table", _tail_table(system.alpha, system.horizon))


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


def _check_finite(finite: np.ndarray, message: str) -> None:
    # one truth value per step or factor k; the error names the first k that is False
    if not finite.all():
        raise ValueError(message % int(np.argmin(finite)))


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
    returned stack views.  O(K n^3 + K^2 n^2) time and O(K n^2) memory.  A
    factor that leaves the float64 range raises ValueError naming the first
    non-finite T_k.
    """
    n, K = system.n, system.horizon
    if n > MAX_DENSE_DIMENSION:
        raise ValueError(
            f"dense transition factors refused for n={n} > {MAX_DENSE_DIMENSION}; "
            "use the structural path, which never builds numeric factors"
        )
    what = f"transition factors for n={n}, K={K} need"
    _check_limits(what, "lower the horizon", nbytes=(K + 1) * n * n * 8)
    # an overflow is reported once, below, as an error rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        hist = _recursion(system.A, gl_tails(system).table, system.A, K)
    stack = hist[:, ::-1].transpose(1, 0, 2)
    finite = np.array([np.isfinite(T).all() for T in stack])  # one factor's mask at a time
    _check_finite(finite, "the transition factors overflow float64 at T_%d; lower the horizon")
    return _adopt(TransitionSequence, "stack", stack)


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
    naming the first step with a non-finite state.  ``steps`` is taken
    through ``operator.index``: a float raises TypeError.
    """
    steps = _at_least(steps, 0, "steps must be >= 0")
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
    tails = _tail_table(system.alpha, steps)
    # an overflow is reported once, below, as an error rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        hist = _recursion(A, tails, (A @ x0)[:, None], steps)
    states = hist[:, ::-1, 0].T  # row k is y_k
    states[0] = x0
    finite = np.isfinite(states).all(axis=1)
    _check_finite(finite, "the trajectory overflows float64 at step %d; lower the number of steps")
    return Trajectory(states)  # copied: row k of the reversed view is strided


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError("tolerance must be finite and > 0")


def numeric_rank(M: np.ndarray, tol: float) -> int:
    """Rank as the number of singular values above tol * (largest one).

    The threshold is relative to the largest singular value; an empty or
    all-zero matrix has rank 0.  A matrix with an infinite or NaN entry
    has no rank to report and raises ValueError.
    """
    _check_tol(tol)
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    if not (np.isfinite(M.min()) and np.isfinite(M.max())):  # NaN propagates; no mask copy
        raise ValueError("matrix entries must be finite")
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
    refused before anything is allocated.  A stack that leaves the float64
    range raises ValueError naming the first factor with a non-finite row.

    Rows are scaled to unit max-magnitude before the rank test so that the
    geometric growth of the factors cannot mask small but genuine rank
    contributions at the given tolerance.  Scaling rows by positive
    constants leaves the exact rank unchanged.

    The float rank can still miss an observable realization: a dense
    N(0, 1/n) coupling with orders in [0.9, 1.3), one sensor on state 0
    and ``default_rng(0)`` gives False at n = 64, where the rank of the
    stack computed exactly mod 2**31 - 1 is 64.  False is therefore no
    proof of unobservability (ROADMAP, "A rank test that streams, stops at
    rank n, and has an exact twin").
    """
    _check_tol(tol)
    n, K = system.n, system.horizon
    idx = _states(n, sensors)
    if not idx:
        return False
    m = len(idx)
    what = f"testing n={n} with {m} sensors over K={K} needs"
    _check_limits(what, "lower the horizon", n * m * K * (K + 1) // 2, (K + 2) * m * n * 8)
    stacked = np.zeros((K + 2, m, n))
    stacked[0, range(m), idx] = 1.0  # C
    # R_k^T is hist[:, K - k]; R_k A goes straight into block k + 1
    # an overflow is reported once, below, as an error rather than a warning
    with np.errstate(over="ignore", invalid="ignore"):
        hist = _recursion(system.A.T, gl_tails(system).table, stacked[0].T, K)
        np.matmul(hist.transpose(1, 2, 0)[::-1], system.A, out=stacked[1:])
    del hist  # freed before the SVD
    stacked = stacked.reshape(-1, n)
    scale = np.abs(stacked).max(axis=1)  # inf or NaN on a non-finite row
    finite = np.isfinite(scale[m:]).reshape(K + 1, m).all(axis=1)  # rows C T_0..C T_K
    _check_finite(finite, "the observability rows overflow float64 at C T_%d; lower the horizon")
    scale[scale == 0.0] = 1.0  # an all-zero row adds no rank
    stacked /= scale[:, None]
    return numeric_rank(stacked, tol) == n
