"""Checks of fracplace outputs against computations made apart from it.

Only numpy and ``scipy.sparse.csgraph`` are used here: the union pattern
comes from boolean matrix products, sink SCCs from
``connected_components(connection="strong")``, generic ranks from
``maximum_bipartite_matching`` and trajectories from a vector recursion.
None of fracplace's own union, Tarjan, Hopcroft-Karp or tie-break code is
called.  Every ``check_*`` function returns a list of problems; an empty
list means the output is correct.

Conventions follow the fracplace README: entry (i, j) of a pattern is an
edge from state j to state i, and indices are 0-based here.
"""

from __future__ import annotations

import io
import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_bipartite_matching


def union_pattern(P: np.ndarray, horizon: int) -> np.ndarray:
    """Entries (i, j) with a walk of length 1..horizon+1 from j to i."""
    P = np.asarray(P, dtype=bool)
    Pf = P.astype(np.float32)
    acc = P.copy()
    for _ in range(horizon):
        new = P | ((Pf @ acc.astype(np.float32)) > 0)
        if np.array_equal(new, acc):
            break
        acc = new
    return acc


def accessible(U: np.ndarray, sensors) -> np.ndarray:
    """Mask of the states with a path to a sensor state (reverse reachability)."""
    seen = np.zeros(U.shape[0], dtype=bool)
    seen[list(sensors)] = True
    while True:
        # v precedes s when the edge v -> s exists, i.e. U[s, v]
        new = seen | U[seen].any(axis=0)
        if np.array_equal(new, seen):
            return seen
        seen = new


def unmatched_rows(M: np.ndarray) -> np.ndarray:
    """Rows that one maximum bipartite matching of a 0/1 matrix leaves unmatched."""
    if M.shape[1] == 0:
        return np.arange(M.shape[0])
    perm = maximum_bipartite_matching(
        csr_matrix(np.asarray(M, dtype=np.int8)), perm_type="column"
    )
    return np.flatnonzero(perm < 0)


def matching_size(M: np.ndarray) -> int:
    """Maximum bipartite matching of rows against columns of a 0/1 matrix."""
    return M.shape[0] - len(unmatched_rows(M))


def sink_sccs(U: np.ndarray) -> list[np.ndarray]:
    """Member arrays of the SCCs with no edge leaving them."""
    src, dst = np.nonzero(U.T)  # edges src -> dst
    graph = csr_matrix(U.T.astype(np.int8))
    count, labels = connected_components(graph, directed=True, connection="strong")
    has_out = np.zeros(count, dtype=bool)
    cross = labels[src] != labels[dst]
    has_out[labels[src[cross]]] = True
    return [np.flatnonzero(labels == c) for c in range(count) if not has_out[c]]


def _selector(n: int, sensors) -> np.ndarray:
    sel = np.zeros((n, len(sensors)), dtype=bool)
    sel[list(sensors), np.arange(len(sensors))] = True
    return sel


def certify(U: np.ndarray, sensors) -> dict:
    """Both structural conditions for a sensor set, computed independently."""
    n = U.shape[0]
    sensors = sorted(set(int(s) for s in sensors))
    reach = accessible(U, sensors)
    rank = matching_size(np.hstack([U.T, _selector(n, sensors)]))
    return {
        "condition_i": bool(reach.all()),
        "condition_ii": rank == n,
        "non_accessible": np.flatnonzero(~reach).tolist(),
        "matching_deficiency": n - rank,
    }


def placement_optimum(U: np.ndarray) -> tuple[int, int]:
    """(beta, nu): sink SCC count and the matching of U^T plus indicator columns."""
    n = U.shape[0]
    sinks = sink_sccs(U)
    ind = np.zeros((n, len(sinks)), dtype=bool)
    for p, members in enumerate(sinks):
        ind[members, p] = True
    return len(sinks), matching_size(np.hstack([U.T, ind]))


def check_placement(U: np.ndarray, sensors, beta: int, nu: int) -> list[str]:
    """A placed set must pass (i) and (ii) and have size n - nu + beta."""
    n = U.shape[0]
    problems = []
    sensors = [int(s) for s in sensors]
    if len(set(sensors)) != len(sensors) or not all(0 <= s < n for s in sensors):
        return [f"sensor list is not a set of states: {sensors}"]
    want_beta, want_nu = placement_optimum(U)
    if beta != want_beta:
        problems.append(f"beta {beta} != {want_beta}")
    if nu != want_nu:
        problems.append(f"matching_cardinality {nu} != {want_nu}")
    if len(sensors) != n - want_nu + want_beta:
        problems.append(
            f"|S| = {len(sensors)} != n - nu + beta = {n - want_nu + want_beta}"
        )
    cert = certify(U, sensors)
    if not cert["condition_i"]:
        problems.append(f"condition (i) fails for {cert['non_accessible'][:5]}...")
    if not cert["condition_ii"]:
        problems.append(f"condition (ii) deficiency {cert['matching_deficiency']}")
    return problems


def check_place_output(U: np.ndarray, stdout: str) -> list[str]:
    """Check the JSON of ``fracplace place`` (1-based indices)."""
    doc = json.loads(stdout)
    problems = check_placement(
        U, [s - 1 for s in doc["sensors"]], doc["beta"], doc["matching_cardinality"]
    )
    if not (doc["condition_i"] and doc["condition_ii"]):
        problems.append("placement reports a failing certificate")
    return problems


def check_verify_output(U: np.ndarray, sensors, code: int, stdout: str) -> list[str]:
    """Exit code and certificate fields of ``fracplace verify`` (0-based sensors)."""
    want = certify(U, sensors)
    observable = want["condition_i"] and want["condition_ii"]
    problems = []
    if code != (0 if observable else 1):
        problems.append(f"exit code {code}, expected {0 if observable else 1}")
    doc = json.loads(stdout)
    for key in ("condition_i", "condition_ii", "matching_deficiency"):
        if doc[key] != want[key]:
            problems.append(f"{key} {doc[key]!r} != {want[key]!r}")
    if doc["observable"] != observable:
        problems.append(f"observable {doc['observable']!r} != {observable!r}")
    if [s - 1 for s in doc["non_accessible"]] != want["non_accessible"]:
        problems.append("non_accessible differs")
    return problems


def gl_tail_table(alpha: np.ndarray, horizon: int) -> np.ndarray:
    """Tail c_j(alpha_i) = -(-1)**(j+1) * binom(alpha_i, j+1), j = 1..horizon."""
    alpha = np.asarray(alpha, dtype=float)
    m = np.arange(1, horizon + 2)
    binom = np.cumprod((alpha[:, None] - m[None, :] + 1.0) / m[None, :], axis=1)
    j = np.arange(1, horizon + 1)
    sign = np.where(j % 2 == 1, -1.0, 1.0)  # -(-1)**(j+1)
    return binom[:, 1:] * sign[None, :]


def reference_trajectory(A, alpha, x0, steps: int) -> np.ndarray:
    """x_0 and x_k = T_k x_0 by the vector recursion, O(K n) memory.

    y_0 = A x_0 and y_k = A y_{k-1} + sum_{j=1}^{k-1} D_j y_{k-1-j}, which
    is the factor recursion T_k = A T_{k-1} + sum_j D_j T_{k-1-j} applied
    to x_0.
    """
    A = np.asarray(A, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    tails = gl_tail_table(alpha, steps)
    y = np.empty((steps + 1, x0.shape[0]))
    y[0] = A @ x0
    for k in range(1, steps + 1):
        acc = A @ y[k - 1]
        if k >= 2:
            acc += (tails[:, : k - 1] * y[k - 2 :: -1].T).sum(axis=1)
        y[k] = acc
    out = y.copy()
    out[0] = x0
    return out


def check_trajectory_csv(ref: np.ndarray, stdout: str, rtol: float = 1e-9) -> list[str]:
    """CSV ``k,x1..xn`` must match ``ref`` row by row within ``rtol``.

    The error of each row is measured against that row's largest
    magnitude, since the two computations round differently.
    """
    steps, n = ref.shape[0] - 1, ref.shape[1]
    lines = stdout.splitlines()
    header = ",".join(["k"] + [f"x{i + 1}" for i in range(n)])
    if not lines or lines[0] != header:
        return ["CSV header differs"]
    got = np.loadtxt(io.StringIO(stdout), delimiter=",", skiprows=1, ndmin=2)
    if got.shape != (steps + 1, n + 1):
        return [f"CSV shape {got.shape}, expected {(steps + 1, n + 1)}"]
    if not np.array_equal(got[:, 0], np.arange(steps + 1)):
        return ["CSV step column differs"]
    scale = np.maximum(np.abs(ref).max(axis=1), np.finfo(float).tiny)
    err = np.abs(got[:, 1:] - ref).max(axis=1) / scale
    bad = np.flatnonzero(~(err <= rtol))
    if bad.size:
        return [f"trajectory off at steps {bad[:5].tolist()} (rel err {err.max():.3g})"]
    return []
