"""The assignment-solver path that ``min_weight_max_matching`` replaced.

Kept as a test oracle: one scipy assignment per (cardinality, weight)
optimum, and pairs forced greedily in ascending (row, col) order, each
kept exactly when the rest of the graph still reaches the optimum.  It
re-solves once per candidate edge, so it is only fit for test sizes.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from fracplace import Matching, WeightedBipartite

from conftest import graph_edges


def _optimum(rows, cols, weights, n_rows, n_cols):
    """(cardinality, weight) of a min-weight max-cardinality matching.

    Reduction to a full row assignment: every row gets one finite slack
    column with cost L = min(n_rows, n_cols) + 2, and real edge costs are
    shifted to w + 1 (sparse storage cannot hold explicit zeros).  Since
    any real matching weight is at most min(n_rows, n_cols) < L - 1, the
    assignment optimum maximizes cardinality first, then minimizes real
    weight; both adjustments cancel exactly in integer arithmetic.
    """
    m = len(rows)
    if n_rows == 0 or m == 0:
        return 0, 0
    big = min(n_rows, n_cols) + 2
    data = np.concatenate([np.asarray(weights) + 1, np.full(n_rows, big)])
    r_ind = np.concatenate([np.asarray(rows), np.arange(n_rows)])
    c_ind = np.concatenate([np.asarray(cols), np.arange(n_rows) + n_cols])
    mat = csr_matrix(
        (data.astype(float), (r_ind, c_ind)), shape=(n_rows, n_cols + n_rows)
    )
    row_ind, col_ind = min_weight_full_bipartite_matching(mat)
    real = col_ind < n_cols
    card = int(np.count_nonzero(real))
    lookup = {(int(r), int(c)): int(w) for r, c, w in zip(rows, cols, weights)}
    total = sum(lookup[(int(r), int(c))] for r, c in zip(row_ind[real], col_ind[real]))
    return card, total


def reference_min_weight_max_matching(graph: WeightedBipartite) -> Matching:
    """Lexicographically smallest min-weight max-cardinality matching."""
    edges = sorted(graph_edges(graph))
    if not edges:
        return Matching((), 0)
    er = np.array([e[0] for e in edges])
    ec = np.array([e[1] for e in edges])
    ew = np.array([e[2] for e in edges])
    n_rows, n_cols = graph.n_rows, graph.n_cols

    best_card, best_weight = _optimum(er, ec, ew, n_rows, n_cols)
    if best_card == 0:
        return Matching((), 0)

    order = np.arange(len(edges))
    free_row = np.ones(n_rows, dtype=bool)
    free_col = np.ones(n_cols, dtype=bool)
    forced: list[tuple] = []
    need_card, need_weight = best_card, best_weight
    for t, (r, c, w) in enumerate(edges):
        if not (free_row[r] and free_col[c]):
            continue
        mask = (order > t) & free_row[er] & free_col[ec] & (er != r) & (ec != c)
        card, weight = _optimum(er[mask], ec[mask], ew[mask], n_rows, n_cols)
        if card == need_card - 1 and weight == need_weight - w:
            forced.append((r, c))
            free_row[r] = False
            free_col[c] = False
            need_card -= 1
            need_weight -= w
            if need_card == 0:
                break
    if need_card != 0:
        raise RuntimeError("tie-breaking failed to reconstruct the optimum")
    return Matching(forced, best_weight)
