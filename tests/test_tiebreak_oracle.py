"""The canonical tie-break on ``_layers`` against the residual search it replaced.

Each graph is matched twice by ``min_weight_max_matching``: once as the
library runs it, and once with ``reference_tiebreak.residual_tie_break``
swapped in for ``_tie_break``, so both tie-breaks start from the same
optimum of the dual rounds.  Both must return the same pairs and weight.
"""

import numpy as np
import pytest

import fracplace.matching
from fracplace import WeightedBipartite, condense, min_weight_max_matching, sink_scc_columns, transition_union
from fracplace.placement import _placement_graph

from conftest import random_pattern
from reference_tiebreak import residual_tie_break


@pytest.fixture
def check(monkeypatch):
    """Compare both tie-breaks on a graph; count the draws where the optimum moved."""
    tie_break = fracplace.matching._tie_break
    moved = {"rows": 0, "free columns": 0}

    def watched(tight, z, match_row, match_col):
        before_rows, before_free = list(match_row), [i == -1 for i in match_col]
        tie_break(tight, z, match_row, match_col)
        moved["rows"] += match_row != before_rows
        moved["free columns"] += [i == -1 for i in match_col] != before_free

    def compare(graph):
        monkeypatch.setattr(fracplace.matching, "_tie_break", watched)
        got = min_weight_max_matching(graph)
        monkeypatch.setattr(fracplace.matching, "_tie_break", residual_tie_break)
        want = min_weight_max_matching(graph)
        assert got.sorted_pairs() == want.sorted_pairs()
        assert got.total_weight == want.total_weight

    compare.moved = moved
    return compare


def random_graph(rng, rows, cols, density, weights):
    edges = rng.random((rows, cols)) < density
    if weights == "edge":
        unit = rng.random((rows, cols)) < rng.uniform(0.0, 1.0)
    elif weights == "column":
        unit = np.broadcast_to(rng.random(cols) < rng.uniform(0.0, 1.0), (rows, cols))
    else:
        unit = np.broadcast_to(rng.random((rows, 1)) < rng.uniform(0.0, 1.0), (rows, cols))
    return WeightedBipartite(rows, cols, [(r, c, int(unit[r, c])) for r, c in zip(*np.nonzero(edges))])


@pytest.mark.parametrize("weights", ["edge", "column", "row"])
def test_every_small_shape(check, weights):
    rng = np.random.default_rng(["edge", "column", "row"].index(weights) + 71)
    for rows in range(15):
        for cols in range(15):
            for _ in range(6):
                check(random_graph(rng, rows, cols, rng.uniform(0.01, 0.9), weights))
    assert check.moved["rows"] > 100 and check.moved["free columns"] > 50


@pytest.mark.parametrize("weights", ["edge", "column", "row"])
def test_larger_shapes(check, weights):
    rng = np.random.default_rng(["edge", "column", "row"].index(weights) + 74)
    for _ in range(12):
        rows, cols = (int(k) for k in rng.integers(15, 121, size=2))
        check(random_graph(rng, rows, cols, rng.uniform(0.01, 0.9) ** 2, weights))
    assert check.moved["rows"] > 0


@pytest.mark.parametrize("horizon", ["n", 2])
def test_fragmented_placement_graphs(check, horizon):
    # mean degree 0.3 to 1.2: many sink SCCs, whose indicator columns of
    # potential 0 stay free, so the tie-break's cycles run through the sink
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(20, 160))
        pattern = random_pattern(rng, n, rng.uniform(0.3, 1.2) / n)
        union = transition_union(pattern, n if horizon == "n" else horizon)
        check(_placement_graph(union.transpose(), sink_scc_columns(condense(union))))
    assert check.moved["free columns"] > 0
