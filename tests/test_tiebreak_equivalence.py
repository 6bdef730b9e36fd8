"""The mask-based canonical tie-break against the per-row search it replaced.

``reference_tiebreak`` finds an optimum its own way, by Hopcroft-Karp on
the weight-0 edges and then one Dijkstra step per row left free, where
the library runs dual rounds; it then searches the residual graph once
per candidate column of every row.
Both must return the same canonical optimum, pair for pair, on the graph
families where the two differ most in what they do.
"""

import numpy as np
import pytest

from fracplace import WeightedBipartite, condense, min_weight_max_matching, sink_scc_columns, transition_union
from fracplace.placement import _placement_graph

from conftest import random_pattern
from reference_tiebreak import min_weight_max_matching as per_row_search


def placement_graph(pattern, horizon):
    union = transition_union(pattern, horizon)
    return _placement_graph(union.transpose(), sink_scc_columns(condense(union)))


def assert_same_optimum(graph):
    got = min_weight_max_matching(graph)
    want = per_row_search(graph)
    assert got.sorted_pairs() == want.sorted_pairs()
    assert got.total_weight == want.total_weight


@pytest.mark.parametrize("horizon", ["n", 0])
def test_giant_scc_placement_graphs(horizon):
    # mean degree 3 to 8: one giant SCC, a near-complete union at K = n
    rng = np.random.default_rng(51)
    for _ in range(12):
        n = int(rng.integers(20, 121))
        pattern = random_pattern(rng, n, rng.uniform(3.0, 8.0) / n)
        assert_same_optimum(placement_graph(pattern, n if horizon == "n" else 0))


@pytest.mark.parametrize("horizon", ["n", 2, 0])
def test_fragmented_placement_graphs(horizon):
    # mean degree 0.3 to 1.2: many sink SCCs, so many indicator columns
    # of potential 0 stay free
    rng = np.random.default_rng(52)
    for _ in range(25):
        n = int(rng.integers(20, 200))
        pattern = random_pattern(rng, n, rng.uniform(0.3, 1.2) / n)
        graph = placement_graph(pattern, n if horizon == "n" else horizon)
        assert graph.n_cols - graph.n_rows > n // 10  # beta is large
        assert_same_optimum(graph)


def test_random_graphs_with_unit_edges_anywhere():
    rng = np.random.default_rng(53)
    for _ in range(300):
        rows = int(rng.integers(1, 50))
        cols = int(rng.integers(1, 70))
        density = rng.uniform(0.01, 0.5)
        unit_share = rng.uniform(0.0, 1.0)
        edges = [
            (r, c, int(rng.random() < unit_share))
            for r in range(rows)
            for c in range(cols)
            if rng.random() < density
        ]
        assert_same_optimum(WeightedBipartite(rows, cols, edges))
