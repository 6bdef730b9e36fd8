"""The canonical tie-break against the searches it replaced.

Each graph is matched twice by ``min_weight_max_matching``: once as the
library runs it, and once with an oracle of ``reference_tiebreak``
swapped in for ``_tie_break``, so both tie-breaks start from the same
optimum of the dual rounds.  Both must return the same pairs and weight.
The oracles are ``residual_tie_break``, the hand-written reverse search
over ``_Residual``, and ``reverse_tie_break``, which ran ``_layers``
backward on the transposed tight masks.
"""

import numpy as np
import pytest

import fracplace.matching
from fracplace import WeightedBipartite, condense, min_weight_max_matching, sink_scc_columns, transition_union
from fracplace.placement import _placement_graph

from conftest import random_pattern
from reference_tiebreak import residual_tie_break, reverse_tie_break


@pytest.fixture(params=[residual_tie_break, reverse_tie_break], ids=["residual", "reverse"])
def check(request, monkeypatch):
    """Compare the tie-break with an oracle on a graph; count what the draws exercised."""
    tie_break, layers = fracplace.matching._tie_break, fracplace.matching._layers
    moved = {"rows": 0, "free columns": 0, "wins after a failed search": 0}

    def watched(tight, z, match_row, match_col):
        searches = []  # (target column mask, whether the search reached it)

        def recorded(*args, **kwargs):
            found = layers(*args, **kwargs)
            searches.append((args[3], bool(found and found[-1] & args[3])))
            return found

        before_rows, before_free = list(match_row), [i == -1 for i in match_col]
        monkeypatch.setattr(fracplace.matching, "_layers", recorded)
        tie_break(tight, z, match_row, match_col)
        monkeypatch.setattr(fracplace.matching, "_layers", layers)
        moved["rows"] += match_row != before_rows
        moved["free columns"] += [i == -1 for i in match_col] != before_free
        # a row's searches all target its column, and a row whose searches
        # all fail keeps and fixes it; so a failure right before a win for
        # the same column is one row's, whose winner came after a dead end
        moved["wins after a failed search"] += sum(
            a == b and not a_won and b_won for (a, a_won), (b, b_won) in zip(searches, searches[1:])
        )

    def compare(graph):
        monkeypatch.setattr(fracplace.matching, "_tie_break", watched)
        got = min_weight_max_matching(graph)
        monkeypatch.setattr(fracplace.matching, "_tie_break", request.param)
        want = min_weight_max_matching(graph)
        assert got.sorted_pairs() == want.sorted_pairs()
        assert got.total_weight == want.total_weight
        return got

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
    assert check.moved["wins after a failed search"] > 0


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
    assert check.moved["wins after a failed search"] > 0


def test_roles_alone_do_not_fix_the_optimum(check):
    # rows 0-2, weight-0 columns 0-1, weight-1 columns 2-3: the optimum
    # (0, 1), (1, 0), (2, 3) weighs 1 too and gives row 1 a weight-0
    # column, but the canonical one makes row 1 take a weight-1 column
    edges = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 2, 1), (2, 1, 0), (2, 3, 1)]
    got = check(WeightedBipartite(3, 4, edges))
    assert got.sorted_pairs() == [(0, 0), (1, 2), (2, 1)]
    assert got.total_weight == 1
