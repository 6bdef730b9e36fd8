"""The canonical tie-break against the searches it replaced.

Each graph is matched twice by ``min_weight_max_matching``: once as the
library runs it, and once with an oracle of ``reference_tiebreak``
swapped in for ``_tie_break``, so both tie-breaks start from the same
optimum of the dual rounds.  Both must return the same pairs and weight.
The oracles take a list of column potentials, which they read only to
test a potential for 0, so each is handed one built from the library's
mask of the columns the sink may take.
The oracles are ``residual_tie_break``, the hand-written reverse search
over ``_Residual``; ``reverse_tie_break``, which ran ``_layers``
backward on the transposed tight masks; and ``forward_tie_break``, whose
failed searches ruled columns out for the same row only.

The library's own searches are also replayed against the dead set G that
lasts its whole pass (``_tie_break``): G holds every candidate below a
row's final column and every column that a failed search reached, and
it starts again empty after a row whose column lay in G rotates.  A row
whose column lies outside G must see all of G, any other row none of it,
and no search may see more than the fixed columns, G and its own row's
candidates and failures.
"""

import numpy as np
import pytest

import fracplace.matching
from fracplace import WeightedBipartite, condense, min_weight_max_matching, sink_scc_columns, transition_union

from conftest import placement_graph, random_pattern
from reference_tiebreak import forward_tie_break, residual_tie_break, reverse_tie_break


def replay_dead_set(tight, match_row, searches, counts):
    """Check each search's seen columns against the pass-wide dead set G.

    ``searches`` maps a row to its searches, each a (target column mask,
    seen, reached columns, won) tuple; ``match_row`` is the final one, so
    it holds the column each row was fixed at.  Counts the candidates
    skipped through G, the rows whose column lay in G, and the clears.
    """
    gone = fixed = 0
    for r, won in enumerate(match_row):
        own = searches.get(r, [])
        col = own[0][0].bit_length() - 1 if own else won
        cands = tight[r] & ((1 << col) - 1) & ~fixed
        inside = gone >> col & 1
        failed = 0  # the columns this row's failed searches reached
        for target, seen, reached, hit in own:
            allowed = fixed | cands | failed | (0 if inside else gone)
            assert not seen & ~allowed, "a search saw a column outside G and its row's own"
            assert inside or not gone & ~seen, "a row whose column lies outside G did not see all of G"
            if not hit:
                failed |= reached
        failed |= cands & ((1 << won) - 1)
        if inside:
            counts["rows inside G"] += 1
            if won != col:
                counts["clears of G"] += 1
                gone = 0
        else:
            counts["candidates skipped through G"] += (cands & ((1 << won) - 1) & gone).bit_count()
        gone |= failed
        fixed |= 1 << won


@pytest.fixture(
    params=[residual_tie_break, reverse_tie_break, forward_tie_break], ids=["residual", "reverse", "forward"]
)
def check(request, monkeypatch):
    """Compare the tie-break with an oracle on a graph; count what the draws exercised."""
    tie_break, layers = fracplace.matching._tie_break, fracplace.matching._layers
    moved = {"rows": 0, "free columns": 0, "wins after a failed search": 0}
    moved.update(dict.fromkeys(["candidates skipped through G", "rows inside G", "clears of G"], 0))

    def watched(tight, zero, match_row, match_col):
        by_row = {}  # row -> its searches: (target column mask, seen, reached columns, won)

        def recorded(takes, roots, cols, target, width, seen):
            assert takes[roots[0]] & ~seen, "searched from an owner that takes no unseen column"
            found = layers(takes, roots, cols, target, width, seen=seen)
            won = bool(found[-1] & target)
            reached = 0
            for layer in found:
                reached |= layer
            by_row.setdefault(cols[target.bit_length() - 1], []).append((target, seen, reached, won))
            return found

        before_rows, before_free = list(match_row), [i == -1 for i in match_col]
        monkeypatch.setattr(fracplace.matching, "_layers", recorded)
        tie_break(tight, zero, match_row, match_col)
        monkeypatch.setattr(fracplace.matching, "_layers", layers)
        replay_dead_set(tight, match_row, by_row, moved)
        moved["rows"] += match_row != before_rows
        moved["free columns"] += [i == -1 for i in match_col] != before_free
        moved["wins after a failed search"] += sum(
            not a[3] and b[3] for own in by_row.values() for a, b in zip(own, own[1:])
        )

    def oracle(tight, zero, match_row, match_col):
        z = [0 if zero >> j & 1 else -1 for j in range(len(match_col))]
        request.param(tight, z, match_row, match_col)

    def compare(graph):
        monkeypatch.setattr(fracplace.matching, "_tie_break", watched)
        got = min_weight_max_matching(graph)
        monkeypatch.setattr(fracplace.matching, "_tie_break", oracle)
        want = min_weight_max_matching(graph)
        assert sorted(got.pairs) == sorted(want.pairs)
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
        check(placement_graph(union.transpose(), sink_scc_columns(condense(union))))
    assert check.moved["free columns"] > 0
    assert check.moved["wins after a failed search"] > 0


def test_roles_alone_do_not_fix_the_optimum(check):
    # rows 0-2, weight-0 columns 0-1, weight-1 columns 2-3: the optimum
    # (0, 1), (1, 0), (2, 3) weighs 1 too and gives row 1 a weight-0
    # column, but the canonical one makes row 1 take a weight-1 column
    edges = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 2, 1), (2, 1, 0), (2, 3, 1)]
    got = check(WeightedBipartite(3, 4, edges))
    assert sorted(got.pairs) == [(0, 0), (1, 2), (2, 1)]
    assert got.total_weight == 1


def test_dead_set_on_closure_placement_graphs(check):
    # K = n, mean degree 0.5 to 3: the reference regime, where most
    # candidates fail; G must be reused across rows, held by rows whose
    # own column lies in it, and emptied when such a row rotates
    rng = np.random.default_rng(78)
    for _ in range(30):
        n = int(rng.integers(20, 160))
        pattern = random_pattern(rng, n, rng.uniform(0.5, 3.0) / n)
        union = transition_union(pattern, n)
        check(placement_graph(union.transpose(), sink_scc_columns(condense(union))))
    assert check.moved["candidates skipped through G"] > 0
    assert check.moved["rows inside G"] > 0
    assert check.moved["clears of G"] > 0
