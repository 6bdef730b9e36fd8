import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracplace import (
    Matching,
    Pattern,
    RealizationConfig,
    WeightedBipartite,
    enumerate_matchings,
    max_matching,
    min_weight_max_matching,
    numeric_rank,
    random_realization,
)

import fracplace.matching
from fracplace import condense, sink_scc_columns, transition_union
from fracplace.matching import _max_matching_rows
from fracplace.sweep import _random_pattern

from conftest import graph_edges, identity_columns, placement_graph, random_pattern
from reference_hopcroft_karp import _hopcroft_karp
from reference_matching import reference_min_weight_max_matching
from reference_rank import generic_rank


def random_graph(rng, max_rows=6, max_cols=8, one_weight_frac=0.4):
    rows = int(rng.integers(1, max_rows + 1))
    cols = int(rng.integers(1, max_cols + 1))
    density = rng.uniform(0.15, 0.7)
    edges = [
        (r, c, int(rng.random() < one_weight_frac))
        for r in range(rows)
        for c in range(cols)
        if rng.random() < density
    ]
    return WeightedBipartite(rows, cols, edges)


def oracle_optimum(graph):
    """(max cardinality, min weight at that cardinality) by enumeration."""
    found = enumerate_matchings(graph)
    if not found:
        return 0, 0
    card = max(m.cardinality for m in found)
    weight = min(m.total_weight for m in found if m.cardinality == card)
    return card, weight


edge_lists = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 1)),
    max_size=18,
)


class TestWeightedBipartite:
    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            WeightedBipartite(1, 1, [(0, 0, 2)])

    def test_rejects_non_integral_weight(self):
        # 0.5 and 1.9 are not truncated to the weights 0 and 1
        with pytest.raises(TypeError):
            WeightedBipartite(1, 2, [(0, 0, 0.5), (0, 1, 1.9)])

    def test_accepts_numpy_ints_and_bools(self):
        g = WeightedBipartite(np.int64(1), 2, [(np.int64(0), np.uint8(1), True), (0, 0, False)])
        assert graph_edges(g) == frozenset({(0, 1, 1), (0, 0, 0)})

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            WeightedBipartite(1, 2, [(0, 0, 0), (0, 0, 1)])
        with pytest.raises(ValueError, match=r"pair \(1, 2\)"):
            WeightedBipartite(2, 3, [(0, 0, 0), (1, 2, 0), (1, 2, 1)])

    def test_accepts_repeated_identical_edge(self):
        g = WeightedBipartite(1, 2, [(0, 1, 1), (0, 1, 1), (0, 0, 0)])
        assert graph_edges(g) == frozenset({(0, 1, 1), (0, 0, 0)})
        assert g.free.rows == (0b01,)
        assert g.unit.rows == (0b10,)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            WeightedBipartite(1, 1, [(0, 1, 0)])


class TestMatching:
    def test_rejects_float_indices_and_weight(self):
        # (0.5, 1.9) is not truncated to the pair (0, 1), nor 0.7 to weight 0
        with pytest.raises(TypeError):
            Matching([(0.5, 1.9)], 0)
        with pytest.raises(TypeError):
            Matching([(0, 1)], 0.7)
        m = Matching([(np.int64(0), np.uint8(1))], True)
        assert m.pairs == frozenset({(0, 1)}) and m.total_weight == 1

    def test_rejects_a_repeated_vertex(self):
        with pytest.raises(ValueError) as info:
            Matching([(0, 0), (0, 1)], 0)
        assert str(info.value) == "matching repeats a row or column vertex"


class TestMaxMatching:
    def test_complete_three_by_three(self):
        g = WeightedBipartite(3, 3, [(r, c, 0) for r in range(3) for c in range(3)])
        assert max_matching(g).cardinality == 3

    def test_empty_edge_set(self):
        assert max_matching(WeightedBipartite(3, 4)).cardinality == 0

    def test_against_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            g = random_graph(rng, max_rows=4, max_cols=4)
            card, _ = oracle_optimum(g)
            assert max_matching(g).cardinality == card

    def test_pairs_are_valid_edges(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            g = random_graph(rng)
            m = max_matching(g)
            pairs = {(r, c) for r, c, _ in graph_edges(g)}
            assert m.pairs <= pairs

    def test_mask_first_phase_gives_the_hopcroft_karp_matching(self):
        # every phase runs on masks, so the pairs may differ from the list
        # engine's; the cardinality may not, and a kept start pair's row and
        # column stay matched (augmenting never frees a vertex)
        rng = np.random.default_rng(3)
        for _ in range(200):
            rows, cols = int(rng.integers(0, 30)), int(rng.integers(0, 40))
            masks = [int(rng.integers(0, 2**62)) & ((1 << cols) - 1) for _ in range(rows)]
            masks = [m & int(rng.integers(0, 2**62)) if rng.random() < 0.5 else m for m in masks]
            p = Pattern.from_masks(rows, cols, masks)
            start = [(int(rng.integers(-1, rows + 1)), int(rng.integers(-1, cols + 1)))
                     for _ in range(int(rng.integers(0, 12)))]
            match_row, match_col = _max_matching_rows(p.rows, p.ncols, start)
            want, _ = _hopcroft_karp(p.row_columns(), cols)
            assert_valid_matching(p, match_row, match_col)
            assert sum(c != -1 for c in match_row) == sum(c != -1 for c in want)
            for r, c in kept_start_pairs(p, start):
                assert match_row[r] != -1 and match_col[c] != -1

    def test_a_maximum_start_matching_is_kept_whole(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            p = random_pattern(rng, n, rng.uniform(0.01, 0.3))
            match_row, _ = _max_matching_rows(p.rows, p.ncols)
            start = [(r, c) for r, c in enumerate(match_row) if c != -1]
            assert _max_matching_rows(p.rows, p.ncols, start[::-1])[0] == match_row

    def test_cardinality_equals_scipy(self):
        # an engine-independent oracle, beyond the sizes enumeration reaches
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching

        rng = np.random.default_rng(14)
        shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 300), (300, 3), (40, 200), (200, 40)]
        shapes += [tuple(int(x) for x in rng.integers(1, 301, 2)) for _ in range(40)]
        for rows, cols in shapes:
            for density in (0.002, 0.01, 0.05, 0.3):
                a = rng.random((rows, cols)) < density
                a[rng.random(rows) < 0.1] = False  # some empty rows
                a[:, rng.random(cols) < 0.1] = False  # and empty columns
                p = Pattern.from_masks(rows, cols, [
                    sum(1 << int(c) for c in np.flatnonzero(row)) for row in a
                ])
                want = 0
                if a.any():
                    found = maximum_bipartite_matching(csr_matrix(a), perm_type="column")
                    want = int((found != -1).sum())
                start = [(int(rng.integers(-2, rows + 2)), int(rng.integers(-2, cols + 2)))
                         for _ in range(int(rng.integers(0, 20)))]
                start += start[: len(start) // 2]  # repeats
                start += [(int(r), int(c)) for r, c in zip(*np.nonzero(a)) if rng.random() < 0.05]
                for begin in ((), start):
                    match_row, match_col = _max_matching_rows(p.rows, p.ncols, begin)
                    assert_valid_matching(p, match_row, match_col)
                    assert sum(c != -1 for c in match_row) == want


def kept_start_pairs(pattern, start):
    """The start pairs that are edges and share no row or column with one kept before."""
    rows, cols, kept = set(), set(), []
    for r, c in start:
        if 0 <= r < pattern.nrows and 0 <= c < pattern.ncols and pattern.rows[r] >> c & 1:
            if r not in rows and c not in cols:
                rows.add(r)
                cols.add(c)
                kept.append((r, c))
    return kept


def assert_valid_matching(pattern, match_row, match_col):
    """Every pair is an edge, and match_row and match_col are inverse."""
    assert len(match_row) == pattern.nrows and len(match_col) == pattern.ncols
    for r, c in enumerate(match_row):
        if c != -1:
            assert pattern.rows[r] >> c & 1
            assert match_col[c] == r
    for c, r in enumerate(match_col):
        if r != -1:
            assert match_row[r] == c


class TestMinWeightMaxMatching:
    def test_prefers_zero_edge(self):
        g = WeightedBipartite(1, 2, [(0, 0, 1), (0, 1, 0)])
        m = min_weight_max_matching(g)
        assert m.pairs == frozenset({(0, 1)})
        assert m.total_weight == 0

    def test_uses_one_edge_when_forced(self):
        g = WeightedBipartite(1, 1, [(0, 0, 1)])
        m = min_weight_max_matching(g)
        assert m.pairs == frozenset({(0, 0)})
        assert m.total_weight == 1

    def test_against_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = random_graph(rng, max_rows=6, max_cols=9)
            card, weight = oracle_optimum(g)
            m = min_weight_max_matching(g)
            assert (m.cardinality, m.total_weight) == (card, weight)

    def test_lexicographically_smallest_optimum(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            g = random_graph(rng, max_rows=5, max_cols=6, one_weight_frac=0.5)
            found = enumerate_matchings(g)
            if not found:
                continue
            card = max(m.cardinality for m in found)
            weight = min(m.total_weight for m in found if m.cardinality == card)
            optima = [
                sorted(m.pairs)
                for m in found
                if m.cardinality == card and m.total_weight == weight
            ]
            assert sorted(min_weight_max_matching(g).pairs) == min(optima)

    @given(edges=edge_lists)
    @settings(max_examples=100, deadline=None)
    def test_cardinality_equals_max_matching(self, edges):
        unique = {}
        for r, c, w in edges:
            unique.setdefault((r, c), w)
        g = WeightedBipartite(5, 6, [(r, c, w) for (r, c), w in unique.items()])
        assert min_weight_max_matching(g).cardinality == max_matching(g).cardinality


def dual_round_graph(rng, shape):
    """Up to 40 x 40, weights per edge or per whole column.

    Some draws have no columns, about a fifth of the rows have no edge,
    and rows often outnumber columns, so some rows end on their slack
    column only after the dual steps have raised them that far.
    """
    rows = int(rng.integers(1, 41))
    cols = int(rng.integers(0, 41)) if rng.random() < 0.9 else 0
    density = rng.uniform(0.02, 0.4)
    one_frac = rng.uniform(0.0, 1.0)
    heavy = rng.random(cols) < one_frac
    edges = [
        (r, c, int(rng.random() < one_frac if shape == "edge" else heavy[c]))
        for r in range(rows)
        if rng.random() >= 0.2
        for c in range(cols)
        if rng.random() < density
    ]
    return WeightedBipartite(rows, cols, edges)


class TestDualRounds:
    """The Hungarian rounds of ``min_weight_max_matching``."""

    @pytest.fixture
    def rounds(self, monkeypatch):
        """The number of Hopcroft-Karp runs since the last reset."""
        count = [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return _max_matching_rows(*args, **kwargs)

        monkeypatch.setattr(fracplace.matching, "_max_matching_rows", counted)
        return count

    @pytest.mark.parametrize("shape", ["edge", "column"])
    def test_against_the_assignment_reference(self, shape, rounds):
        rng = np.random.default_rng({"edge": 61, "column": 62}[shape])
        seen = []
        for _ in range(150):
            graph = dual_round_graph(rng, shape)
            rounds[0] = 0
            got = min_weight_max_matching(graph)
            seen.append(rounds[0])
            want = reference_min_weight_max_matching(graph)
            assert sorted(got.pairs) == sorted(want.pairs)
            assert got.total_weight == want.total_weight
        assert max(seen) >= 3  # dual steps after the first one ran

    def test_rows_that_share_one_column(self, rounds):
        # row 0 keeps the column, and one dual step of the slack cost 2
        # raises rows 0 and 1 until row 1's slack column is tight
        graph = WeightedBipartite(2, 1, [(0, 0, 0), (1, 0, 0)])
        assert sorted(min_weight_max_matching(graph).pairs) == [(0, 0)]
        assert rounds[0] == 2

    def test_no_columns(self, rounds):
        assert min_weight_max_matching(WeightedBipartite(3, 0)).pairs == frozenset()
        assert rounds[0] == 2

    def test_traced_peak_on_a_giant_placement_graph(self):
        # a {column: weight} dict per row would hold a whole SCC each
        # here: 62.6 MiB traced; the masks of the rounds take under 1 MiB
        n = 1024
        pattern = _random_pattern(n, 0.995, np.random.default_rng(0))
        union = transition_union(pattern, n)
        graph = placement_graph(union.transpose(), sink_scc_columns(condense(pattern)))
        tracemalloc.start()
        try:
            min_weight_max_matching(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestGenericRank:
    def test_identity(self):
        assert generic_rank([identity_columns(5, range(5))]) == 5

    def test_empty(self):
        assert generic_rank([Pattern(3, 3)]) == 0

    def test_row_mismatch(self):
        with pytest.raises(ValueError):
            generic_rank([Pattern(3, 3), Pattern(2, 2)])

    def test_monotone_in_appended_columns(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            p = random_pattern(rng, n, rng.uniform(0.0, 0.6))
            extra = identity_columns(
                n, rng.choice(n, size=rng.integers(0, n + 1), replace=False)
            )
            base = generic_rank([p])
            assert generic_rank([p], extra) >= base
            assert base <= min(p.nrows, p.ncols)

    def test_agrees_with_numeric_rank_of_realizations(self):
        rng = np.random.default_rng(6)
        cfg = RealizationConfig()
        agree = 0
        trials = 100
        for _ in range(trials):
            p = random_pattern(rng, 6, rng.uniform(0.1, 0.7))
            grank = generic_rank([p])
            M = random_realization(p, cfg, rng)
            agree += numeric_rank(M, 1e-9) == grank if p.count else grank == 0
        assert agree >= 0.99 * trials
