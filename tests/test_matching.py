import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracplace import (
    Pattern,
    RealizationConfig,
    WeightedBipartite,
    enumerate_matchings,
    max_matching,
    min_weight_max_matching,
    numeric_rank,
    random_realization,
)

from fracplace.matching import _hopcroft_karp, _max_matching_rows

from conftest import random_pattern
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

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValueError):
            WeightedBipartite(1, 2, [(0, 0, 0), (0, 0, 1)])

    def test_accepts_repeated_identical_edge(self):
        g = WeightedBipartite(1, 2, [(0, 1, 1), (0, 1, 1), (0, 0, 0)])
        assert g.edges == frozenset({(0, 1, 1), (0, 0, 0)})
        assert g.adjacency() == [[0, 1]]
        assert g.weight_of() == {(0, 1): 1, (0, 0): 0}

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            WeightedBipartite(1, 1, [(0, 1, 0)])

    def test_from_patterns_agrees_with_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            g = random_graph(rng)
            triples = sorted(g.edges)
            free = Pattern(g.n_rows, g.n_cols, [(r, c) for r, c, w in triples if w == 0])
            unit = Pattern(g.n_rows, g.n_cols, [(r, c) for r, c, w in triples if w == 1])
            h = WeightedBipartite.from_patterns(free, unit)
            assert h == g
            assert h.edges == g.edges
            assert h.adjacency() == g.adjacency() == [
                sorted(c for r2, c, _ in triples if r2 == r) for r in range(g.n_rows)
            ]
            assert h.weight_of() == g.weight_of() == {(r, c): w for r, c, w in triples}

    def test_from_patterns_rejects_a_pair_in_both(self):
        with pytest.raises(ValueError, match=r"pair \(1, 2\)"):
            WeightedBipartite.from_patterns(
                Pattern(2, 3, [(0, 0), (1, 2)]), Pattern(2, 3, [(1, 2)])
            )

    def test_from_patterns_rejects_different_shapes(self):
        for unit in (Pattern(2, 4), Pattern(3, 3)):
            with pytest.raises(ValueError):
                WeightedBipartite.from_patterns(Pattern(2, 3), unit)


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
            pairs = {(r, c) for r, c, _ in g.edges}
            assert m.pairs <= pairs

    def test_mask_first_phase_gives_the_hopcroft_karp_matching(self):
        # the first phase on masks, then the remaining phases on lists,
        # matches the same pairs as every phase on lists
        rng = np.random.default_rng(3)
        for _ in range(200):
            rows, cols = int(rng.integers(0, 30)), int(rng.integers(0, 40))
            masks = [int(rng.integers(0, 2**62)) & ((1 << cols) - 1) for _ in range(rows)]
            masks = [m & int(rng.integers(0, 2**62)) if rng.random() < 0.5 else m for m in masks]
            p = Pattern.from_masks(rows, cols, masks)
            assert _max_matching_rows(p) == _hopcroft_karp(p.row_columns(), cols)


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
            assert min_weight_max_matching(g).sorted_pairs() == min(optima)

    @given(edges=edge_lists)
    @settings(max_examples=100, deadline=None)
    def test_cardinality_equals_max_matching(self, edges):
        unique = {}
        for r, c, w in edges:
            unique.setdefault((r, c), w)
        g = WeightedBipartite(5, 6, [(r, c, w) for (r, c), w in unique.items()])
        assert min_weight_max_matching(g).cardinality == max_matching(g).cardinality


class TestGenericRank:
    def test_identity(self):
        assert generic_rank([Pattern.identity(5)]) == 5

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
            extra = Pattern.identity_columns(
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
