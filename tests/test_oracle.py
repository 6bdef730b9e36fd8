import numpy as np
import pytest

from fracplace import (
    Pattern,
    RealizationConfig,
    WeightedBipartite,
    draw_orders,
    enumerate_matchings,
    exhaustive_min_placement,
    min_weight_max_matching,
    random_realization,
)

from conftest import graph_edges


class TestExhaustiveMinPlacement:
    def test_chain(self, chain3):
        assert exhaustive_min_placement(chain3, 3) == (1, frozenset({2}))

    def test_empty_pattern(self):
        assert exhaustive_min_placement(Pattern(3, 3), 2) == (
            3,
            frozenset({0, 1, 2}),
        )

    def test_two_cycle_pair_lexicographic_witness(self):
        pat = Pattern(4, 4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert exhaustive_min_placement(pat, 3) == (2, frozenset({0, 2}))

    def test_no_states_need_no_sensor(self):
        # as minimal_sensors and verify_observability have it
        assert exhaustive_min_placement(Pattern(0, 0), 0) == (0, frozenset())

    def test_refuses_large_patterns(self):
        with pytest.raises(ValueError):
            exhaustive_min_placement(Pattern(17, 17), 1)


class TestRandomRealization:
    def test_empty_pattern_gives_zero_matrix(self):
        M = random_realization(Pattern(3, 3), RealizationConfig())
        assert np.all(M == 0.0)

    def test_reproducible_from_seed(self):
        pat = Pattern(4, 4, [(0, 1), (2, 3), (3, 0)])
        cfg = RealizationConfig(seed=99)
        assert np.array_equal(
            random_realization(pat, cfg), random_realization(pat, cfg)
        )

    def test_support_is_exact_and_bounded_away_from_zero(self):
        rng = np.random.default_rng(0)
        pat = Pattern(5, 5, [(0, 0), (1, 3), (4, 2), (2, 2)])
        cfg = RealizationConfig()
        for _ in range(20):
            M = random_realization(pat, cfg, rng)
            nonzero = {(int(r), int(c)) for r, c in zip(*np.nonzero(M))}
            assert nonzero == set(pat.entries)
            mags = np.abs(M[M != 0.0])
            assert np.all((mags >= 0.5) & (mags <= 1.5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RealizationConfig(magnitude_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            RealizationConfig(order_range=(-1.0, 1.0))

    def test_config_rejects_a_float_seed(self):
        with pytest.raises(TypeError):
            RealizationConfig(seed=1.5)
        assert type(RealizationConfig(seed=np.int64(3)).seed) is int

    def test_config_rejects_a_negative_seed(self):
        # refused here, not later inside random_realization
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RealizationConfig(seed=-1)
        assert RealizationConfig(seed=0).seed == 0

    def test_config_rejects_random_signs_that_are_not_a_bool(self):
        # a truthy string would still draw random signs
        for value in ("no", 0, None, np.bool_(False)):
            with pytest.raises(TypeError, match="random_signs"):
                RealizationConfig(random_signs=value)
        full = Pattern(4, 4, [(r, c) for r in range(4) for c in range(4)])
        M = random_realization(full, RealizationConfig(random_signs=False))
        assert np.all(M > 0)

    def test_config_stores_the_ranges_as_pairs_of_floats(self):
        cfg = RealizationConfig(magnitude_range=[1, 2], order_range=np.array([0.9, 1.1]))
        assert cfg.magnitude_range == (1.0, 2.0) and cfg.order_range == (0.9, 1.1)
        assert all(type(x) is float for x in cfg.magnitude_range + cfg.order_range)
        same = RealizationConfig(magnitude_range=(1.0, 2.0), order_range=(0.9, 1.1))
        assert cfg == same and hash(cfg) == hash(same)
        with pytest.raises(ValueError):
            RealizationConfig(magnitude_range=(0.5, 1.0, 1.5))
        with pytest.raises(TypeError):
            RealizationConfig(order_range=("0.9", "1.1"))


class TestDrawOrders:
    def test_in_range_and_non_integer(self):
        rng = np.random.default_rng(1)
        cfg = RealizationConfig(order_range=(0.9, 1.3))
        for _ in range(50):
            alpha = draw_orders(6, cfg, rng)
            assert np.all((alpha >= 0.9) & (alpha <= 1.3))
            assert np.all(np.abs(alpha - np.round(alpha)) >= 1e-9)


class TestEnumerateMatchings:
    def test_single_edge(self):
        found = enumerate_matchings(WeightedBipartite(1, 1, [(0, 0, 0)]))
        assert len(found) == 1
        assert found[0].pairs == frozenset({(0, 0)})

    def test_two_by_two_complete(self):
        g = WeightedBipartite(2, 2, [(r, c, 0) for r in range(2) for c in range(2)])
        found = enumerate_matchings(g)
        assert len(found) == 2
        assert all(m.cardinality == 2 and m.total_weight == 0 for m in found)

    def test_refuses_many_rows(self):
        with pytest.raises(ValueError):
            enumerate_matchings(WeightedBipartite(9, 2))

    def test_all_results_are_maximal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 6))
            edges = [
                (r, c, int(rng.random() < 0.5))
                for r in range(rows)
                for c in range(cols)
                if rng.random() < 0.5
            ]
            g = WeightedBipartite(rows, cols, edges)
            for m in enumerate_matchings(g):
                used_r = {r for r, _ in m.pairs}
                used_c = {c for _, c in m.pairs}
                assert not any(
                    r not in used_r and c not in used_c for r, c, _ in graph_edges(g)
                )

    def test_optimum_agrees_with_engine(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rows = int(rng.integers(1, 4))
            cols = int(rng.integers(1, 5))
            edges = [
                (r, c, int(rng.random() < 0.5))
                for r in range(rows)
                for c in range(cols)
                if rng.random() < 0.6
            ]
            g = WeightedBipartite(rows, cols, edges)
            found = enumerate_matchings(g)
            engine = min_weight_max_matching(g)
            if found:
                card = max(m.cardinality for m in found)
                weight = min(
                    m.total_weight for m in found if m.cardinality == card
                )
                assert (engine.cardinality, engine.total_weight) == (card, weight)
            else:
                assert engine.cardinality == 0
