import numpy as np
import pytest

import fracplace.matching
import fracplace.placement
import fracplace.structure
from fracplace import (
    FracSystem,
    Matching,
    Pattern,
    RealizationConfig,
    SensorSet,
    WeightedBipartite,
    condense,
    draw_orders,
    exhaustive_min_placement,
    is_observable_numeric,
    minimal_sensors,
    random_realization,
    sink_scc_columns,
    transition_union,
    verify_observability,
)

from fracplace.sweep import _random_pattern

from conftest import random_pattern
from reference_rank import generic_rank


class TestSensorSet:
    def test_union(self):
        s = SensorSet({0}, {1}, {2})
        assert s.all == frozenset({0, 1, 2})
        assert len(s) == 3

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            SensorSet({0}, {0}, ())


class TestSinkColumns:
    def test_chain(self, chain3):
        cols = sink_scc_columns(condense(transition_union(chain3, 3)))
        assert cols.ncols == 1
        assert cols.entries == frozenset({(2, 0)})

    def test_empty_pattern_gives_identity(self):
        cols = sink_scc_columns(condense(Pattern(3, 3)))
        assert cols.entries == Pattern.identity(3).entries

    def test_two_cycle_single_column(self):
        cols = sink_scc_columns(condense(Pattern(2, 2, [(0, 1), (1, 0)])))
        assert cols.ncols == 1
        assert cols.entries == frozenset({(0, 0), (1, 0)})


class TestVerify:
    def test_chain_sink_sensor(self, chain3):
        cert = verify_observability(chain3, 3, {2})
        assert cert.condition_i and cert.condition_ii
        assert cert.observable
        assert cert.non_accessible == frozenset()
        assert cert.matching_deficiency == 0

    def test_chain_source_sensor(self, chain3):
        cert = verify_observability(chain3, 3, {0})
        assert not cert.condition_i
        assert cert.non_accessible == frozenset({1, 2})
        assert not cert.observable

    def test_full_sensor_set_always_passes(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            pat = random_pattern(rng, n, rng.uniform(0.0, 0.7))
            cert = verify_observability(pat, n, range(n))
            assert cert.observable

    def test_out_of_range_sensor(self, chain3):
        with pytest.raises(ValueError):
            verify_observability(chain3, 3, {7})


class TestMinimalSensors:
    def test_chain(self, chain3):
        report = minimal_sensors(chain3, 3)
        assert report.sensors.all == frozenset({2})
        assert report.sensors.j_prime == frozenset({2})
        assert report.beta == 1
        assert report.matching_cardinality == 3
        assert report.certificate.observable

    def test_condensation_is_that_of_the_union(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            pat = random_pattern(rng, n, rng.uniform(0.0, 3.0 / n))
            horizon = int(rng.integers(0, n + 1))
            report = minimal_sensors(pat, horizon)
            cond = condense(transition_union(pat, horizon))
            assert report.condensation == cond
            assert report.condensation.pattern == report.g_union
            assert report.condensation.dag_edges == cond.dag_edges

    def test_empty_pattern_needs_all_sensors(self):
        report = minimal_sensors(Pattern(4, 4), 2)
        assert report.sensors.all == frozenset({0, 1, 2, 3})
        assert report.beta == 4

    def test_two_disjoint_cycles(self):
        pat = Pattern(4, 4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        report = minimal_sensors(pat, 3)
        assert len(report.sensors) == 2
        assert report.sensors.all & {0, 1}
        assert report.sensors.all & {2, 3}

    def test_sensor_set_never_empty(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            pat = random_pattern(rng, n, rng.uniform(0.0, 0.8))
            assert len(minimal_sensors(pat, n).sensors) >= 1

    def test_soundness_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 13))
            pat = random_pattern(rng, n, rng.uniform(0.05, 0.6))
            for horizon in (1, (n + 1) // 2, n):
                report = minimal_sensors(pat, horizon)
                cert = verify_observability(pat, horizon, report.sensors.all)
                assert cert.observable

    def test_minimality_against_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            pat = random_pattern(rng, n, rng.uniform(0.05, 0.6))
            for horizon in (1, (n + 1) // 2, n):
                got = len(minimal_sensors(pat, horizon).sensors)
                want, _ = exhaustive_min_placement(pat, horizon)
                assert got == want

    def test_strict_j3_matches_default_for_exact_matchings(self):
        # an unmatched row inside an uncovered sink SCC would admit an
        # augmenting indicator edge, so the refined rule never fires
        rng = np.random.default_rng(4)
        for _ in range(80):
            n = int(rng.integers(2, 11))
            pat = random_pattern(rng, n, rng.uniform(0.05, 0.6))
            a = minimal_sensors(pat, n)
            b = minimal_sensors(pat, n, strict_j3=True)
            assert a.sensors.all == b.sensors.all

    def test_union_computed_once(self, monkeypatch):
        # at a bounded horizon (K = 2 < n - 1) the union is built step by step
        calls = []

        def counted(pattern, horizon):
            calls.append(horizon)
            return transition_union(pattern, horizon)

        monkeypatch.setattr(fracplace.placement, "transition_union", counted)
        minimal_sensors(Pattern(4, 4, [(1, 0), (2, 1), (0, 2), (3, 3)]), 2)
        assert calls == [2]

    def test_union_transposed_once(self, monkeypatch):
        # at a bounded horizon the placement graph and the self-check share
        # one transpose, and the graph is built from its masks, never from
        # edge triples (at K = 1 the tie-break transposes its tight edges too)
        calls = []
        transpose = Pattern.transpose

        def counted(pattern):
            calls.append(pattern.nrows)
            return transpose(pattern)

        def no_triples(*args, **kwargs):
            raise AssertionError("placement built a graph from edge triples")

        monkeypatch.setattr(Pattern, "transpose", counted)
        monkeypatch.setattr(WeightedBipartite, "__init__", no_triples)
        minimal_sensors(Pattern(4, 4, [(1, 0), (2, 1), (0, 2), (3, 3)]), 2)
        assert calls == [4]

    @pytest.mark.parametrize("horizon", [3, 4, 8])
    @pytest.mark.parametrize("run", ["place", "verify"])
    def test_long_horizon_reads_the_union_off_one_condensation(self, monkeypatch, run, horizon):
        # at K >= n - 1 both the union and its transpose come from the
        # condensation: one Tarjan pass, no boolean product, no transpose
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(fracplace.structure, "_bool_product",
                            counting("product", fracplace.structure._bool_product))
        monkeypatch.setattr(Pattern, "transpose", counting("transpose", Pattern.transpose))
        monkeypatch.setattr(fracplace.placement, "condense",
                            counting("condense", fracplace.placement.condense))
        monkeypatch.setattr(fracplace.placement, "transition_union",
                            counting("union", fracplace.placement.transition_union))
        pattern = Pattern(4, 4, [(1, 0), (2, 1), (0, 2), (3, 3)])
        if run == "place":
            assert minimal_sensors(pattern, horizon).certificate.observable
        else:
            assert verify_observability(pattern, horizon, {0, 3}).observable
        assert calls == ["condense"]

    def test_one_hopcroft_karp_run_on_a_fragmented_pattern(self, monkeypatch):
        # the self-check starts from the placement's pairs, which match every
        # row that is not a sensor, so only the placement matching itself
        # needs the list-based phases; a from-scratch rank check needs them too
        n = 256
        pattern = _random_pattern(n, 1 - 1 / n, np.random.default_rng(0))
        calls = []
        hopcroft_karp = fracplace.matching._hopcroft_karp

        def counted(*args):
            calls.append(len(args[0]))
            return hopcroft_karp(*args)

        monkeypatch.setattr(fracplace.matching, "_hopcroft_karp", counted)
        report = minimal_sensors(pattern, n)
        assert len(calls) <= 1
        calls.clear()
        sensors = Pattern.identity_columns(n, report.sensors.all)
        assert generic_rank([report.g_union.transpose()], sensors) == n
        assert calls == [n]

    def test_self_check_rejects_a_bad_matching(self, monkeypatch):
        # states 1 and 2 both feed only state 0; sensing state 0 alone gives
        # generic rank 2 < 3, which the certificate must catch
        monkeypatch.setattr(
            fracplace.placement,
            "min_weight_max_matching",
            lambda graph: Matching([(0, 3), (1, 0), (2, 1)], 1),
        )
        with pytest.raises(RuntimeError):
            minimal_sensors(Pattern(3, 3, [(0, 1), (0, 2)]), 0)

    def test_sensor_count_monotone_in_horizon(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            pat = random_pattern(rng, n, rng.uniform(0.05, 0.6))
            sizes = [
                len(minimal_sensors(pat, K).sensors) for K in range(0, n + 1)
            ]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_report_covered_sccs_are_sinks(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            pat = random_pattern(rng, n, rng.uniform(0.05, 0.6))
            report = minimal_sensors(pat, n)
            assert report.covered_sccs <= report.condensation.sink_sccs
            assert report.beta == len(report.condensation.sink_sccs)


class TestStructuralCriterionGap:
    """The matching-based certificate can overclaim for this system class.

    When two states influence the rest of the system only through a single
    shared successor ("out-twins"), every measurement sees their initial
    values in one fixed ratio, so almost no realization is observable; the
    union-based matching certificate still passes because it treats the
    union columns as independent.  The classical stacked-rank test on the
    base pattern detects exactly this.  Pinned here so the gap stays
    documented; the genericity acceptance criterion fails on such
    instances, and the README's limitation note carries the analysis.
    """

    # one strongly connected component where states 3 and 4 both have a
    # single out-edge into state 0: every influence path from x3(0) and
    # x4(0) starts with that edge, so all measurements see them in the
    # fixed ratio (A_03 : A_04)
    TWIN = [(1, 0), (2, 1), (0, 2), (3, 2), (4, 2), (0, 3), (0, 4)]

    def test_out_twin_states_defeat_certified_placement(self):
        pat = Pattern(5, 5, self.TWIN)
        report = minimal_sensors(pat, 5)
        assert report.certificate.observable  # structural certificate passes
        assert not ({3, 4} & report.sensors.all)  # twins left unmeasured
        cfg = RealizationConfig()
        rng = np.random.default_rng(0)
        observed = 0
        for _ in range(50):
            M = random_realization(pat, cfg, rng)
            alpha = draw_orders(5, cfg, rng)
            sysm = FracSystem(M, alpha, 5)
            observed += is_observable_numeric(sysm, report.sensors.all)
        assert observed == 0  # almost-all realizations are unobservable

    def test_adding_a_twin_sensor_restores_observability(self):
        pat = Pattern(5, 5, self.TWIN)
        sensors = minimal_sensors(pat, 5).sensors.all | {3}
        cfg = RealizationConfig()
        rng = np.random.default_rng(1)
        observed = 0
        for _ in range(50):
            M = random_realization(pat, cfg, rng)
            alpha = draw_orders(5, cfg, rng)
            observed += is_observable_numeric(
                FracSystem(M, alpha, 5), sensors
            )
        assert observed >= 48
