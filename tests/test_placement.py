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

from conftest import identity_columns, random_pattern
from reference_rank import generic_rank


class TestSensorSet:
    def test_union(self):
        s = SensorSet({0}, {1}, {2})
        assert s.all == frozenset({0, 1, 2})
        assert len(s) == 3

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            SensorSet({0}, {0}, ())

    def test_rejects_a_float_state(self):
        with pytest.raises(TypeError):
            SensorSet([1.5])
        assert SensorSet([np.int64(1)]).j_prime == {1}


class TestSinkColumns:
    def test_chain(self, chain3):
        cols = sink_scc_columns(condense(transition_union(chain3, 3)))
        assert cols.ncols == 1
        assert cols.entries == frozenset({(2, 0)})

    def test_empty_pattern_gives_identity(self):
        cols = sink_scc_columns(condense(Pattern(3, 3)))
        assert cols.entries == identity_columns(3, range(3)).entries

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

    def test_rejects_a_float_sensor_or_horizon(self, chain3):
        # refused, not truncated to sensor 2 or to K = 1
        with pytest.raises(TypeError):
            verify_observability(chain3, 2, [2.9])
        for horizon in (1.5, 2.5):  # below n - 1 and at it
            with pytest.raises(TypeError):
                verify_observability(chain3, horizon, [2])


class TestMinimalSensors:
    def test_chain(self, chain3):
        report = minimal_sensors(chain3, 3)
        assert report.sensors.all == frozenset({2})
        assert report.sensors.j_prime == frozenset({2})
        assert report.beta == 1
        assert report.matching_cardinality == 3
        assert report.certificate.observable

    def test_condensation_is_that_of_the_union(self):
        # the base pattern is condensed: its SCCs and sink SCCs are the
        # union's, and only the transposed union is built
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            pat = random_pattern(rng, n, rng.uniform(0.0, 3.0 / n))
            horizon = int(rng.integers(0, n + 1))
            report = minimal_sensors(pat, horizon)
            union = transition_union(pat, horizon)
            assert report.condensation == condense(union)
            assert report.condensation.pattern == pat
            assert report.union_t == union.transpose()

    def test_rejects_a_float_horizon(self, chain3):
        # refused, not truncated to K = 2 (or to K = 1 below n - 1)
        for horizon in (2.5, 1.5):
            with pytest.raises(TypeError):
                minimal_sensors(chain3, horizon)
        assert minimal_sensors(chain3, np.int64(1)) == minimal_sensors(chain3, 1)

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

    def test_no_state_of_an_uncovered_sink_scc_is_otherwise_sensed(self):
        # j_triple needs no filter: a j_prime row covers its own sink SCC,
        # and a j_double row in an uncovered one would leave a free indicator
        # edge, so the matching would not be maximum
        rng = np.random.default_rng(15)
        for _ in range(150):
            n = int(rng.integers(1, 41))
            pat = random_pattern(rng, n, rng.uniform(0.0, 4.0 / n))
            for horizon in (1, n // 2, n):
                report = minimal_sensors(pat, horizon)
                cond, sensors = report.condensation, report.sensors
                uncovered = [cond.sccs[cid] for cid in cond.sink_sccs
                             if cid not in report.covered_sccs]
                for members in uncovered:
                    assert not members & (sensors.j_prime | sensors.j_double)
                assert sensors.j_triple == {min(members) for members in uncovered}
                assert minimal_sensors(pat, horizon, strict_j3=True).sensors == sensors

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
        # at a bounded horizon (K = 2 < n - 1) only the transposed union is
        # built, step by step from the transposed base, once per placement
        # (the self-check does not build it again) and once per check
        calls = []
        stepwise_union = fracplace.structure._stepwise_union

        def counted(pattern, horizon):
            calls.append((pattern, horizon))
            return stepwise_union(pattern, horizon)

        pattern = Pattern(4, 4, [(1, 0), (2, 1), (0, 2), (3, 3)])
        monkeypatch.setattr(fracplace.structure, "_stepwise_union", counted)
        minimal_sensors(pattern, 2)
        assert calls == [(pattern.transpose(), 2)]
        calls.clear()
        verify_observability(pattern, 2, {0})
        assert calls == [(pattern.transpose(), 2)]

    def test_union_transposed_once(self, monkeypatch):
        # at a bounded horizon the placement matching and the self-check
        # share one transposed union, built from the one transpose of the
        # base pattern, and no graph is built from edge triples
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

    def test_tie_break_transposes_nothing(self, monkeypatch):
        # at K = n the union and its transpose come off the condensation,
        # and the tie-break searches forward on the tight row masks: no
        # pattern is transposed, though this fragmented pattern's tie-break
        # runs searches
        n = 256
        pattern = _random_pattern(n, 1 - 1 / n, np.random.default_rng(0))
        stage = ["dual rounds"]
        searches = []
        layers = fracplace.matching._layers
        tie_break = fracplace.matching._tie_break

        def no_transpose(pattern):
            raise AssertionError("a pattern was transposed")

        def counted(*args, **kwargs):
            searches.append(stage[0])
            return layers(*args, **kwargs)

        def watched(*args):
            stage[0] = "tie-break"
            tie_break(*args)
            stage[0] = "self-check"

        monkeypatch.setattr(Pattern, "transpose", no_transpose)
        monkeypatch.setattr(fracplace.matching, "_layers", counted)
        monkeypatch.setattr(fracplace.matching, "_tie_break", watched)
        assert minimal_sensors(pattern, n).certificate.observable
        assert searches.count("tie-break") > 10

    @pytest.mark.parametrize("horizon", [3, 4, 8])
    @pytest.mark.parametrize("run", ["place", "verify"])
    def test_long_horizon_reads_the_union_off_one_condensation(self, monkeypatch, run, horizon):
        # at K >= n - 1 the transposed union comes from the condensation:
        # one SCC search, no boolean product, no transpose, and only the
        # transposed union is wrapped in a Pattern (a placement wraps its
        # sink indicators too; the weighted engine takes bare row masks)
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(fracplace.structure, "_bool_product",
                            counting("product", fracplace.structure._bool_product))
        monkeypatch.setattr(Pattern, "transpose", counting("transpose", Pattern.transpose))
        # minimal_sensors condenses through its own import of condense,
        # transposed_union through the structure module's
        condense = counting("condense", fracplace.structure.condense)
        monkeypatch.setattr(fracplace.placement, "condense", condense)
        monkeypatch.setattr(fracplace.structure, "condense", condense)
        monkeypatch.setattr(fracplace.structure, "_stepwise_union",
                            counting("stepwise", fracplace.structure._stepwise_union))
        monkeypatch.setattr(Pattern, "from_masks",
                            classmethod(counting("from_masks", Pattern.from_masks.__func__)))
        pattern = Pattern(4, 4, [(1, 0), (2, 1), (0, 2), (3, 3)])
        if run == "place":
            assert minimal_sensors(pattern, horizon).certificate.observable
            assert calls == ["condense"] + ["from_masks"] * 2
        else:
            assert verify_observability(pattern, horizon, {0, 3}).observable
            assert calls == ["condense", "from_masks"]

    def test_one_hopcroft_karp_run_on_a_fragmented_pattern(self, monkeypatch):
        # the self-check starts from the placement's pairs, which match every
        # row that is not a sensor, so it runs no augmenting phase; only the
        # placement matching itself does, and a from-scratch rank check needs
        # phases beyond the first, whose rows each take their lowest column
        # (the placement stage's count also holds the tie-break's searches,
        # which run on _layers too)
        n = 256
        pattern = _random_pattern(n, 1 - 1 / n, np.random.default_rng(0))
        phases = []
        stage = ["placement"]
        layers = fracplace.matching._layers
        max_matching_rows = fracplace.placement._max_matching_rows

        def counted(*args, **kwargs):
            found = layers(*args, **kwargs)
            if found:
                phases.append(stage[0])
            return found

        def self_check(*args):
            stage[0] = "self-check"
            return max_matching_rows(*args)

        monkeypatch.setattr(fracplace.matching, "_layers", counted)
        monkeypatch.setattr(fracplace.placement, "_max_matching_rows", self_check)
        report = minimal_sensors(pattern, n)
        assert stage == ["self-check"]
        assert "placement" in phases and "self-check" not in phases
        phases.clear()
        stage[0] = "from scratch"
        sensors = identity_columns(n, report.sensors.all)
        assert generic_rank([report.union_t], sensors) == n
        assert len(phases) >= 2

    def test_wrapped_patterns_do_not_grow_with_the_dual_rounds(self, monkeypatch):
        # both matching engines take bare row masks, so neither a Hungarian
        # dual round, the placement matching nor the self-check wraps its
        # masks in a Pattern: the number of from_masks calls in one
        # placement is set by the horizon's route alone, however many
        # rounds the matching ran: the transposed union and the sink
        # indicators, and below K = n - 1 the transposed base too
        from_masks = Pattern.from_masks.__func__
        max_matching_rows = fracplace.matching._max_matching_rows
        wrapped, rounds = [0], [0]

        def counted_from_masks(cls, *args):
            wrapped[0] += 1
            return from_masks(cls, *args)

        def counted_round(*args):
            rounds[0] += 1
            return max_matching_rows(*args)

        monkeypatch.setattr(Pattern, "from_masks", classmethod(counted_from_masks))
        monkeypatch.setattr(fracplace.matching, "_max_matching_rows", counted_round)
        rng = np.random.default_rng(71)
        for closure in (True, False):
            calls, seen = set(), set()
            for _ in range(60):
                n = int(rng.integers(4, 30))  # K = 2 is below n - 1
                pattern = random_pattern(rng, n, rng.uniform(0.0, 2.5) / n)
                wrapped[0] = rounds[0] = 0
                minimal_sensors(pattern, n if closure else 2)
                calls.add(wrapped[0])
                seen.add(rounds[0])
            assert calls == ({2} if closure else {3}), calls
            assert max(seen) >= 3  # dual steps after the first one ran

    @pytest.mark.parametrize("horizon", [0, 2, "n"])
    def test_places_and_certifies_without_graph_or_matching_objects(self, monkeypatch, horizon):
        # the placement and the check run both engines on bare row masks:
        # neither builds a WeightedBipartite or a Matching
        def refused(*args, **kwargs):
            raise AssertionError("a graph or matching object was built")

        monkeypatch.setattr(WeightedBipartite, "__init__", refused)
        monkeypatch.setattr(Matching, "__init__", refused)
        rng = np.random.default_rng(72)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            pattern = random_pattern(rng, n, rng.uniform(0.0, 3.0) / n)
            k = n if horizon == "n" else horizon
            report = minimal_sensors(pattern, k)
            assert report.certificate.observable
            assert verify_observability(pattern, k, report.sensors.all) == report.certificate

    def test_self_check_rejects_a_bad_matching(self, monkeypatch):
        # states 1 and 2 both feed only state 0; sensing state 0 alone gives
        # generic rank 2 < 3, which the certificate must catch
        # (match_row [3, 0, 1]: row 0 takes the sink indicator column 3, and
        # row 2 takes column 1, which is no edge of it)
        monkeypatch.setattr(
            fracplace.placement, "_min_weight_max_matching_rows", lambda free, unit, n_cols: [3, 0, 1]
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
