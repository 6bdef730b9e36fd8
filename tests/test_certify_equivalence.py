"""Condition (ii) of the certificate against the generic rank it stands for.

``placement._certify`` matches only the non-sensor rows of the transposed
union, starting from a given set of pairs.  The paper's condition asks for
the rank of the transposed union beside one identity column per sensor;
the oracle ``reference_rank.generic_rank`` matches that concatenation from
scratch.  The deficiencies must agree for every sensor set and whatever
starting pairs are given, bad ones included.
"""

import numpy as np

import fracplace.placement
from fracplace import (
    min_weight_max_matching,
    minimal_sensors,
    sink_scc_columns,
    transition_union,
    verify_observability,
)
from fracplace.placement import _certify

from conftest import identity_columns, placement_graph, random_pattern
from reference_rank import generic_rank


def adversarial_pairs(rng, union_t, sensors):
    """Starting pairs mixing edges with pairs that must all be dropped.

    Edges (some on sensor rows), non-edges, repeated rows and columns,
    columns at or beyond n and negative indices, in random order.
    """
    n = union_t.nrows
    edges = sorted(union_t.entries)
    pairs = []
    if edges:
        picks = rng.integers(0, len(edges), size=int(rng.integers(0, 2 * n + 1)))
        pairs += [edges[i] for i in picks]  # repeats rows and columns
    for _ in range(int(rng.integers(0, n + 1))):
        r, c = int(rng.integers(0, n)), int(rng.integers(0, n))
        if not union_t.rows[r] >> c & 1:
            pairs.append((r, c))  # a non-edge
    pairs += [(int(rng.integers(0, n)), int(rng.integers(n, 2 * n + 1))) for _ in range(3)]
    pairs += [(s, int(rng.integers(0, n))) for s in sensors]
    pairs += [(-1, 0), (0, -1), (n, 0)]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def test_deficiency_equals_generic_rank_oracle():
    rng = np.random.default_rng(101)
    short = 0
    for _ in range(2000):
        n = int(rng.integers(1, 25))
        pattern = random_pattern(rng, n, rng.uniform(0.0, 2.5) / n)
        horizon = int(rng.choice([0, 1, 2, n]))
        sensors = frozenset(
            int(s) for s in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        )
        union = transition_union(pattern, horizon)
        union_t = union.transpose()
        want = n - generic_rank([union_t], identity_columns(n, sensors))

        cert = verify_observability(pattern, horizon, sensors)
        assert cert.matching_deficiency == want
        assert cert.condition_ii == (want == 0)
        assert _certify(union, union_t, sensors).matching_deficiency == want
        start = adversarial_pairs(rng, union_t, sensors)
        assert _certify(union, union_t, sensors, start).matching_deficiency == want
        short += want > 0
    assert short > 500  # the draws exercise deficient sensor sets too


def test_placement_pairs_as_the_starting_matching():
    # the starting matching minimal_sensors passes: the placement's own
    # pairs, indicator columns at or beyond n included, for the placed set
    # and for that set less one sensor
    rng = np.random.default_rng(102)
    for _ in range(300):
        n = int(rng.integers(1, 25))
        pattern = random_pattern(rng, n, rng.uniform(0.0, 2.5) / n)
        horizon = int(rng.choice([0, 1, 2, n]))
        report = minimal_sensors(pattern, horizon)
        union = transition_union(pattern, horizon)
        union_t = report.union_t
        assert union_t == union.transpose()
        graph = placement_graph(union_t, sink_scc_columns(report.condensation))
        pairs = min_weight_max_matching(graph).pairs
        placed = report.sensors.all
        for sensors in [placed] + [placed - {s} for s in sorted(placed)[:3]]:
            want = n - generic_rank([union_t], identity_columns(n, sensors))
            assert _certify(union, union_t, sensors, pairs).matching_deficiency == want


def test_verify_matches_the_union_route():
    # below K = n - 1 verify_observability reads condition (i) off the base
    # pattern and transposes the base before the union is built; every
    # certificate field must equal the one the union and its transpose give
    rng = np.random.default_rng(103)
    failed = {"i": 0, "ii": 0}
    for _ in range(1500):
        n = int(rng.integers(1, 25))
        pattern = random_pattern(rng, n, rng.uniform(0.0, 2.5) / n)
        horizon = int(rng.choice([0, 1, 2, max(n - 2, 0), n]))
        sensors = frozenset(
            int(s) for s in rng.choice(n, size=int(rng.integers(0, n // 2 + 2)), replace=False)
        )
        union = transition_union(pattern, horizon)
        got = verify_observability(pattern, horizon, sensors)
        assert got == _certify(union, union.transpose(), sensors)
        failed["i"] += not got.condition_i
        failed["ii"] += not got.condition_ii
    assert min(failed.values()) > 200  # both conditions fail on many draws


def test_place_matches_the_union_route(monkeypatch):
    # below K = n - 1 minimal_sensors builds the transposed union from the
    # transposed base; every report field must equal the one it gives when
    # the transposed union is the transpose of the union
    def union_route(pattern, horizon, cond=None):
        return transition_union(pattern, horizon).transpose()

    rng = np.random.default_rng(104)
    for _ in range(600):
        n = int(rng.integers(1, 25))
        pattern = random_pattern(rng, n, rng.uniform(0.0, 2.5) / n)
        horizon = int(rng.choice([0, 1, 2, max(n - 2, 0)]))
        got = minimal_sensors(pattern, horizon)
        with monkeypatch.context() as patched:
            patched.setattr(fracplace.placement, "transposed_union", union_route)
            want = minimal_sensors(pattern, horizon)
        assert got == want
        # the condensation's order and pattern take no part in its equality
        assert got.condensation.order == want.condensation.order
        assert got.condensation.pattern == want.condensation.pattern
