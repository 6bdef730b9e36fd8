"""Minimum dedicated sensor placement for structural observability.

A dedicated sensor reads exactly one state.  A sensor set makes a square
pattern structurally observable over a finite horizon iff

  (i)  every state has a directed path (in the digraph of the union
       pattern of all transition factors) to some sensor state, and
  (ii) the transposed union pattern, extended with one identity column
       per sensor, has generic rank n.

``minimal_sensors`` computes a smallest such set: it runs one
minimum-weight maximum-cardinality matching on the bipartite graph whose
zero-weight columns are the transposed union columns (one per state) and
whose unit-weight columns indicate membership of the sink SCCs, then reads
the three sensor groups off the matching.  Matched indicator columns give
``j_prime`` (rank and reachability at once), unmatched row vertices give
``j_double`` (rank completion), and sink SCCs left uncovered contribute
their smallest member as ``j_triple`` (reachability completion).  The
self-check of condition (ii) starts from the same matching's pairs.

For K >= n - 1 the union is the reachability closure of the base
pattern; it and its transpose are read off the base pattern's
condensation, which the placement needs anyway.  Condition (i) is read
off the base pattern at every horizon: it reaches the same states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection

from .matching import Matching, WeightedBipartite, _max_matching_rows, min_weight_max_matching
from .structure import (
    Condensation,
    Pattern,
    _closure_union,
    _saturates,
    condense,
    non_accessible_states,
    transition_union,
)

__all__ = [
    "SensorSet",
    "Certificate",
    "PlacementReport",
    "sink_scc_columns",
    "minimal_sensors",
    "verify_observability",
]


@dataclass(frozen=True)
class SensorSet:
    """Dedicated sensor states, partitioned by how they were chosen.

    ``j_prime``: matched through a sink-SCC indicator column; ``j_double``:
    row vertices left unmatched; ``j_triple``: smallest members of sink
    SCCs that still lacked a sensor.  The groups are pairwise disjoint and
    their union is the placed set.
    """

    j_prime: frozenset
    j_double: frozenset
    j_triple: frozenset

    def __init__(self, j_prime=(), j_double=(), j_triple=()):
        a = frozenset(int(i) for i in j_prime)
        b = frozenset(int(i) for i in j_double)
        c = frozenset(int(i) for i in j_triple)
        if (a & b) or (a & c) or (b & c):
            raise ValueError("sensor groups must be pairwise disjoint")
        object.__setattr__(self, "j_prime", a)
        object.__setattr__(self, "j_double", b)
        object.__setattr__(self, "j_triple", c)

    @property
    def all(self) -> frozenset:
        return self.j_prime | self.j_double | self.j_triple

    def __len__(self) -> int:
        return len(self.all)


@dataclass(frozen=True)
class Certificate:
    """Outcome of the two structural observability conditions.

    ``non_accessible`` witnesses a condition (i) failure; the matching
    deficiency (n minus the achieved generic rank) witnesses (ii).
    """

    condition_i: bool
    condition_ii: bool
    non_accessible: frozenset
    matching_deficiency: int

    @property
    def observable(self) -> bool:
        return self.condition_i and self.condition_ii


@dataclass(frozen=True)
class PlacementReport:
    """A placement, what it was read off, and its passing ``certificate``.

    ``g_union`` is the transition union at this horizon; ``condensation``
    holds the base pattern's SCCs (the union's too) with the union as its
    ``pattern``; ``beta`` is the number of sink SCCs; ``matching_cardinality``
    is the size of the placement matching, and ``covered_sccs`` the ids of
    the sink SCCs it covers through their indicator columns.
    """

    sensors: SensorSet
    g_union: Pattern
    condensation: Condensation
    beta: int
    matching_cardinality: int
    covered_sccs: frozenset
    certificate: Certificate


def sink_scc_columns(cond: Condensation) -> Pattern:
    """Membership indicator of the sink SCCs, one column per component.

    Columns are ordered by ascending smallest member state, so the layout
    is deterministic; column p has an entry at every state of the p-th
    sink SCC.
    """
    sink_ids = sorted(cond.sink_sccs)  # SCC ids ascend with smallest member
    column = {cid: 1 << p for p, cid in enumerate(sink_ids)}  # sink SCC id -> its column's bit
    return Pattern.from_masks(cond.n, len(sink_ids), [column.get(c, 0) for c in cond.scc_of])


def verify_observability(
    pattern: Pattern, horizon: int, sensors: Collection[int]
) -> Certificate:
    """Check both structural observability conditions for a sensor set.

    Condition (i): no state is non-accessible in the union digraph with
    output edges on the sensor states.  Condition (ii): the transposed
    union pattern plus the sensor identity columns has generic rank n.
    """
    if not pattern.is_square():
        raise ValueError("verification needs a square pattern")
    sensors = frozenset(int(s) for s in sensors)
    if _saturates(pattern, horizon):
        union_t = _closure_union(condense(pattern))[1]
    else:  # the powers of the transposed pattern are the transposed powers
        union_t = transition_union(pattern.transpose(), horizon)
    return _certify(pattern, union_t, sensors)


def _certify(digraph: Pattern, union_t: Pattern, sensors: frozenset, start=()) -> Certificate:
    """Both conditions on an already computed transposed union pattern.

    Condition (i) is a search back from the sensors on ``digraph``; the
    callers pass the base pattern, but the union would do: every union
    edge is a walk of base edges and every base edge is a union edge, so
    both reach the same states.  A sensor's identity column meets only
    the sensor's row, so condition (ii) fails by the non-sensor rows of
    ``union_t`` left unmatched; that matching runs on the row masks with
    the sensor rows cleared and starts from the pairs of ``start`` that
    are its edges.
    """
    blocked = non_accessible_states(digraph, sensors)
    rows = [0 if r in sensors else m for r, m in enumerate(union_t.rows)]
    match_row, _ = _max_matching_rows(rows, union_t.ncols, start)
    deficiency = match_row.count(-1) - len(sensors)
    return Certificate(
        condition_i=not blocked,
        condition_ii=deficiency == 0,
        non_accessible=blocked,
        matching_deficiency=deficiency,
    )


def _placement_graph(union_t: Pattern, sink_cols: Pattern) -> WeightedBipartite:
    # row i of the graph is column i of the union, then its sink indicators
    n, width = union_t.nrows, union_t.ncols + sink_cols.ncols
    free = Pattern.from_masks(n, width, union_t.rows)
    unit = Pattern.from_masks(n, width, [m << n for m in sink_cols.rows])
    return WeightedBipartite.from_patterns(free, unit)


def minimal_sensors(
    pattern: Pattern, horizon: int, strict_j3: bool = False
) -> PlacementReport:
    """Smallest dedicated sensor set for structural observability.

    One minimum-weight maximum matching on the placement graph decides
    everything; see the module docstring for how the three groups are read
    off.  ``strict_j3`` cannot change the set and is kept for callers
    that pass it: every uncovered sink SCC contributes its smallest member
    as a ``j_triple`` sensor, since none of its states is in ``j_prime``
    or ``j_double`` for a maximum matching.

    The returned certificate always passes; every instance has a solution
    (the full state set in the worst case).
    """
    if not pattern.is_square():
        raise ValueError("placement needs a square pattern")
    n = pattern.nrows
    # every union edge is a walk of base edges and every base edge is a
    # union edge, so both digraphs have the same SCCs and sink SCCs; the
    # sparser base is condensed and the union kept for the quotient edges
    cond = condense(pattern)
    if _saturates(pattern, horizon):
        union, union_t = _closure_union(cond)
    else:
        union = transition_union(pattern, horizon)
        # the powers of the transposed pattern are the transposed powers
        union_t = transition_union(pattern.transpose(), horizon)
    cond = replace(cond, pattern=union)
    sink_cols = sink_scc_columns(cond)
    sink_ids = sorted(cond.sink_sccs)

    matching: Matching = min_weight_max_matching(_placement_graph(union_t, sink_cols))

    j_prime = {r for r, c in matching.pairs if c >= n}
    covered = {sink_ids[c - n] for _, c in matching.pairs if c >= n}
    j_double = set(range(n)) - {r for r, _ in matching.pairs}

    # no state of an uncovered sink SCC is in j_prime (its indicator column
    # would cover the SCC) or in j_double (that free indicator edge would
    # augment a maximum matching); SensorSet checks the groups are disjoint
    j_triple = {min(cond.sccs[cid]) for cid in sink_ids if cid not in covered}

    sensors = SensorSet(j_prime, j_double, j_triple)
    cert = _certify(pattern, union_t, sensors.all, matching.pairs)
    if not cert.observable:
        raise RuntimeError("internal error: placement failed its own certificate")
    return PlacementReport(
        sensors=sensors,
        g_union=union,
        condensation=cond,
        beta=sink_cols.ncols,
        matching_cardinality=matching.cardinality,
        covered_sccs=frozenset(covered),
        certificate=cert,
    )
