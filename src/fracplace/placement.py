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
condensation, which the placement needs anyway, and condition (i) is a
test of each state's transposed row.
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
    _state_mask,
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
    entries = []
    for p, cid in enumerate(sink_ids):
        entries.extend((state, p) for state in cond.sccs[cid])
    return Pattern(cond.n, len(sink_ids), entries)


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
        return _certify(*_closure_union(condense(pattern)), sensors, closed=True)
    union = transition_union(pattern, horizon)
    return _certify(union, union.transpose(), sensors)


def _certify(
    union: Pattern, union_t: Pattern, sensors: frozenset, start=(), closed=False
) -> Certificate:
    """Both conditions on an already computed union pattern and its transpose.

    With ``closed`` the union is the reachability closure, so a state
    reaches a sensor iff it is one or its row of ``union_t`` holds one.
    A sensor's identity column meets only the sensor's row, so condition
    (ii) fails by the non-sensor rows of ``union_t`` left unmatched; that
    matching starts from the pairs of ``start`` that are its edges.
    """
    n = union.nrows
    if closed:
        sensed = _state_mask(n, sensors)
        blocked = frozenset(
            v for v, below in enumerate(union_t.rows) if not (below | 1 << v) & sensed
        )
    else:
        blocked = non_accessible_states(union, sensors)
    rows = [0 if r in sensors else m for r, m in enumerate(union_t.rows)]
    match_row, _ = _max_matching_rows(Pattern.from_masks(n, n, rows), start)
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
    off.  With ``strict_j3`` every uncovered sink SCC contributes a
    ``j_triple`` sensor even if one of its states already carries a
    ``j_prime``/``j_double`` sensor granting reachability; the default
    skips those (for an exact maximum matching the two rules coincide,
    since an unmatched row inside an uncovered sink SCC would admit an
    augmenting indicator edge).

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
    closed = _saturates(pattern, horizon)
    if closed:
        union, union_t = _closure_union(cond)
    else:
        union = transition_union(pattern, horizon)
        union_t = union.transpose()
    cond = replace(cond, pattern=union)
    sink_cols = sink_scc_columns(cond)
    sink_ids = sorted(cond.sink_sccs)

    matching: Matching = min_weight_max_matching(_placement_graph(union_t, sink_cols))

    j_prime = {r for r, c in matching.pairs if c >= n}
    covered = {sink_ids[c - n] for _, c in matching.pairs if c >= n}
    j_double = set(range(n)) - {r for r, _ in matching.pairs}

    j_triple = set()
    for cid in sink_ids:
        if cid in covered:
            continue
        members = cond.sccs[cid]
        if not strict_j3 and (members & (j_prime | j_double)):
            continue
        j_triple.add(min(members))

    sensors = SensorSet(j_prime, j_double, j_triple - j_prime - j_double)
    cert = _certify(union, union_t, sensors.all, matching.pairs, closed)
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
