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
Both matchings run on bare row masks: the placement hands the weighted
engine the union's rows and the shifted indicator rows and reads the
groups off the ``match_row`` it returns, so no graph or matching object
is built between them.  A state with no out-edge has an empty union
row: it is a sink SCC of its own, and its one edge, to its indicator
column, is isolated, so every maximum matching holds it (Karp and
Sipser's degree-1 rule).  Such a state is matched there first and the
engine gets only the other rows; since the pair lies in every optimum,
the canonical optimum of the rest is the rest of the canonical optimum.

Only the transposed union is built, the pattern that is matched and
certified.  For K >= n - 1 it is the transposed reachability closure of
the base pattern, read off the base pattern's condensation, which the
placement needs anyway; below that it is built step by step from the
transposed base.  Condition (i) is read off the base pattern at every
horizon: it reaches the same states.
"""

from __future__ import annotations

import operator
from typing import Collection

from . import _EXPORTS
from .matching import _max_matching_rows, _min_weight_max_matching_rows
from .structure import (
    Condensation,
    Pattern,
    _Value,
    _square,
    _states,
    condense,
    non_accessible_states,
    transposed_union,
)

__all__ = list(_EXPORTS["placement"])


class SensorSet(_Value):
    """Dedicated sensor states, partitioned by how they were chosen.

    ``j_prime``: matched through a sink-SCC indicator column; ``j_double``:
    row vertices left unmatched; ``j_triple``: smallest members of sink
    SCCs that still lacked a sensor.  The groups are pairwise disjoint and
    their union is the placed set.
    """

    _fields = ("j_prime", "j_double", "j_triple")
    j_prime: frozenset
    j_double: frozenset
    j_triple: frozenset

    def __init__(self, j_prime=(), j_double=(), j_triple=()):
        a = frozenset(map(operator.index, j_prime))
        b = frozenset(map(operator.index, j_double))
        c = frozenset(map(operator.index, j_triple))
        if (a & b) or (a & c) or (b & c):
            raise ValueError("sensor groups must be pairwise disjoint")
        super().__init__(a, b, c)

    @property
    def all(self) -> frozenset:
        return self.j_prime | self.j_double | self.j_triple

    def __len__(self) -> int:
        return len(self.all)


class Certificate(_Value):
    """Outcome of the two structural observability conditions.

    ``non_accessible`` witnesses a condition (i) failure; the matching
    deficiency (n minus the achieved generic rank) witnesses (ii).
    """

    _fields = ("condition_i", "condition_ii", "non_accessible", "matching_deficiency")
    condition_i: bool
    condition_ii: bool
    non_accessible: frozenset
    matching_deficiency: int

    @property
    def observable(self) -> bool:
        return self.condition_i and self.condition_ii


class PlacementReport(_Value):
    """A placement, what it was read off, and its passing ``certificate``.

    ``union_t`` is the transposed transition union at this horizon, the
    pattern that was matched and certified; the union itself is not
    built.  ``condensation`` is the base pattern's own, whose ``scc_of``,
    ``sccs`` and ``sink_sccs`` are the union's too; ``beta`` is the number
    of sink SCCs; ``matching_cardinality`` is the size of the placement
    matching, and ``covered_sccs`` the ids of the sink SCCs it covers
    through their indicator columns.
    """

    _fields = (
        "sensors",
        "union_t",
        "condensation",
        "beta",
        "matching_cardinality",
        "covered_sccs",
        "certificate",
    )
    sensors: SensorSet
    union_t: Pattern
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
    The sensors are range-checked before the union is built.
    """
    sensors = frozenset(_states(_square(pattern, "verification"), sensors))
    return _certify(pattern, transposed_union(pattern, horizon), sensors)


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
    n = _square(pattern, "placement")
    # every union edge is a walk of base edges and every base edge is a
    # union edge, so both digraphs have the same SCCs and sink SCCs: the
    # sparser base is condensed
    cond = condense(pattern)
    union_t = transposed_union(pattern, horizon, cond)
    sink_ids = sorted(cond.sink_sccs)

    # row i of the placement graph is column i of the union, then its sink
    # indicators; match_row[i] is -1 for a row left unmatched.  A row with
    # no union edge keeps its one indicator column (module docstring).
    unit = [m << n for m in sink_scc_columns(cond).rows]
    match_row = [m.bit_length() - 1 for m in unit]  # the engine overwrites the rows it gets
    others = [r for r, m in enumerate(union_t.rows) if m]
    engine_rows = _min_weight_max_matching_rows(
        [union_t.rows[r] for r in others], [unit[r] for r in others], n + len(sink_ids)
    )
    for r, c in zip(others, engine_rows):
        match_row[r] = c

    j_prime = {r for r, c in enumerate(match_row) if c >= n}
    covered = {sink_ids[c - n] for c in match_row if c >= n}
    j_double = {r for r, c in enumerate(match_row) if c == -1}

    # no state of an uncovered sink SCC is in j_prime (its indicator column
    # would cover the SCC) or in j_double (that free indicator edge would
    # augment a maximum matching); SensorSet checks the groups are disjoint
    j_triple = {min(cond.sccs[cid]) for cid in sink_ids if cid not in covered}

    sensors = SensorSet(j_prime, j_double, j_triple)
    cert = _certify(pattern, union_t, sensors.all, enumerate(match_row))
    if not cert.observable:
        raise RuntimeError("internal error: placement failed its own certificate")
    return PlacementReport(
        sensors=sensors,
        union_t=union_t,
        condensation=cond,
        beta=len(sink_ids),
        matching_cardinality=n - len(j_double),
        covered_sccs=frozenset(covered),
        certificate=cert,
    )
