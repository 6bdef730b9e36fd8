"""The placement before it matched the out-degree-0 states itself, kept as a test oracle.

``full_engine_minimal_sensors`` is ``placement.minimal_sensors`` from
before a state with no out-edge was matched to its own indicator column
ahead of the weighted engine: it hands the engine every row of the
placement graph.  It is unchanged but for its name and its docstring.
"""

from __future__ import annotations

from fracplace.matching import _min_weight_max_matching_rows
from fracplace.placement import PlacementReport, SensorSet, _certify, sink_scc_columns
from fracplace.structure import Pattern, condense, transposed_union


def full_engine_minimal_sensors(pattern: Pattern, horizon: int) -> PlacementReport:
    if not pattern.is_square():
        raise ValueError("placement needs a square pattern")
    n = pattern.nrows
    cond = condense(pattern)
    union_t = transposed_union(pattern, horizon, cond)
    sink_ids = sorted(cond.sink_sccs)

    unit = [m << n for m in sink_scc_columns(cond).rows]
    match_row = _min_weight_max_matching_rows(union_t.rows, unit, n + len(sink_ids))

    j_prime = {r for r, c in enumerate(match_row) if c >= n}
    covered = {sink_ids[c - n] for c in match_row if c >= n}
    j_double = {r for r, c in enumerate(match_row) if c == -1}
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
