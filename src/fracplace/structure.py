"""Structural layer: boolean patterns, the system digraph, and SCC analysis.

A :class:`Pattern` records only the positions of structurally nonzero
entries.  The digraph of a square pattern follows the column-as-source
convention throughout the package: entry (i, j) present means there is an
edge from state j to state i.  This single convention is used everywhere;
use :meth:`Pattern.transpose` for the flipped view instead of re-deriving
edge directions locally.

All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

import numpy as np

__all__ = [
    "Pattern",
    "Condensation",
    "pattern_of",
    "transition_union",
    "transition_patterns",
    "condense",
    "non_accessible_states",
]


@dataclass(frozen=True)
class Pattern:
    """Sparse boolean matrix stored as row bitmasks, 0-based.

    Bit c of ``rows[r]`` is set iff (r, c) is present.  Two patterns are
    equal iff their dimensions and entries are.
    """

    nrows: int
    ncols: int
    rows: tuple

    def __init__(self, nrows: int, ncols: int, entries: Iterable = ()):
        nrows, ncols = int(nrows), int(ncols)
        if nrows < 0 or ncols < 0:
            raise ValueError("pattern dimensions must be non-negative")
        rows = [0] * nrows
        for r, c in entries:
            r, c = int(r), int(c)
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(
                    f"entry ({r}, {c}) outside a {nrows} x {ncols} pattern"
                )
            rows[r] |= 1 << c
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def entries(self) -> frozenset:
        """The present (row, col) positions."""
        return frozenset((r, c) for r, cols in enumerate(self.row_columns()) for c in cols)

    @property
    def count(self) -> int:
        return sum(m.bit_count() for m in self.rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def row_columns(self) -> list[list[int]]:
        """Each row's present columns, in ascending order."""
        out = []
        for m in self.rows:
            cols = []
            while m:
                low = m & -m
                cols.append(low.bit_length() - 1)
                m ^= low
            out.append(cols)
        return out

    def transpose(self) -> "Pattern":
        masks = [0] * self.ncols
        for r, cols in enumerate(self.row_columns()):
            bit = 1 << r
            for c in cols:
                masks[c] |= bit
        return Pattern.from_masks(self.ncols, self.nrows, masks)

    def to_array(self, dtype=float) -> np.ndarray:
        a = np.zeros((self.nrows, self.ncols), dtype=dtype)
        for r, cols in enumerate(self.row_columns()):
            a[r, cols] = 1
        return a

    @classmethod
    def identity(cls, n: int) -> "Pattern":
        return cls(n, n, ((i, i) for i in range(n)))

    @classmethod
    def identity_columns(cls, n: int, cols: Collection[int]) -> "Pattern":
        """The n x |cols| selector pattern with one entry per chosen state."""
        ordered = sorted(set(int(c) for c in cols))
        for c in ordered:
            if not (0 <= c < n):
                raise ValueError(f"state index {c} outside 0..{n - 1}")
        return cls(n, len(ordered), ((s, j) for j, s in enumerate(ordered)))

    @classmethod
    def from_masks(cls, nrows: int, ncols: int, masks: Sequence[int]) -> "Pattern":
        """Pattern whose row r has the columns set in ``masks[r]``."""
        pattern = cls(nrows, ncols)  # checks the dimensions
        rows = tuple(int(m) for m in masks)
        if len(rows) != pattern.nrows:
            raise ValueError(f"need {pattern.nrows} row masks, got {len(rows)}")
        if any(m < 0 or m >> pattern.ncols for m in rows):
            raise ValueError(f"row masks must lie in [0, 2**{pattern.ncols})")
        object.__setattr__(pattern, "rows", rows)
        return pattern


@dataclass(frozen=True)
class Condensation:
    """SCC decomposition of a square pattern's digraph.

    SCCs are numbered in ascending order of their smallest member state.
    ``sink_sccs`` holds the ids with no outgoing edge to another SCC;
    every state of the graph can reach at least one of them.
    """

    scc_of: tuple
    sccs: tuple
    dag_edges: frozenset
    sink_sccs: frozenset

    @property
    def n(self) -> int:
        return len(self.scc_of)


def pattern_of(M: np.ndarray, zero_tol: float = 1e-12) -> Pattern:
    """Pattern of a numeric matrix: entries with magnitude above zero_tol."""
    if not (np.isfinite(zero_tol) and zero_tol >= 0):
        raise ValueError("zero_tol must be finite and >= 0")
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows, cols = np.nonzero(np.abs(M) > zero_tol)
    return Pattern(M.shape[0], M.shape[1], zip(rows.tolist(), cols.tolist()))


def _bool_product(a_masks: Sequence[int], b_masks: Sequence[int]) -> list[int]:
    # row i of (A o B) = union of B-rows selected by the bits of A-row i
    out = []
    for m in a_masks:
        acc = 0
        while m:
            low = m & -m
            acc |= b_masks[low.bit_length() - 1]
            m ^= low
        out.append(acc)
    return out


def transition_union(pattern: Pattern, horizon: int) -> Pattern:
    """Union pattern of all transition factors up to the given horizon.

    Equals the union of the boolean powers P, P^2, ..., P^(horizon+1): an
    entry (i, j) is present iff state j has a walk of length 1..horizon+1
    to state i.  Structural semantics: generic cancellation is ignored,
    and all memory tail coefficients are treated as nonzero (which cannot
    change the union even when integer orders kill some tails, since every
    factor T_k structurally contains the pure power P^(k+1) and every
    other term's pattern is contained in a shorter power).
    """
    if not pattern.is_square():
        raise ValueError("transition union needs a square pattern")
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    base = pattern.rows
    acc = list(base)
    cur = list(base)
    for _ in range(horizon):
        cur = _bool_product(base, cur)
        new = [a | c for a, c in zip(acc, cur)]
        if new == acc:
            break
        acc = new
    return Pattern.from_masks(pattern.nrows, pattern.ncols, acc)


def transition_patterns(
    pattern: Pattern,
    horizon: int,
    tail_lengths: Sequence[int | None] | None = None,
) -> list[Pattern]:
    """Predicted per-step patterns of the transition factors T_0..T_K.

    Mirrors the factor recurrence in boolean arithmetic: the coupling term
    applies the base pattern, and each live memory tail re-injects the
    rows of an earlier factor.  ``tail_lengths[i]`` caps how many tail
    coefficients are nonzero for state i (an integer order ``a`` keeps
    only tails j with j + 1 <= a); ``None`` entries mean a generic,
    unbounded tail.
    """
    if not pattern.is_square():
        raise ValueError("transition patterns need a square pattern")
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    n = pattern.nrows
    if tail_lengths is not None and len(tail_lengths) != n:
        raise ValueError("need one tail length (or None) per state")

    def alive(state: int, j: int) -> bool:
        if tail_lengths is None or tail_lengths[state] is None:
            return True
        return j + 1 <= tail_lengths[state]

    base = pattern.rows
    steps = [list(base)]
    for k in range(1, horizon + 1):
        rows = _bool_product(base, steps[k - 1])
        for j in range(1, k):
            prev = steps[k - 1 - j]
            for i in range(n):
                if alive(i, j):
                    rows[i] |= prev[i]
        steps.append(rows)
    return [Pattern.from_masks(n, n, masks) for masks in steps]


def condense(pattern: Pattern) -> Condensation:
    """SCC condensation of the pattern digraph (Tarjan, O(V + E)).

    Edge convention: entry (i, j) is an edge from state j to state i.
    Returns the member partition, the quotient DAG edges, and the ids of
    the sink SCCs (no outgoing quotient edge).
    """
    if not pattern.is_square():
        raise ValueError("condensation needs a square pattern")
    n = pattern.nrows
    # Tarjan walks the reversed digraph (row i lists the predecessors of
    # state i): it has the same SCCs, and they are renumbered below
    preds = pattern.row_columns()

    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pos = work[-1]
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            pushed = False
            for k in range(pos, len(preds[v])):
                w = preds[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    pushed = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    comps.sort(key=min)
    scc_of = [0] * n
    for cid, comp in enumerate(comps):
        for v in comp:
            scc_of[v] = cid
    dag = set()
    for i, cols in enumerate(preds):
        b = scc_of[i]
        for j in cols:
            if scc_of[j] != b:
                dag.add((scc_of[j], b))
    has_out = {a for a, _ in dag}
    sinks = frozenset(cid for cid in range(len(comps)) if cid not in has_out)
    return Condensation(
        scc_of=tuple(scc_of),
        sccs=tuple(frozenset(c) for c in comps),
        dag_edges=frozenset(dag),
        sink_sccs=sinks,
    )


def non_accessible_states(pattern: Pattern, sensors: Collection[int]) -> frozenset:
    """States with no directed path to any sensor-bearing state.

    Computed as the complement of reverse reachability from the sensor
    states; a sensor state is accessible through its own output edge.
    """
    if not pattern.is_square():
        raise ValueError("accessibility needs a square pattern")
    n = pattern.nrows
    sensor_set = set(int(s) for s in sensors)
    for s in sensor_set:
        if not (0 <= s < n):
            raise ValueError(f"sensor index {s} outside 0..{n - 1}")
    seen = frontier = sum(1 << s for s in sensor_set)
    while frontier:
        (frontier,) = _bool_product([frontier], pattern.rows)  # row v: v's predecessors
        frontier &= ~seen
        seen |= frontier
    return frozenset(v for v in range(n) if not seen >> v & 1)
