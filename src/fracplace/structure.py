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

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Collection, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Pattern",
    "Condensation",
    "pattern_of",
    "transition_union",
    "condense",
    "non_accessible_states",
]


# maps the digits of a binary numeral to the bytes 0 and 1
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
# a mask (or pattern) counts as dense when more than one in this many of
# its bits is set: formatting it as a binary numeral then costs less than
# walking its set bits
_DENSE_WIDTH_PER_BIT = 8


def set_bits(mask: int, width: int) -> list[int]:
    """The indices of the set bits of ``mask``, which lies below ``2**width``, ascending.

    A sparse mask is walked bit by bit.  A dense one is formatted as a
    binary numeral and its digits are turned into flags for
    ``itertools.compress``, so the scan runs in C.
    """
    if mask.bit_count() * _DENSE_WIDTH_PER_BIT > width:
        flags = format(mask, f"0{width}b").encode().translate(_BIT_FLAGS)
        return list(compress(range(width), flags[::-1]))
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
        return [set_bits(m, self.ncols) for m in self.rows]

    def transpose(self) -> "Pattern":
        # set_bits' threshold; timed on square random patterns, the paths
        # cross near 1 in 8 at n = 32, 1 in 10 at n = 112 and 1 in 16 to
        # 1 in 32 at n = 2048, so the sparse path is kept up to 3x too long
        # there
        if self.count * _DENSE_WIDTH_PER_BIT > self.nrows * self.ncols:
            # dense: zip the rows' binary numerals into the columns' ones,
            # in C; numeral k of the zip is column ncols - 1 - k
            numerals = zip(*(format(m, f"0{self.ncols}b") for m in self.rows))
            masks = [int("".join(digits)[::-1], 2) for digits in numerals][::-1]
        else:
            masks = [0] * self.ncols
            for r, cols in enumerate(self.row_columns()):
                bit = 1 << r
                for c in cols:
                    masks[c] |= bit
        return Pattern.from_masks(self.ncols, self.nrows, masks)

    def to_array(self, dtype=float) -> np.ndarray:
        import numpy as np

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
    every state of the graph can reach at least one of them.  ``order``
    lists the ids in a topological order of the quotient DAG: an SCC comes
    after every SCC with an edge into it.  ``pattern`` is the decomposed
    pattern.  Neither takes part in equality.
    """

    scc_of: tuple
    sccs: tuple
    sink_sccs: frozenset
    order: tuple = field(repr=False, compare=False)
    pattern: Pattern = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.scc_of)

    @cached_property
    def dag_edges(self) -> frozenset:
        """Quotient DAG edges (a, b): a state of SCC a has an edge into SCC b."""
        scc_of = self.scc_of
        return frozenset(
            (scc_of[j], scc_of[i])
            for i, preds in enumerate(self.pattern.row_columns())
            for j in preds
            if scc_of[j] != scc_of[i]
        )


def _check_zero_tol(zero_tol: float) -> None:
    if not (math.isfinite(zero_tol) and zero_tol >= 0):
        raise ValueError("zero_tol must be finite and >= 0")


def pattern_of(M, zero_tol: float = 1e-12) -> Pattern:
    """Pattern of a numeric matrix: entries with magnitude above zero_tol.

    ``M`` is a 2-D array or a sequence of equally long rows of numbers.
    """
    _check_zero_tol(zero_tol)
    if hasattr(M, "shape"):
        nrows, ncols = M.shape
        M = M.tolist()
    else:
        nrows, ncols = len(M), len(M[0]) if len(M) else 0
    masks = []
    for row in M:
        if len(row) != ncols:
            raise ValueError(f"row of {len(row)} entries in a {ncols}-column matrix")
        mask = 0
        for c in compress(range(ncols), row):  # skips the zeros
            if abs(row[c]) > zero_tol:
                mask |= 1 << c
        masks.append(mask)
    return Pattern.from_masks(nrows, ncols, masks)


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


def _saturates(pattern: Pattern, horizon: int) -> bool:
    """Whether the union at this horizon is the reachability closure (K >= n - 1)."""
    return int(horizon) >= max(pattern.nrows - 1, 0)


def transition_union(pattern: Pattern, horizon: int) -> Pattern:
    """Union pattern of all transition factors up to the given horizon.

    Equals the union of the boolean powers P, P^2, ..., P^(horizon+1): an
    entry (i, j) is present iff state j has a walk of length 1..horizon+1
    to state i.  Structural semantics: generic cancellation is ignored,
    and all memory tail coefficients are treated as nonzero (which cannot
    change the union even when integer orders kill some tails, since every
    factor T_k structurally contains the pure power P^(k+1) and every
    other term's pattern is contained in a shorter power).

    For horizon >= n - 1 the union is read off the SCC condensation
    (``_closure_union``): a shortest walk from j to i, or from i back
    to itself, has at most n steps, so walks of length 1..n already reach
    every pair that any walk reaches.  Shorter horizons take one boolean
    product per step until the union stops growing.
    """
    if not pattern.is_square():
        raise ValueError("transition union needs a square pattern")
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if _saturates(pattern, horizon):
        return _closure_union(condense(pattern))[0]
    return _stepwise_union(pattern, horizon)


def _stepwise_union(pattern: Pattern, horizon: int) -> Pattern:
    # one boolean product per step; exact for every horizon
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


def _closure_union(cond: Condensation) -> tuple[Pattern, Pattern]:
    """The transition union of ``cond.pattern`` for any horizon >= n - 1, and its transpose.

    Entry (i, j) of the union is present iff state j has a walk of length
    >= 1 to state i.  All states of an SCC share one union row: every
    state of the SCCs above it (its ancestors in the quotient DAG), plus
    its own members if it is cyclic (more than one state, or a self-loop).
    Their transposed row is the same with the SCCs below it.  Both are
    built in one pass over the SCCs in topological order and one in
    reverse, ORing the masks of each SCC's predecessor SCCs.
    """
    pattern, scc_of = cond.pattern, cond.scc_of
    n, m = pattern.nrows, len(cond.sccs)
    members = [0] * m
    into = [0] * m  # the states with an edge into the SCC
    for v, cid in enumerate(scc_of):
        members[cid] |= 1 << v
        into[cid] |= pattern.rows[v]
    preds = [{scc_of[v] for v in set_bits(i & ~s, n)} for i, s in zip(into, members)]

    above = [0] * m
    for cid in cond.order:
        mask = into[cid]
        for p in preds[cid]:
            mask |= above[p]  # holds all of p's members: cyclic, or its one state is in into
        above[cid] = mask
    # into & members is every member of a cyclic SCC and empty otherwise;
    # an SCC has received all its successors' masks by the time it is read
    below = [i & s for i, s in zip(into, members)]
    for cid in reversed(cond.order):
        reach = below[cid] | members[cid]
        for p in preds[cid]:
            below[p] |= reach
    union = Pattern.from_masks(n, n, [above[cid] for cid in scc_of])
    return union, Pattern.from_masks(n, n, [below[cid] for cid in scc_of])


def condense(pattern: Pattern) -> Condensation:
    """SCC condensation of the pattern digraph (Tarjan, O(V + E)).

    Edge convention: entry (i, j) is an edge from state j to state i.
    Returns the member partition, the ids of the sink SCCs (no outgoing
    quotient edge) and a topological order of the ids; the quotient DAG
    edges are derived on first read.
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

    # Tarjan on the predecessor lists emits every SCC after the SCCs with
    # an edge into it; the ids ascend with the smallest member instead
    by_min = sorted(range(len(comps)), key=lambda k: min(comps[k]))
    order = [0] * len(comps)
    for cid, k in enumerate(by_min):
        order[k] = cid
    comps = [comps[k] for k in by_min]
    scc_of = [0] * n
    members = []
    # the states with an edge into another SCC: an SCC is a sink iff it
    # holds none of them
    leaving = 0
    for cid, comp in enumerate(comps):
        mask = into = 0
        for v in comp:
            scc_of[v] = cid
            mask |= 1 << v
            into |= pattern.rows[v]
        members.append(mask)
        leaving |= into & ~mask
    sinks = frozenset(cid for cid, mask in enumerate(members) if not mask & leaving)
    return Condensation(
        scc_of=tuple(scc_of),
        sccs=tuple(frozenset(c) for c in comps),
        sink_sccs=sinks,
        order=tuple(order),
        pattern=pattern,
    )


def _state_mask(n: int, sensors: Collection[int]) -> int:
    """The mask of the sensor states, each checked to lie in 0..n - 1."""
    sensor_set = set(int(s) for s in sensors)
    for s in sensor_set:
        if not (0 <= s < n):
            raise ValueError(f"sensor index {s} outside 0..{n - 1}")
    return sum(1 << s for s in sensor_set)


def non_accessible_states(pattern: Pattern, sensors: Collection[int]) -> frozenset:
    """States with no directed path to any sensor-bearing state.

    Computed as the complement of reverse reachability from the sensor
    states; a sensor state is accessible through its own output edge.
    """
    if not pattern.is_square():
        raise ValueError("accessibility needs a square pattern")
    n = pattern.nrows
    seen = frontier = _state_mask(n, sensors)
    while frontier:
        (frontier,) = _bool_product([frontier], pattern.rows)  # row v: v's predecessors
        frontier &= ~seen
        seen |= frontier
    return frozenset(v for v in range(n) if not seen >> v & 1)
