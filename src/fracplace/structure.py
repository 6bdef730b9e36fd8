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
import operator
from itertools import compress
from typing import Collection, Iterable, Sequence

from . import _EXPORTS

__all__ = list(_EXPORTS["structure"])


# maps the digits of a binary numeral to the bytes 0 and 1
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
# a mask counts as dense when more than one in this many of its bits is
# set: formatting it as a binary numeral then costs less than walking its
# set bits
_DENSE_WIDTH_PER_BIT = 8
# the default zero threshold: a numeric entry is structural iff its magnitude exceeds it
_ZERO_TOL = 1e-12


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


class _Value:
    """Base of the package's immutable value types.

    A subclass names its compared fields, in order, in ``_fields``.  The
    shared constructor binds them by position or by keyword, and raises
    TypeError on a missing, unknown, repeated or surplus field; a class
    that validates or converts its arguments keeps its own signature and
    ends with ``super().__init__(...)``.  Two values are equal iff they are
    of the same class and their compared fields are; the hash and the
    ``Name(field=...)`` repr cover the same fields.  Assigning or deleting
    an attribute raises AttributeError.
    """

    _fields: tuple

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            try:
                args += tuple(map(kwargs.pop, names[len(args) :]))
            except KeyError as missing:
                raise TypeError(f"{type(self).__qualname__} missing field {missing}") from None
            if kwargs:  # each left is unknown, or a field already given by position
                name = next(iter(kwargs))
                kind = "repeated" if name in names else "unknown"
                raise TypeError(f"{type(self).__qualname__} got {kind} field {name!r}")
        if len(args) != len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} fields, got {len(args)}")
        self.__dict__.update(zip(names, args))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Pattern(_Value):
    """Sparse boolean matrix stored as row bitmasks, 0-based.

    Bit c of ``rows[r]`` is set iff (r, c) is present.  Two patterns are
    equal iff their dimensions and entries are.  Dimensions, indices and
    masks are taken through ``operator.index``: a float raises TypeError
    instead of being truncated.
    """

    _fields = ("nrows", "ncols", "rows")
    nrows: int
    ncols: int
    rows: tuple

    def __init__(self, nrows: int, ncols: int, entries: Iterable = ()):
        nrows = _at_least(nrows, 0, "pattern dimensions must be non-negative")
        ncols = _at_least(ncols, 0, "pattern dimensions must be non-negative")
        rows = [0] * nrows
        for r, c in entries:
            r, c = operator.index(r), operator.index(c)
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(
                    f"entry ({r}, {c}) outside a {nrows} x {ncols} pattern"
                )
            rows[r] |= 1 << c
        super().__init__(nrows, ncols, tuple(rows))

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
        masks = [0] * self.ncols
        for r, cols in enumerate(self.row_columns()):
            bit = 1 << r
            for c in cols:
                masks[c] |= bit
        return Pattern.from_masks(self.ncols, self.nrows, masks)

    @classmethod
    def from_masks(cls, nrows: int, ncols: int, masks: Sequence[int]) -> "Pattern":
        """Pattern whose row r has the columns set in ``masks[r]``."""
        pattern = cls(nrows, ncols)  # checks the dimensions
        rows = tuple(map(operator.index, masks))
        if len(rows) != pattern.nrows:
            raise ValueError(f"need {pattern.nrows} row masks, got {len(rows)}")
        if rows and (min(rows) < 0 or max(rows) >> pattern.ncols):
            raise ValueError(f"row masks must lie in [0, 2**{pattern.ncols})")
        object.__setattr__(pattern, "rows", rows)
        return pattern


class Condensation(_Value):
    """SCC decomposition of a square pattern's digraph.

    SCCs are numbered in ascending order of their smallest member state.
    ``sink_sccs`` holds the ids with no outgoing edge to another SCC;
    every state of the graph can reach at least one of them.  ``order``
    lists the ids in a topological order of the quotient DAG: an SCC comes
    after every SCC with an edge into it.  ``pattern`` is the decomposed
    pattern.  Neither takes part in equality, the hash or the repr.
    """

    _fields = ("scc_of", "sccs", "sink_sccs")
    scc_of: tuple
    sccs: tuple
    sink_sccs: frozenset
    order: tuple
    pattern: Pattern

    def __init__(
        self, scc_of: tuple, sccs: tuple, sink_sccs: frozenset, order: tuple, pattern: Pattern
    ):
        super().__init__(scc_of, sccs, sink_sccs)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "pattern", pattern)

    @property
    def n(self) -> int:
        return len(self.scc_of)


def _at_least(value: int, low: int, message: str) -> int:
    """``value`` taken through ``operator.index``, checked to be >= ``low``.

    A float raises TypeError instead of being truncated; a value below
    ``low`` raises ValueError(message).
    """
    value = operator.index(value)
    if value < low:
        raise ValueError(message)
    return value


def _square(pattern: Pattern, what: str) -> int:
    """The dimension n of an n x n pattern; ValueError naming ``what`` otherwise."""
    if not pattern.is_square():
        raise ValueError(f"{what} needs a square pattern")
    return pattern.nrows


def _check_zero_tol(zero_tol: float) -> None:
    if not (math.isfinite(zero_tol) and zero_tol >= 0):
        raise ValueError("zero_tol must be finite and >= 0")


def pattern_of(M, zero_tol: float = _ZERO_TOL) -> Pattern:
    """Pattern of a numeric matrix: entries with magnitude above zero_tol.

    ``M`` is a 2-D array or a sequence of equally long rows of numbers.
    A NaN entry raises ValueError naming its 0-based row and column.
    """
    _check_zero_tol(zero_tol)
    if hasattr(M, "shape"):
        nrows, ncols = M.shape
        M = M.tolist()
    else:
        nrows, ncols = len(M), len(M[0]) if len(M) else 0
    masks = []
    for r, row in enumerate(M):
        if len(row) != ncols:
            raise ValueError(f"row of {len(row)} entries in a {ncols}-column matrix")
        mask = 0
        for c in compress(range(ncols), row):  # skips the zeros
            if abs(row[c]) > zero_tol:
                mask |= 1 << c
            elif math.isnan(row[c]):  # NaN is truthy but never above the threshold
                raise ValueError(f"matrix entry ({r}, {c}) is NaN")
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


def transition_union(pattern: Pattern, horizon: int) -> Pattern:
    """Union pattern of all transition factors up to the given horizon.

    Equals the union of the boolean powers P, P^2, ..., P^(horizon+1): an
    entry (i, j) is present iff state j has a walk of length 1..horizon+1
    to state i.  Structural semantics: generic cancellation is ignored,
    and all memory tail coefficients are treated as nonzero (which cannot
    change the union even when integer orders kill some tails, since every
    factor T_k structurally contains the pure power P^(k+1) and every
    other term's pattern is contained in a shorter power).

    It is ``transposed_union`` of the transposed pattern, which picks the
    route: the SCC condensation for horizon >= n - 1, one boolean product
    per step below.  A built union is never transposed.
    """
    _square(pattern, "transition union")
    return transposed_union(pattern.transpose(), horizon)


def transposed_union(pattern: Pattern, horizon: int, cond: Condensation | None = None) -> Pattern:
    """The transpose of ``transition_union(pattern, horizon)``, for a square pattern.

    Row j holds the states that state j has a walk of length
    1..horizon+1 to.  For horizon >= n - 1 it is read off the SCC
    condensation (``_closure_union``).  ``cond`` is the pattern's own
    condensation where the caller has one; it is computed here otherwise,
    and only on that route.  Shorter horizons take one boolean product
    per step on the transposed pattern until the union stops growing.
    """
    if _reaches_closure(pattern, horizon):
        return _closure_union(cond if cond is not None else condense(pattern))
    return _stepwise_union(pattern.transpose(), horizon)


def _reaches_closure(pattern: Pattern, horizon: int) -> bool:
    """Whether ``horizon``, checked to be an integer >= 0, is at least n - 1.

    From there on the union is the reachability closure: a shortest walk
    from j to i, or from i back to itself, has at most n steps, so walks
    of length 1..n already reach every pair that any walk reaches.  The
    horizon is taken through ``operator.index``: a float raises TypeError.
    """
    return _at_least(horizon, 0, "horizon must be >= 0") >= pattern.nrows - 1


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


def _closure_union(cond: Condensation) -> Pattern:
    """The transposed transition union of ``cond.pattern`` for any horizon >= n - 1.

    Entry (j, i) is present iff state j has a walk of length >= 1 to
    state i.  All states of an SCC share one row: every state of the SCCs
    below it (its descendants in the quotient DAG), plus its own members
    if it is cyclic (more than one state, or a self-loop).  The rows are
    built in one pass over the SCCs in reverse topological order, ORing
    each SCC's reach into the masks of its predecessor SCCs.
    """
    pattern, scc_of = cond.pattern, cond.scc_of
    n, m = pattern.nrows, len(cond.sccs)
    members = [0] * m
    into = [0] * m  # the states with an edge into the SCC
    for v, cid in enumerate(scc_of):
        members[cid] |= 1 << v
        into[cid] |= pattern.rows[v]
    # into & members is every member of a cyclic SCC and empty otherwise;
    # an SCC has received all its successors' masks by the time it is read
    below = [i & s for i, s in zip(into, members)]
    for cid in reversed(cond.order):
        reach = below[cid] | members[cid]
        for p in {scc_of[v] for v in set_bits(into[cid] & ~members[cid], n)}:
            below[p] |= reach
    return Pattern.from_masks(n, n, [below[cid] for cid in scc_of])


def condense(pattern: Pattern) -> Condensation:
    """SCC condensation of the pattern digraph, by a path-based search on the row masks.

    Edge convention: entry (i, j) is an edge from state j to state i.
    Returns the member partition, the ids of the sink SCCs (no outgoing
    quotient edge) and a topological order of the ids.

    The search (Gabow 2000) walks the reversed digraph: row v holds v's
    predecessors, and the state entered next is the lowest bit of
    ``rows[v] & unvisited``.  The open path is a stack of component
    masks.  A state's edge into the path below its own component merges
    the components up to it into one; a state that leaves the path with
    its parent outside the top component closes that component as an
    SCC.  Each step costs O(n / 64) word operations, O(n^2 / 64) in all.
    """
    n, rows = _square(pattern, "condensation"), pattern.rows
    unvisited = (1 << n) - 1
    live = 0  # the visited states in no closed SCC: the open path's
    comps = []  # closed SCC masks, each after every SCC with an edge into it
    while unvisited:
        root = unvisited & -unvisited
        unvisited ^= root
        live |= root
        states, path = [root.bit_length() - 1], [root]
        while states:
            bit = rows[states[-1]] & unvisited
            if bit:
                bit &= -bit
                unvisited ^= bit
                live |= bit
                v = bit.bit_length() - 1
                path.append(bit)
                # the edges v has on entering are all it has into the open
                # path: a state entered later is closed, or merged into
                # v's component, by the time v is on top again
                while rows[v] & live & ~path[-1]:
                    top = path.pop()
                    path[-1] |= top
                states.append(v)
                continue
            states.pop()
            if not states or not path[-1] >> states[-1] & 1:
                top = path.pop()
                comps.append(top)
                live ^= top

    # the ids ascend with the smallest member, the lowest bit of the mask
    by_min = sorted(range(len(comps)), key=lambda k: comps[k] & -comps[k])
    order = [0] * len(comps)
    for cid, k in enumerate(by_min):
        order[k] = cid
    scc_of = [0] * n
    sccs = []
    # the states with an edge into another SCC: an SCC is a sink iff it
    # holds none of them
    leaving = 0
    for cid, k in enumerate(by_min):
        mask, into = comps[k], 0
        members = set_bits(mask, n)
        for v in members:
            scc_of[v] = cid
            into |= rows[v]
        sccs.append(frozenset(members))
        leaving |= into & ~mask
    sinks = frozenset(cid for cid, k in enumerate(by_min) if not comps[k] & leaving)
    return Condensation(
        scc_of=tuple(scc_of),
        sccs=tuple(sccs),
        sink_sccs=sinks,
        order=tuple(order),
        pattern=pattern,
    )


def _states(n: int, sensors: Collection[int]) -> list[int]:
    """The distinct sensor states, ascending, each checked to lie in 0..n - 1.

    States are taken through ``operator.index``: a float raises TypeError.
    """
    states = sorted(set(map(operator.index, sensors)))
    for s in states:
        if not (0 <= s < n):
            raise ValueError(f"sensor index {s} outside 0..{n - 1}")
    return states


def non_accessible_states(pattern: Pattern, sensors: Collection[int]) -> frozenset:
    """States with no directed path to any sensor-bearing state.

    Computed as the complement of reverse reachability from the sensor
    states; a sensor state is accessible through its own output edge.
    """
    n, rows = _square(pattern, "accessibility"), pattern.rows
    seen = frontier = sum(1 << s for s in _states(n, sensors))
    while frontier:
        reached = 0
        for v in set_bits(frontier, n):
            reached |= rows[v]  # row v: v's predecessors
        frontier = reached & ~seen
        seen |= frontier
    return frozenset(set_bits(((1 << n) - 1) & ~seen, n))
