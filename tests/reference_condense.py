"""The earlier SCC pass of ``condense``, kept as a test oracle.

``tarjan_condense`` is :func:`fracplace.structure.condense` from the time
it ran Tarjan's algorithm on per-state predecessor lists: index, lowlink
and on-stack state, one edge at a time.  The body is unchanged but for
its name and docstring.  Its depth-first search descends into each
state's lowest unvisited predecessor first, so the library's path-based
search builds the same tree and must return the same ``scc_of``,
``sccs``, ``sink_sccs`` and ``order``.
"""

from fracplace.structure import Condensation, Pattern


def tarjan_condense(pattern: Pattern) -> Condensation:
    """SCC condensation of the pattern digraph (Tarjan, O(V + E))."""
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
