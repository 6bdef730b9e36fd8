"""Spans and counts around the calls into fracplace's modules.

:class:`Tracer` replaces each traced public function, wherever a
``fracplace`` module has bound it by name, with a wrapper that records a
span (name, op index, parent span, start, end) and, for some layers, a
count read off the arguments or the result.  Nothing in fracplace itself
changes; :meth:`Tracer.uninstall` puts the original functions back.

A layer that a later version of fracplace no longer has is skipped: its
metrics read 0, as they do on a workload that never calls it.
"""

from __future__ import annotations

import functools
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict


def _count(fn):
    """Run a count extractor, ignoring results of an unexpected shape."""

    def safe(args, result):
        try:
            return fn(args, result)
        except (AttributeError, TypeError, IndexError):
            return None

    return safe


# (module, attribute path, span name, count name, count extractor)
LAYERS = (
    ("fracplace.cli", "main", "cli.main", None, None),
    ("fracplace.sysfile", "load_system_file", "sysfile.load_system_file", None, None),
    ("fracplace.structure", "transition_union", "structure.transition_union",
     "structure.union_entries", lambda a, r: r.count),
    ("fracplace.structure", "Pattern.transpose", "structure.Pattern.transpose", None, None),
    ("fracplace.structure", "non_accessible_states", "structure.non_accessible_states",
     None, None),
    ("fracplace.structure", "condense", "structure.condense",
     "structure.sccs", lambda a, r: len(r.sccs)),
    ("fracplace.matching", "min_weight_max_matching", "matching.min_weight_max_matching",
     "matching.graph_edges", lambda a, r: len(a[0].edges)),
    ("fracplace.matching", "min_weight_full_bipartite_matching", "matching.assignment_solve",
     "matching.assignment_solves", lambda a, r: 1),
    ("fracplace.matching", "generic_rank", "matching.generic_rank", None, None),
    ("fracplace.placement", "minimal_sensors", "placement.minimal_sensors",
     "placement.sensors", lambda a, r: len(r.sensors)),
    ("fracplace.placement", "verify_observability", "placement.verify_observability",
     None, None),
    ("fracplace.fraccore", "gl_tails", "fraccore.gl_tails", None, None),
    ("fracplace.fraccore", "transition_factors", "fraccore.transition_factors",
     "fraccore.factor_stack_mib", lambda a, r: r.stack.nbytes / 2**20),
    ("fracplace.fraccore", "simulate", "fraccore.simulate", None, None),
)

# per-layer metric -> (span name, "total" or "self") for times, or a count
TIME_METRICS = {
    "cli.main.self_s": ("cli.main", "self"),
    "sysfile.load_system_file.s": ("sysfile.load_system_file", "total"),
    "structure.transition_union.s": ("structure.transition_union", "total"),
    "structure.Pattern.transpose.s": ("structure.Pattern.transpose", "total"),
    "structure.non_accessible_states.s": ("structure.non_accessible_states", "total"),
    "structure.condense.s": ("structure.condense", "total"),
    "matching.min_weight_max_matching.s": ("matching.min_weight_max_matching", "total"),
    "matching.generic_rank.s": ("matching.generic_rank", "total"),
    "placement.minimal_sensors.self_s": ("placement.minimal_sensors", "self"),
    "placement.verify_observability.self_s": ("placement.verify_observability", "self"),
    "fraccore.gl_tails.s": ("fraccore.gl_tails", "total"),
    "fraccore.transition_factors.s": ("fraccore.transition_factors", "total"),
    "fraccore.simulate.s": ("fraccore.simulate", "total"),
}
COUNT_METRICS = {
    "structure.union_entries": "count",
    "structure.sccs": "count",
    "matching.graph_edges": "count",
    "matching.assignment_solves": "count",
    "placement.sensors": "count",
    "fraccore.factor_stack_mib": "MiB",
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = None  # index of the op being timed; None outside timed ops
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name, count_name, count):
        tracer = self
        count = _count(count) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"name": name, "op": tracer.op, "parent": parent, "child_s": 0.0}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                span["start"], span["end"] = start, end
                if parent is not None:
                    tracer.spans[parent]["child_s"] += end - start
            if count is not None and tracer.op is not None:
                value = count(args, result)
                if value is not None:
                    tracer.counts[tracer.op][count_name] += value
            return result

        return traced

    def install(self):
        modules = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "fracplace"}
        for modname, path, name, count_name, count in LAYERS:
            owner = modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            traced = self._wrap(original, name, count_name, count)
            if outer:  # a method: patch the class
                self._patch(owner, attr, original, traced)
                continue
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, traced)

    def _patch(self, owner, key, original, traced):
        setattr(owner, key, traced)
        self._restore.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op means over the timed ops of every per-layer time and count."""
        total = defaultdict(float)
        own = defaultdict(float)
        for span in self.spans:
            if span["op"] is None:
                continue
            dur = span["end"] - span["start"]
            total[span["name"]] += dur
            own[span["name"]] += dur - span["child_s"]
        out = {}
        for metric, (name, kind) in TIME_METRICS.items():
            value = (own if kind == "self" else total)[name]
            out[metric] = {"value": value / n_ops, "unit": "s"}
        for metric, unit in COUNT_METRICS.items():
            value = sum(c.get(metric, 0.0) for c in self.counts.values())
            out[metric] = {"value": value / n_ops, "unit": unit}
        return out

    def dump(self) -> list[dict]:
        return [
            {k: s[k] for k in ("name", "op", "parent", "start", "end")} for s in self.spans
        ]


_IMPORT_LINE = re.compile(r"import time:\s*(\d+) \|\s*(\d+) \|( *)(\S+)")


def import_times(env: dict, repeats: int) -> dict:
    """Cumulative import seconds of fracplace, scipy and numpy, from -X importtime.

    Medians over ``repeats`` fresh interpreters running ``import
    fracplace.cli``.  A package's figure sums its outermost imports, the
    lines whose importer is not part of the same package.
    """
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fracplace.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        rows = [m.groups() for m in map(_IMPORT_LINE.match, proc.stderr.splitlines()) if m]
        # children are printed before their importer, one level deeper
        parents: dict[int, str] = {}
        sums = defaultdict(float)
        for _self_us, cum_us, indent, module in reversed(rows):
            depth = len(indent)
            parents[depth] = module
            parent = parents.get(depth - 2, "")
            top = module.split(".")[0]
            if top in ("fracplace", "scipy", "numpy") and parent.split(".")[0] != top:
                sums[top] += int(cum_us) * 1e-6
        for top in ("fracplace", "scipy", "numpy"):
            samples[top].append(sums[top])
    return {
        f"import.{top}_s": {"value": statistics.median(v), "unit": "s"}
        for top, v in samples.items()
    }
