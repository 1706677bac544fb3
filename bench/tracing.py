"""Per-layer tracing for the benchmark's traced run.

The tracer observes ``tnrank`` from outside the program.  Each traced public
function is rebound, in every ``tnrank.*`` namespace that holds it, to a
wrapper that records a span ``(name, start, end, parent, op)``; rebinding
every namespace matters because ``fit``, ``geometry``, ``verify`` and
``tree_rank`` import most of what they call by name.  Hot methods
(``GaussianRational`` arithmetic, ``NetworkGraph.incident_edges``) are only
counted, since a span per call would cost more than the call itself.

Spans stay in memory until the run ends.  Self time is a span's duration
minus the part of it covered by its child spans.  The harness wraps every
operation in a ``bench.op`` span, so the self time of ``bench.op`` is the
time spent outside every traced function, and the self times of all spans
add up to the traced wall time.

Counts are taken only from operations that completed: an operation stopped
by its time cap did an amount of work that depends on the machine, and its
counts would not repeat from run to run.  Its spans still count towards self
times, because the time was spent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict

# Functions recorded as spans, by module.  Span names are "<module>.<name>".
SPANNED = {
    "elimination": ("exact_rank", "exact_rank_factor", "float_rank", "float_rank_factor"),
    "tensor": ("mlmul", "flatten", "tensors_equal", "exact_tensor"),
    "network": ("contract_network", "environment", "random_state", "universal_embed"),
    "tree_rank": ("ttns_rank", "ttns_decompose", "tree_membership"),
    "fit": ("als_fit", "border_probe"),
    "geometry": ("jacobian_probes",),
    "io": ("tensor_from_json", "state_to_json", "write_report_lines"),
    "gallery": (
        "w_state", "ghz_state", "strassen", "strassen_graph", "decomposable_sym",
        "decomposable_skew", "monomial_tensor", "border_example",
    ),
    "cli": ("main",),
}

# Methods that are only counted: (module, class, {method: counter key}).
# ``__rmul__`` and ``__radd__`` are aliases of ``__mul__`` and ``__add__``;
# ``__rtruediv__`` delegates to ``__truediv__`` and so is counted there.
COUNTED = (
    ("graph", "NetworkGraph", {"incident_edges": "graph.NetworkGraph.incident_edges.calls"}),
    (
        "scalars",
        "GaussianRational",
        {
            "__mul__": "scalars.GaussianRational.mul.calls",
            "__rmul__": "scalars.GaussianRational.mul.calls",
            "__add__": "scalars.GaussianRational.add.calls",
            "__radd__": "scalars.GaussianRational.add.calls",
            "__sub__": "scalars.GaussianRational.sub.calls",
            "__rsub__": "scalars.GaussianRational.sub.calls",
            "__truediv__": "scalars.GaussianRational.truediv.calls",
        },
    ),
)

# Claims of the verify suite whose duration is reported.
CLAIMS = (
    "tree-property-suite",
    "dims-tt-formula-vs-jacobian",
    "dims-tt-alt-index-reading",
    "als-refit-c3",
    "border-probe-c3",
    "c3-strassen-333",
    "universal-embed-strassen222-cycle",
)

# Spans whose ".calls" and ".self_s" are reported.
_REPORTED_SPANS = (
    "elimination.exact_rank",
    "elimination.exact_rank_factor",
    "elimination.float_rank",
    "elimination.float_rank_factor",
    "tensor.mlmul",
    "tensor.flatten",
    "tensor.tensors_equal",
    "tensor.exact_tensor",
    "network.contract_network.exact",
    "network.contract_network.float",
    "network.environment",
    "network.random_state",
    "network.universal_embed",
    "tree_rank.ttns_rank",
    "tree_rank.ttns_decompose",
    "tree_rank.tree_membership",
    "fit.als_fit",
    "fit.border_probe",
    "geometry.jacobian_probes",
    "io.tensor_from_json",
    "io.state_to_json",
    "io.write_report_lines",
)

# Every per-layer metric, in output order, with its unit.
LAYER_METRICS = (
    [(f"{n}.{k}", "count" if k == "calls" else "s") for n in _REPORTED_SPANS for k in ("calls", "self_s")]
    + [(key, "count") for key in sorted({k for _, _, m in COUNTED for k in m.values()})]
    + [
        ("elimination.exact_rank_factor.cells", "count"),
        ("fit.border_probe.reruns", "count"),
        ("fit.sweeps", "count"),
        ("fit.useful_restart_ratio", "ratio"),
        ("geometry.jacobian_probes.svds", "count"),
        ("geometry.jacobian_probes.unique_ratio", "ratio"),
        ("gallery.self_s", "s"),
        ("cli.main.self_s", "s"),
    ]
    + [(f"verify.claim.{c}.s", "s") for c in CLAIMS]
    + [
        ("trace.wall_s", "s"),
        ("trace.untraced_s", "s"),
        ("trace.spans", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

OP_SPAN = "bench.op"
# A restart is useful when its final residual is this close to the best one.
USEFUL_RESTART_TOL = 1e-6


class Tracer:
    """Records spans and counts for the operations of one run."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, op id)
        self.capped_ops: set = set()
        self.counts: defaultdict = defaultdict(int)  # totals over completed ops
        self.probe_pairs: set = set()  # distinct (spec, seed) over completed ops
        self.op = None  # id of the operation being recorded, or None
        self._stack: list = []
        self._op_counts: defaultdict = defaultdict(int)
        self._op_pairs: list = []
        self._restore: list = []

    # -- operations ----------------------------------------------------------

    def run_op(self, op_id, fn):
        """Run ``fn()`` as operation ``op_id`` inside a ``bench.op`` span."""
        self.op = op_id
        self._stack.clear()
        self._op_counts = defaultdict(int)
        self._op_pairs = []
        try:
            return self._spanned(OP_SPAN, fn)()
        finally:
            self.op = None

    def end_op(self, op_id, completed: bool):
        """Keep the counts of a completed operation; drop a capped one's."""
        if not completed:
            self.capped_ops.add(op_id)
            return
        for k, v in self._op_counts.items():
            self.counts[k] += v
        self.probe_pairs.update(self._op_pairs)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (span_name, start, end, parent, tracer.op)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if tracer.op is not None:
                tracer._op_counts[key] += 1
            return fn(*args)

        return wrapper

    def install(self):
        """Rebind the traced functions and methods in every tnrank module."""
        for mod_name in (*SPANNED, *(m for m, _, _ in COUNTED), "verify"):
            importlib.import_module(f"tnrank.{mod_name}")
        verify = sys.modules["tnrank.verify"]
        modules = [m for n, m in sorted(sys.modules.items()) if n == "tnrank" or n.startswith("tnrank.")]
        hooks = {
            "elimination.exact_rank_factor": _count_cells,
            "fit.als_fit": _count_restarts,
            "geometry.jacobian_probes": _count_probes,
        }
        for mod_name, names in SPANNED.items():
            mod = sys.modules[f"tnrank.{mod_name}"]
            for fn_name in names:
                orig = getattr(mod, fn_name)
                span = f"{mod_name}.{fn_name}"
                name = _contract_name if span == "network.contract_network" else span
                self._rebind(modules, orig, self._spanned(name, orig, hooks.get(span)))
        self._rebind(modules, verify.claims, self._claims_wrapper(verify.claims))
        for mod_name, cls_name, methods in COUNTED:
            cls = getattr(sys.modules[f"tnrank.{mod_name}"], cls_name)
            for meth, key in methods.items():
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._counted(key, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._restore):
            setattr(holder, attr, orig)
        self._restore.clear()

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _claims_wrapper(self, claims_fn):
        tracer = self

        @functools.wraps(claims_fn)
        def claims(*args, **kwargs):
            return [
                dataclasses.replace(c, fn=tracer._spanned(f"verify.claim.{c.id}", c.fn))
                for c in claims_fn(*args, **kwargs)
            ]

        return claims


def _contract_name(args):
    return f"network.contract_network.{args[0].mode}"


def _count_cells(tracer, args, result):
    rows, cols = args[0].shape
    tracer._op_counts["elimination.exact_rank_factor.cells"] += rows * cols


def _count_restarts(tracer, args, result):
    finals = [h[-1] for h in result.residual_history]
    best = min(finals)
    c = tracer._op_counts
    c["fit.sweeps"] += sum(len(h) for h in result.residual_history)
    c["fit.restarts"] += len(finals)
    c["fit.useful_restarts"] += sum(1 for r in finals if r - best <= USEFUL_RESTART_TOL)


def _count_probes(tracer, args, result):
    spec, seeds = args[0], args[1]
    tracer._op_counts["geometry.jacobian_probes.svds"] += len(result)
    tracer._op_pairs.extend((spec, int(s)) for s in seeds)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's coverage.

    ``spans`` holds ``(name, start, end, parent, op)`` tuples or ``None`` for a
    span whose recording was cut short; a span whose parent is missing counts
    as a root.  Child intervals are clipped to the parent's interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s is not None and s[3] >= 0 and spans[s[3]] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        if s is None:
            out.append(0.0)
            continue
        start, end = s[1], s[2]
        kids = [(max(a, start), min(b, end)) for a, b in children.get(idx, ()) if b > start and a < end]
        out.append((end - start) - covered(kids))
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of a traced run, except the overhead ratio."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    reruns = 0
    for s, st in zip(spans, selfs):
        if s is None:
            continue
        self_by_name[s[0]] += st
        if s[4] in tracer.capped_ops:
            continue
        calls_by_name[s[0]] += 1
        if s[0] == "fit.als_fit" and s[3] >= 0 and spans[s[3]] is not None and spans[s[3]][0] == "fit.border_probe":
            reruns += 1
    counts = tracer.counts
    wall = sum(s[2] - s[1] for s in spans if s is not None and s[0] == OP_SPAN)
    out = {}
    for name in _REPORTED_SPANS:
        out[f"{name}.calls"] = calls_by_name[name]
        out[f"{name}.self_s"] = self_by_name[name]
    for _, _, methods in COUNTED:
        for key in methods.values():
            out[key] = counts[key]
    probes = counts["geometry.jacobian_probes.svds"]
    out.update(
        {
            "elimination.exact_rank_factor.cells": counts["elimination.exact_rank_factor.cells"],
            "fit.border_probe.reruns": reruns,
            "fit.sweeps": counts["fit.sweeps"],
            "fit.useful_restart_ratio": _ratio(counts["fit.useful_restarts"], counts["fit.restarts"]),
            "geometry.jacobian_probes.svds": probes,
            "geometry.jacobian_probes.unique_ratio": _ratio(len(tracer.probe_pairs), probes),
            "gallery.self_s": sum(v for k, v in self_by_name.items() if k.startswith("gallery.")),
            "cli.main.self_s": self_by_name["cli.main"],
        }
    )
    for c in CLAIMS:
        out[f"verify.claim.{c}.s"] = sum(
            s[2] - s[1] for s in spans if s is not None and s[0] == f"verify.claim.{c}"
        )
    out["trace.wall_s"] = wall
    out["trace.untraced_s"] = self_by_name[OP_SPAN]
    out["trace.spans"] = sum(1 for s in spans if s is not None and s[0] != OP_SPAN)
    out["trace.self_sum_s"] = sum(self_by_name.values())
    return out


def _ratio(num, den) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def write_spans(spans, path) -> None:
    """Write spans as tab-separated lines: op, index, parent, name, start, end."""
    import gzip

    with gzip.open(path, "wt") as fh:
        fh.write("op\tindex\tparent\tname\tstart\tend\n")
        for idx, s in enumerate(spans):
            if s is not None:
                name, start, end, parent, op = s
                fh.write(f"{op}\t{idx}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
