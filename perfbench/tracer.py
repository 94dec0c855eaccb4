"""Spans and counts around altgen's public functions, recorded from outside.

`Tracer.install()` replaces each wrapped function or method with a wrapper
that records a span (name, start, end, parent span) or bumps a count, in
memory.  Module functions are replaced under every name an altgen module
binds them to, so `from .x import f` imports are traced too.  `layer_metrics`
turns one pass's spans and counts into the per-layer metrics.
"""

import gc
import importlib
import json
import sys
import time
import weakref

import numpy as np

# (module, attribute) of each function recorded as a span
SPAN_FUNCTIONS = [
    ("embeddings", "build_SN"),
    ("embeddings", "el3_line_actions"),
    ("graphs", "schreier_graph"),
    ("spectral", "spectral_gap"),
    ("spectral", "cheeger_sweep"),
    ("spectral", "kazhdan_upper"),
    ("words", "grid_route"),
    ("words", "color_regular_bipartite"),
    ("words", "tosquare_word"),
    ("words", "conjugacy_word47"),
    ("blocks", "block_factor"),
    ("ring", "gem_factor"),
    ("schreier_sims", "group_order"),
    ("walks", "tuple_walk"),
    ("walks", "full_sweep"),
    ("characters", "roichman_violations"),
    ("certify", "derive_paper_constants"),
    ("cli", "cmd_verify"),
]

# small facts kept from the return value of some span functions
NOTES = {
    "embeddings.el3_line_actions": lambda result: len(result[1]),
    "graphs.schreier_graph": lambda graph: operator_bytes(graph),
    "words.conjugacy_word47": lambda word: word is None,
    "blocks.block_factor": lambda result: len(result[0]),
}

# (module, class, method) recorded as a span
SPAN_METHODS = [
    ("gf2", "SideFieldAction", "matrix_to_permutation"),
    ("graphs", "ActionGraph", "matvec"),
    ("graphs", "EdgeGraph", "matvec"),
    ("graphs", "AxisBlockGraph", "matvec"),
    ("graphs", "SparseGraph", "is_connected"),
    ("words", "WordInE", "product"),
]

# (module, class, method) only counted: too frequent for a span each
COUNT_METHODS = [
    ("ring", "EL3Element", "__mul__"),
    ("schreier_sims", "StabilizerChain", "sift"),
]

# cached index tables whose results are tracked until the end of the pass
TABLE_METHODS = ["coord_array", "line_id_array", "line_points"]

MB = 1 << 20


def _span_name(module, name):
    return f"{module}.{name}"


class Tracer:
    def __init__(self):
        self.names = []       # span name per span
        self.starts = []
        self.ends = []
        self.parents = []     # index of the enclosing span, or -1
        self.stack = []
        self.counts = {}
        self.notes = {}       # span name -> NOTES of each return value
        self.tables = {}      # id -> weakref of each cached geometry table
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.starts.append(time.perf_counter())
            tracer.ends.append(None)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.ends[idx] = time.perf_counter()
            if note is not None:
                tracer.notes.setdefault(name, []).append(note(result))
            return result

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _table_tracker(self, fn):
        tables = self.tables

        def tracked(*args, **kwargs):
            result = fn(*args, **kwargs)
            tables[id(result)] = weakref.ref(result)
            return result

        return tracked

    # -- installing ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {name: importlib.import_module(f"altgen.{name}")
                for name in {m for m, *_ in SPAN_FUNCTIONS + SPAN_METHODS
                             + COUNT_METHODS} | {"geometry"}}
        binders = [m for name, m in sys.modules.items()
                   if name == "altgen" or name.startswith("altgen.")]
        for module, attr in SPAN_FUNCTIONS:
            original = getattr(mods[module], attr)
            traced = self._wrap(_span_name(module, attr), original)
            for binder in binders:
                for key, value in list(vars(binder).items()):
                    if value is original:
                        self._set(binder, key, traced)
        for module, cls, attr in SPAN_METHODS:
            owner = getattr(mods[module], cls)
            self._set(owner, attr, self._wrap(_span_name(module, attr),
                                              owner.__dict__[attr]))
        for module, cls, attr in COUNT_METHODS:
            owner = getattr(mods[module], cls)
            self._set(owner, attr, self._counter(_span_name(module, attr),
                                                 owner.__dict__[attr]))
        geometry = mods["geometry"].CubeGeometry
        for attr in TABLE_METHODS:
            self._set(geometry, attr, self._table_tracker(geometry.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ---------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in zip(self.names, self.starts,
                                                       self.ends, self.parents)],
                       "counts": self.counts}, fh)

    def live_table_bytes(self):
        gc.collect()
        alive = (ref() for ref in self.tables.values())
        return sum(arr.nbytes for arr in alive if arr is not None)


def _array_bytes(obj, depth=2):
    """Bytes of the numpy arrays held by obj's attributes and containers."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    else:
        return 0
    return sum(_array_bytes(x, depth - 1) for x in items)


def operator_bytes(graph):
    """Computed bytes of a graph operator's own arrays, not its generating set."""
    return sum(_array_bytes(value) for key, value in vars(graph).items()
               if key not in ("model", "genset", "perms", "elements"))


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass (seconds, counts, computed MB)."""
    names = tracer.names
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    total = {}
    calls = {}
    child_time = [0.0] * len(names)
    for i, name in enumerate(names):
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        if tracer.parents[i] >= 0:
            child_time[tracer.parents[i]] += dur[i]

    def children(parent_name, child_name):
        return sum(1 for i, p in enumerate(tracer.parents)
                   if p >= 0 and names[p] == parent_name and names[i] == child_name)

    eigensolve_s = sum((dur[i] - child_time[i] for i, n in enumerate(names)
                        if n == "spectral.spectral_gap"), 0.0)
    notes = tracer.notes
    metrics = {
        "embeddings.build_SN_s": total.get("embeddings.build_SN", 0.0),
        "embeddings.el3_line_actions_s": total.get("embeddings.el3_line_actions", 0.0),
        "embeddings.el3_line_actions_calls": calls.get("embeddings.el3_line_actions", 0),
        "embeddings.line_variants": sum(notes.get("embeddings.el3_line_actions", [])),
        "gf2.matrix_to_permutation_calls": calls.get("gf2.matrix_to_permutation", 0),
        "gf2.matrix_to_permutation_s": total.get("gf2.matrix_to_permutation", 0.0),
        "graphs.schreier_graph_s": total.get("graphs.schreier_graph", 0.0),
        "graphs.operator_mb": sum(notes.get("graphs.schreier_graph", [])) / MB,
        "graphs.matvec_calls": calls.get("graphs.matvec", 0),
        "graphs.matvec_s": total.get("graphs.matvec", 0.0),
        "graphs.is_connected_s": total.get("graphs.is_connected", 0.0),
        "spectral.spectral_gap_s": total.get("spectral.spectral_gap", 0.0),
        "spectral.eigensolve_s": eigensolve_s,
        "spectral.eigensolve_matvecs": children("spectral.spectral_gap", "graphs.matvec"),
        "spectral.cheeger_sweep_s": total.get("spectral.cheeger_sweep", 0.0),
        "spectral.cheeger_cuts": children("spectral.cheeger_sweep", "graphs.matvec"),
        "spectral.kazhdan_upper_s": total.get("spectral.kazhdan_upper", 0.0),
        "words.grid_route_s": total.get("words.grid_route", 0.0),
        "words.color_regular_bipartite_s": total.get("words.color_regular_bipartite", 0.0),
        "words.color_regular_bipartite_calls": calls.get("words.color_regular_bipartite", 0),
        "words.tosquare_word_s": total.get("words.tosquare_word", 0.0),
        "words.word47_none": sum(notes.get("words.conjugacy_word47", [])),
        "words.conjugacy_word47_s": total.get("words.conjugacy_word47", 0.0),
        "words.word_product_s": total.get("words.product", 0.0),
        "blocks.block_factor_s": total.get("blocks.block_factor", 0.0),
        "blocks.block_factor_calls": calls.get("blocks.block_factor", 0),
        "blocks.factors_total": sum(notes.get("blocks.block_factor", [])),
        "ring.gem_factor_s": total.get("ring.gem_factor", 0.0),
        "ring.gem_factor_calls": calls.get("ring.gem_factor", 0),
        "ring.el3_mul_calls": tracer.counts.get("ring.__mul__", 0),
        "schreier_sims.group_order_s": total.get("schreier_sims.group_order", 0.0),
        "schreier_sims.sift_calls": tracer.counts.get("schreier_sims.sift", 0),
        "walks.tuple_walk_s": total.get("walks.tuple_walk", 0.0),
        "walks.full_sweep_s": total.get("walks.full_sweep", 0.0),
        "characters.roichman_violations_s": total.get("characters.roichman_violations", 0.0),
        "certify.derive_paper_constants_s": total.get("certify.derive_paper_constants", 0.0),
        "cli.verify_s": total.get("cli.cmd_verify", 0.0),
    }
    metrics["geometry.tables_mb"] = tracer.live_table_bytes() / MB
    return metrics

