"""Outside-in tracer: spans and op counts around the public functions of syngcn.

The tracer wraps module attributes with ``setattr`` and restores them on
``remove``; nothing under ``src/`` knows it exists. A call into a wrapped
function opens a span (name, start, end, parent span, run id); a call into a
public ``numerics`` op counts one op against the innermost open span. Spans
stay in memory and are written out once, by ``dump``, at the end of a run.

Callers reach every wrapped function through a module attribute at call time
(``trainer`` calls ``bilstm.bilstm_encode``, ``nm.adam_step``, the evaluator
functions, ...). Functions imported by name into another module
(``build_graph`` into ``trainer`` and ``evaluator``, ``edge_dropout`` into
``gcn``) are wrapped under each of those names as well.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

from syngcn import (bilstm, classifier, conll, embedder, evaluator, gcn,
                    numerics as nm, syngraph, trainer)

# layer -> the (owner, attribute) pairs whose calls open a span of that layer
LAYERS = {
    "embedder": [(embedder, "embed_sentence")],
    "bilstm": [(bilstm, "bilstm_encode")],
    "gcn": [(gcn, "gcn_stack_forward")],
    "syngraph": [(syngraph, "build_graph"), (trainer, "build_graph"),
                 (evaluator, "build_graph"), (syngraph, "edge_dropout"),
                 (gcn, "edge_dropout")],
    "classifier": [(classifier, "role_logits"),
                   (classifier, "predict_arguments")],
    "numerics.loss": [(nm, "cross_entropy_rows")],
    "numerics.backward": [(nm.Tape, "gradients")],
    "numerics.adam": [(nm, "adam_step")],
    "numerics.ckpt_save": [(nm, "save_checkpoint")],
    "numerics.ckpt_load": [(nm, "load_checkpoint")],
    "conll.parse": [(conll, "parse_conll"), (conll, "parse_conll_file")],
    "conll.write": [(conll, "write_conll_file")],
    "evaluator.predict": [(evaluator, "predict_corpus")],
    "evaluator.score": [(evaluator, "score")],
    "trainer": [(trainer, "train")],
}

# the public tensor ops; Tensor's operator methods call these by module lookup
OPS = ("add", "sub", "mul", "matmul", "transpose", "relu", "sigmoid", "tanh",
       "concat", "rows", "segment_sum", "slice_cols", "sum_axis1", "sum_all",
       "softmax_cross_entropy", "cross_entropy_rows")


def _adam_elems(args, kwargs) -> int:
    params = kwargs.get("params", args[0] if args else {})
    return sum(p.data.size for p in params.values() if p.trainable)


def _ckpt_bytes(args, kwargs) -> int:
    return os.path.getsize(kwargs.get("path", args[1]))


# layer -> (counter name, function of the call's arguments, run after the call)
COUNTERS = {"numerics.adam": ("adam_elems", _adam_elems),
            "numerics.ckpt_save": ("ckpt_bytes", _ckpt_bytes)}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` are ``(start, end, parent)`` with ``parent`` an index into the
    same list or -1. Overlapping children are merged, and children are
    clipped to their parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Span and op-count recorder for one benchmark process."""

    def __init__(self):
        self.run_id = 0
        # [name, start, end, parent index, run id, op calls made directly inside]
        self.spans: list[list] = []
        self.counters_by_run: dict[int, collections.Counter] = \
            collections.defaultdict(collections.Counter)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, layer: str, fn):
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            rec = [layer, time.perf_counter(), 0.0, parent, self.run_id, 0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                name, measure = counter
                self.counters_by_run[self.run_id][name] += measure(args, kwargs)
            return result

        return wrapper

    def _op_wrapper(self, fn):
        spans, stack, orphan = self.spans, self._stack, self.counters_by_run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                spans[stack[-1]][5] += 1
            else:
                orphan[self.run_id]["ops_outside_layers"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, run_id: int) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.run_id = run_id
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                self._patch(owner, attr, self._span_wrapper(layer, getattr(owner, attr)))
        for op in OPS:
            self._patch(nm, op, self._op_wrapper(getattr(nm, op)))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------
    def layer_totals(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per run id, per layer: calls, self seconds and op calls.

        Counters that are not spans (``adam_elems``, ``ckpt_bytes``, ops made
        outside every layer) sit under the key ``"counters"``.
        """
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        run_ids = {rec[4] for rec in self.spans} | set(self.counters_by_run)
        runs = {run_id: {layer: {"calls": 0, "s": 0.0, "ops": 0} for layer in LAYERS}
                for run_id in run_ids}
        for run_id in run_ids:
            runs[run_id]["counters"] = dict(self.counters_by_run.get(run_id, {}))
        for rec, self_s in zip(self.spans, selfs):
            t = runs[rec[4]][rec[0]]
            t["calls"] += 1
            t["s"] += self_s
            t["ops"] += rec[5]
        return runs

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, run id, ops."""
        keys = ("name", "start", "end", "parent", "run", "ops")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")
