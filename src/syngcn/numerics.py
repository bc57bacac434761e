"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 for gradient checking).
Ops executed while a ``Tape`` is active record themselves on it in creation
order, which is already a topological order; ``Tape.gradients`` replays the
records once, in reverse, so gradient accumulation order is deterministic.
Ops executed with no active tape are plain forward computations.

A model layer is one fused op with a hand-written backward: ``embed``,
``bilstm_layer``, ``graph_conv`` and ``role_logits``; the generic ops compose
the per-op references its tests compare against.

Every op verifies its output is finite; NaN/Inf raises ``NumericsError``
rather than propagating silently. The fused ops also check the values that
the clamped logistic or a ReLU would make finite: ``bilstm_layer`` its
pre-activations (as ``lstm``), ``graph_conv`` its gate logits and pre-ReLU
sums, and ``role_logits`` its pre-ReLU ``pair @ transform``.

A model keeps its trainable tensors in a ``ParamStore``, allocated from the
``(name, shape)`` pairs its modules declare, as views into one flat array.
Training adds a matching flat gradient buffer (``enable_grad``), the one
place gradients are collected: each backward pass adds a leaf's gradients
into its view in place (the first since the last collection is written,
products straight in with ``matmul(out=)``), and ``ParamStore.gradients``
collects the sum, zero-filling the views no pass reached. The store is the
one registry of a model's trainable tensors and the one thing ``adam_step``
updates. The store also holds Adam's state: the step count and the moments
``m`` and ``v``, two more flat arrays allocated at the first step, which
``adam_step`` updates with the parameters in one blocked pass. A training
process thus holds four copies of the parameters; prediction holds one.
"""

from __future__ import annotations

import collections
import collections.abc
import contextlib
import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (ConfigError, ContractError, FormatError, NumericsError,
                     ShapeError)

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = "SYNGCN1"


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    ``trainable`` leaves collect gradients in ``grad`` during
    ``Tape.gradients``; a leaf of a store with gradients enabled collects
    them in its view of the store's gradient buffer (``_grad_slot``).
    Non-leaf tensors also use ``grad`` transiently while a backward pass
    runs.
    """

    __slots__ = ("data", "grad", "name", "trainable", "_needs_grad",
                 "_grad_slot")

    def __init__(self, data, dtype=None, name: str | None = None,
                 trainable: bool = False):
        if dtype is None:
            # np.generic: an op on 0-d arrays returns a numpy scalar
            if (isinstance(data, (np.ndarray, np.generic))
                    and data.dtype in (np.float32, np.float64)):
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.name = name
        self.trainable = trainable
        self._needs_grad = trainable
        self._grad_slot: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{tag})"

    # operator sugar; the named functions below do the real work
    def __add__(self, other):
        return add(self, _lift(other, self.dtype))

    def __sub__(self, other):
        return sub(self, _lift(other, self.dtype))

    def __mul__(self, other):
        return mul(self, _lift(other, self.dtype))

    def __matmul__(self, other):
        return matmul(self, other)


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE: "Tape | None" = None

# Hook for grad_check: when set to a list, relu() and the fused ops that end
# in a ReLU append a copy of each ReLU input they make, letting the checker
# detect kink crossings between the two perturbed evaluations.
_RELU_PROBE: list | None = None


class Tape:
    """Ordered record of (output, backward rule) pairs, one per recorded op.

    One tape per backward pass; construction and backward are
    single-threaded. ``gradients`` may run once.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self._spent = False

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def _record(self, out: Tensor, backward: Callable[[np.ndarray], None]
                ) -> None:
        self._nodes.append((out, backward))

    def gradients(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and run every recorded rule once, last-first,
        adding each reached leaf's gradient to its ``grad`` (for a store leaf,
        its view of the store's gradient buffer)."""
        if self._spent:
            raise ContractError("backward already ran on this tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        for out, rule in reversed(self._nodes):
            if out.grad is not None:
                rule(out.grad)


# ---------------------------------------------------------------------------
# op machinery
# ---------------------------------------------------------------------------

def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by {op}")


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], op: str,
          backward: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(out_data, op)
    out = Tensor(out_data)
    # on the tape when one is active and some input needs a gradient
    if _ACTIVE_TAPE is not None and any(t._needs_grad for t in inputs):
        out._needs_grad = True
        _ACTIVE_TAPE._record(out, backward)
    return out


def _first_grad_view(t: Tensor) -> np.ndarray | None:
    """For a store leaf with no gradient yet: its gradient view, now also its
    ``grad``, for the caller to write the first gradient into; else None."""
    if t._grad_slot is None or t.grad is not None:
        return None
    t.grad = t._grad_slot
    return t.grad


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t._needs_grad:
        return
    view = _first_grad_view(t)
    if view is not None:
        np.copyto(view, g)
    elif t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _accumulate_product(t: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """``_accumulate(t, a @ b)``, with a store leaf's first gradient computed
    straight into its view."""
    if not t._needs_grad:
        return
    view = _first_grad_view(t)
    if view is not None:
        np.matmul(a, b, out=view)
    else:
        _accumulate(t, a @ b)


def _accumulate_rows(t: Tensor, index: np.ndarray, g: np.ndarray) -> None:
    """``_accumulate(t, buf)`` for ``buf``: zeros shaped like ``t`` with the
    rows of ``g`` added into rows ``index`` in order; a store leaf's first
    gradient is summed straight into its view."""
    if not t._needs_grad:
        return
    view = _first_grad_view(t)
    if view is not None:
        view.fill(0)
        np.add.at(view, index, g)
        return
    buf = np.zeros_like(t.data)
    np.add.at(buf, index, g)
    _accumulate(t, buf)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _same_dtype(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.data.dtype.name} vs {b.data.dtype.name}")


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b, "add")
    out = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out, (a, b), "add", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b, "sub")
    out = a.data - b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out, (a, b), "sub", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b, "mul")
    out = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), "mul", backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype(a, b, "matmul")
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def backward(g):
        _accumulate_product(a, g, b.data.T)
        _accumulate_product(b, a.data.T, g)

    return _make(out, (a, b), "matmul", backward)


def transpose(a: Tensor) -> Tensor:
    out = a.data.T.copy()

    def backward(g):
        _accumulate(a, g.T)

    return _make(out, (a,), "transpose", backward)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); the subgradient at exactly 0 is 0."""
    if _RELU_PROBE is not None:
        _RELU_PROBE.append(x.data.copy())
    out = np.maximum(x.data, 0)

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return _make(out, (x,), "relu", backward)


def _logistic_clamp(dtype) -> tuple:
    """The lowest and highest value ``_logistic`` returns in ``dtype``."""
    info = np.finfo(dtype)
    return info.tiny, 1.0 - info.epsneg


_LOGISTIC_CLAMP = {np.dtype(t): _logistic_clamp(t)
                   for t in (np.float32, np.float64)}


def _logistic(d: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function, clamped into the open interval (0,1).

    With e = exp(-|d|), it is 1/(1+e) for d >= 0 and e/(1+e) otherwise, so
    no exponent is positive.
    """
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(d >= 0, 1.0, e)
    np.add(e, 1.0, out=e)
    np.divide(out, e, out=out)
    lo, hi = _LOGISTIC_CLAMP.get(d.dtype) or _logistic_clamp(d.dtype)
    np.maximum(out, lo, out=out)
    np.minimum(out, hi, out=out)
    return out


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise ``_logistic``."""
    out = _logistic(x.data)

    def backward(g):
        _accumulate(x, g * out * (1.0 - out))

    return _make(out, (x,), "sigmoid", backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(g):
        _accumulate(x, g * (1.0 - out * out))

    return _make(out, (x,), "tanh", backward)


def bilstm_layer(x: Tensor, fw: tuple, bw: tuple, lengths=None) -> Tensor:
    """Both LSTM directions of a layer over B sequences as one op: [N x 2d]
    forward (columns :d) and backward (d:) states in the row order of ``x``.

    ``x`` [N x in] holds the sequences as consecutive row blocks of
    ``lengths`` rows (default: one of all N rows); the forward direction
    runs each from its first row, the backward from its last, both from
    zero states. Each direction's ``(w, u, b)``, [in x 4d], [d x 4d] and
    [1 x 4d], holds the i, f, o, g gates in column blocks: z = x_t@w + b +
    h_prev@u, i,f,o = logistic, g = tanh, c = f*c_prev + i*g, h = o*tanh(c).
    Rows are packed time-major, longest sequence first, so the sequences
    running at step t are a prefix of its rows in both directions: a step is
    one [active x d] @ [d x 4d] product per direction, one ufunc pass each.
    """
    dirs, us = (fw, bw), (fw[1].data, bw[1].data)
    for t in (*fw, *bw):
        _same_dtype(x, t, "lstm")
    n, d = x.data.shape[0], us[0].shape[-1] // 4
    want = ((x.data.shape[-1], 4 * d), (d, 4 * d), (1, 4 * d))
    shapes = [tuple(t.data.shape for t in p) for p in dirs]
    if x.data.ndim != 2 or shapes != [want, want]:
        raise ShapeError(f"lstm: incompatible shapes x {x.data.shape}, (w, u, b) {shapes}")
    lens = np.array([n] if lengths is None else lengths, dtype=np.intp)
    if lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != n:
        raise ShapeError(f"lstm: sequence lengths {lens.tolist()} for {n} rows")
    by_len = np.argsort(-lens, kind="stable")
    sorted_lens = lens[by_len]
    active = (sorted_lens[:, None] > np.arange(sorted_lens[0])).sum(axis=0)
    starts = np.cumsum(active) - active
    # packed row j: step[j] steps into sequence seq[j]; order[k, j]: its x row
    step = np.repeat(np.arange(active.size), active)
    seq = np.arange(n) - starts[step]
    first = (np.cumsum(lens) - lens)[by_len][seq]
    order = np.stack([first + step, first + sorted_lens[seq] - 1 - step])
    steps = [(slice(lo, lo + a), a) for lo, a in
             zip(starts.tolist(), active.tolist())]

    z = np.stack([(x.data @ w.data + b.data)[rows]   # pre-activations
                  for (w, _, b), rows in zip(dirs, order)])  # [2 x N x 4d]
    gates = np.empty_like(z)               # i, f, o, g after activation
    h, c, tanh_c = np.empty((3, 2, n, d), z.dtype)
    h_t = c_t = np.zeros((2, active[0], d), z.dtype)
    for s, a in steps:
        for k, u in enumerate(us):
            z[k, s] += h_t[k, :a] @ u
        gates[:, s, :3 * d] = _logistic(z[:, s, :3 * d])
        i, f, o, g = (gates[:, s, k * d:(k + 1) * d] for k in range(4))
        np.tanh(z[:, s, 3 * d:], out=g)
        c_t = np.add(f * c_t[:, :a], i * g, out=c[:, s])
        h_t = np.multiply(o, np.tanh(c_t, out=tanh_c[:, s]), out=h[:, s])
    # checked here, since the clamped logistic makes an infinite z finite
    _check_finite(z, "lstm")
    out = np.empty((n, 2 * d), z.dtype)    # direction k in columns k*d:
    out.reshape(n, 2, d)[order, [[0], [1]]] = h

    def backward(dout):
        # the cells each step started from: a step's rows continue the
        # previous step's first rows, and the first step's start at zero
        prev = np.arange(active[0], n) - active[step[active[0]:] - 1]
        c_prev = np.zeros_like(c)
        c_prev[:, active[0]:] = c[:, prev]
        # a gate's dz is dc (dh for o) times factors known before the loop,
        # multiplied in the order of the mul, sigmoid and tanh rules so that
        # it rounds the same way; g has no fourth factor
        i, f, o, g = gates.reshape(2, n, 4, d).transpose(2, 0, 1, 3)
        second = np.stack([g, c_prev, tanh_c, i], axis=2)
        third = np.stack([i, f, o, 1.0 - g * g], axis=2)
        fourth = 1.0 - third[:, :, :3]
        dtanh_c = 1.0 - tanh_c * tanh_c
        dout = dout.reshape(n, 2, d)[order, [[0], [1]]]
        dz = np.empty_like(gates)
        dz4 = dz.reshape(second.shape)
        # carries from the step that came after; a sequence's rows beyond
        # that step's prefix end there and start from zero
        dh_next, dc_next = np.zeros((2, 2, active[0], d), h.dtype)
        for s, a in reversed(steps):
            dh = dout[:, s] + dh_next[:, :a]
            dc = dc_next[:, :a] + dh * o[:, s] * dtanh_c[:, s]
            np.multiply(dc[:, :, None], second[:, s], out=dz4[:, s])
            np.multiply(dh, tanh_c[:, s], out=dz4[:, s, 2])
            dz4[:, s] *= third[:, s]
            dz4[:, s, :3] *= fourth[:, s]
            for k, u in enumerate(us):
                np.matmul(dz[k, s], u.T, out=dh_next[k, :a])
            np.multiply(dc, f[:, s], out=dc_next[:, :a])
        # backward direction first, as when each direction was its own tape
        # node; rows back in the order of x, so products sum rows in order
        for k in (1, 0):
            (w, u, b), rows = dirs[k], order[k]
            dz_rows, h_prev_rows = np.empty_like(dz[k]), np.zeros_like(h[k])
            dz_rows[rows], h_prev_rows[rows[active[0]:]] = dz[k], h[k, prev]
            _accumulate_product(x, dz_rows, w.data.T)
            _accumulate_product(w, x.data.T, dz_rows)
            _accumulate_product(u, h_prev_rows.T, dz_rows)
            _accumulate(b, dz_rows.sum(axis=0, keepdims=True))

    return _make(out, (x, *fw, *bw), "lstm", backward)


def graph_conv(h: Tensor, weights: Sequence[Tensor], label_bias: Tensor,
               gate_weights: Sequence[Tensor] | None,
               gate_label_bias: Tensor | None, graph) -> Tensor:
    """One gated graph convolution over all three edge directions as one op.

    For each edge (u -> v) of direction d and label l, the message
    ``h[u] @ weights[d] + label_bias[l]`` is scaled by the gate
    ``logistic(h[u] . gate_weights[d] + gate_label_bias[l])`` (no gate if
    ``gate_weights`` is None), and each node sums its in-messages:
    ``out = ReLU((S_along + S_opposite) + S_self)``. ``graph`` is the
    n-node ``syngraph.SyntacticGraph``, read only through its flat arrays;
    ``weights`` [k x m] and ``gate_weights`` [1 x k] hold one tensor per
    direction. ``h`` is [n x k], ``label_bias`` [labels x m] and
    ``gate_label_bias`` [labels x 1], with n = ``graph.n`` and labels =
    ``graph.num_labels``: other shapes raise ``ShapeError``, other label
    counts ``ContractError``, as the edge arrays index those rows.

    Each S_d sums its messages in edge order, as ``segment_sum`` does, and
    the backward groups every product as the per-op rules of ``matmul``,
    ``rows``, ``mul``, ``sum_axis1``, ``sigmoid``, ``add`` and ``relu`` do,
    adding ``h``'s gradient terms in their tape order (self, opposite,
    along; gate path before product), so the result rounds as the per-op
    layer did. Checked for non-finite values: the gate logits, before the
    clamped logistic turns an infinite one finite, and the pre-ReLU sum,
    which ``_RELU_PROBE`` sees as ``relu`` shows its input. A direction
    with no edges, possible after edge dropout, gets zero gradients: its
    products run on zero rows, and a graph with no edges at all comes out
    as zeros.
    """
    gated = gate_weights is not None
    params = list(weights) + [label_bias]
    if gated:
        params += list(gate_weights) + [gate_label_bias]
    for t in params:
        _same_dtype(h, t, "graph_conv")
    k, m = h.data.shape[-1], weights[0].data.shape[-1]
    if (h.data.ndim != 2 or any(w.data.shape != (k, m) for w in weights)
            or label_bias.data.shape[1:] != (m,)
            or (gated and any(g.data.shape != (1, k) for g in gate_weights))):
        raise ShapeError(f"graph_conv: incompatible shapes h {h.data.shape}, "
                         f"weights {weights[0].data.shape}, label bias "
                         f"{label_bias.data.shape}")
    n, bounds = h.data.shape[0], graph.bounds
    if n != graph.n:
        raise ShapeError(f"graph_conv: {n} state rows for a {graph.n}-node "
                         f"graph")
    for table in [label_bias, gate_label_bias] if gated else [label_bias]:
        if table.data.shape[0] != graph.num_labels:
            raise ContractError(f"graph_conv: a {table.data.shape[0]}-row "
                                f"label table for a graph with "
                                f"{graph.num_labels} labels")
    blocks = [slice(bounds[d], bounds[d + 1]) for d in range(3)]
    hd = h.data
    # the three directions' h @ W_d, stacked into [3n x m]
    transformed = np.empty((3 * n, m), hd.dtype)
    for d, rows_d in enumerate(transformed.reshape(3, n, m)):
        np.matmul(hd, weights[d].data, out=rows_d)
    messages = transformed[graph.gather]
    np.add(messages, label_bias.data[graph.labels], out=messages)
    if gated:
        sources = hd[graph.src]
        weighted = np.empty_like(sources)
        for d, blk in enumerate(blocks):
            np.multiply(sources[blk], gate_weights[d].data, out=weighted[blk])
        logits = weighted.sum(axis=1, keepdims=True)
        np.add(logits, gate_label_bias.data[graph.labels], out=logits)
        # checked here, since the clamped logistic makes an infinite one finite
        _check_finite(logits, "graph_conv")
        gates = _logistic(logits)
        scaled = messages * gates
    else:
        scaled = messages
    per_direction = np.zeros((3 * n, m), hd.dtype)
    np.add.at(per_direction, graph.scatter, scaled)
    pre = per_direction[:n] + per_direction[n:2 * n]
    pre += per_direction[2 * n:]
    _check_finite(pre, "graph_conv")
    if _RELU_PROBE is not None:
        _RELU_PROBE.append(pre.copy())
    out = np.maximum(pre, 0)

    def backward(g):
        dscaled = (g * (pre > 0))[graph.dst]
        if gated:
            dmessages = dscaled * gates
            dlogits = _unbroadcast(dscaled * messages, gates.shape)
            dlogits = dlogits * gates * (1.0 - gates)
            _accumulate_rows(gate_label_bias, graph.labels, dlogits)
            dsources = np.empty_like(sources)
            for d, blk in enumerate(blocks):
                np.multiply(dlogits[blk], gate_weights[d].data,
                            out=dsources[blk])
                _accumulate(gate_weights[d], _unbroadcast(
                    dlogits[blk] * sources[blk], gate_weights[d].data.shape))
            dgate_h = np.zeros((3 * n, k), hd.dtype)
            np.add.at(dgate_h, graph.gather, dsources)
        else:
            dmessages = dscaled
        _accumulate_rows(label_bias, graph.labels, dmessages)
        dtransformed = np.zeros((3 * n, m), hd.dtype)
        np.add.at(dtransformed, graph.gather, dmessages)
        for d in reversed(range(3)):
            if gated:
                _accumulate(h, dgate_h.reshape(3, n, k)[d])
            dtransformed_d = dtransformed.reshape(3, n, m)[d]
            _accumulate_product(h, dtransformed_d, weights[d].data.T)
            _accumulate_product(weights[d], hd.T, dtransformed_d)

    return _make(out, (h, *params), "graph_conv", backward)


def embed(gathers: Sequence[tuple[Tensor, np.ndarray]], lemma: Tensor,
          lemma_id: int, predicate_row: int) -> Tensor:
    """One instance's input rows as one op: [n x width], the rows
    ``table[ids]`` of each ``(table, ids)`` pair side by side, then
    ``lemma[lemma_id]`` on row ``predicate_row`` and zeros on the others.

    The lemma columns equal the one-hot product ``onehot @ lemma[lemma_id]``
    (a -0.0 comes out +0.0), and the backward runs its transpose ``onehot.T
    @ g`` on a contiguous copy, as the per-op ``concat`` rule passed it on,
    then adds each table's rows last-first. A frozen table gets no gradient.
    """
    tables = [t for t, _ in gathers] + [lemma]
    for t in tables[1:]:
        _same_dtype(tables[0], t, "embed")
    bounds = np.cumsum([0] + [t.data.shape[1] for t in tables]).tolist()
    blocks = [(t, np.asarray(i, dtype=np.intp), lo, hi)
              for (t, i), lo, hi in zip(gathers, bounds, bounds[1:])]
    n = blocks[0][1].shape[0]
    out = np.zeros((n, bounds[-1]), lemma.data.dtype)
    for t, i, lo, hi in blocks:
        out[:, lo:hi] = t.data[i]
    out[predicate_row, bounds[-2]:] = lemma.data[lemma_id] + 0.0
    onehot = np.zeros((n, 1), out.dtype)
    onehot[predicate_row, 0] = 1.0

    def backward(g):
        _accumulate_rows(lemma, np.array([lemma_id]), onehot.T @
                         np.ascontiguousarray(g[:, bounds[-2]:]))
        for t, i, lo, hi in reversed(blocks):
            _accumulate_rows(t, i, g[:, lo:hi])

    return _make(out, tuple(tables), "embed", backward)


def role_logits(encoded: Tensor, predicate_row: int, lemma: Tensor,
                lemma_id: int, roles: Tensor, transform: Tensor) -> Tensor:
    """The role head of one instance as one op: [n x R] logits
    ``(encoded ++ tiled encoded[p]) @ ReLU((tiled lemma[l] ++ roles) @
    transform).T`` for p = ``predicate_row`` and l = ``lemma_id``, with
    ``encoded`` [n x m], ``roles`` [R x d_r] and ``transform``
    [(d_l + d_r) x 2m].

    The tilings are products ``ones @ row``, and the backward runs the
    products of the per-op rules (``rows``, ``matmul``, ``concat``,
    ``relu``, ``transpose``) on arrays of the same layout, so it rounds as
    the per-op head did. The pre-ReLU ``pair @ transform`` is checked for
    non-finite values, which ReLU could hide, and ``_RELU_PROBE`` sees it.
    """
    for t in (lemma, roles, transform):
        _same_dtype(encoded, t, "role_logits")
    e = encoded.data
    (n, m), (r, d_r), d_l = e.shape, roles.data.shape, lemma.data.shape[-1]
    if transform.data.shape != (d_l + d_r, 2 * m):
        raise ShapeError(f"role_logits: transform {transform.data.shape} for "
                         f"encoded {e.shape}, lemma {lemma.data.shape} and "
                         f"roles {roles.data.shape}")
    ones_n, ones_r = np.ones((n, 1), e.dtype), np.ones((r, 1), e.dtype)
    p_idx, l_idx = np.array([predicate_row]), np.array([lemma_id])
    paired = np.concatenate([e, ones_n @ e[p_idx]], axis=1)           # [n x 2m]
    pair = np.concatenate([ones_r @ lemma.data[l_idx], roles.data], axis=1)
    pre = pair @ transform.data                                        # [R x 2m]
    _check_finite(pre, "role_logits")
    if _RELU_PROBE is not None:
        _RELU_PROBE.append(pre.copy())
    weights_t = np.maximum(pre, 0).T.copy()                           # [2m x R]
    out = paired @ weights_t

    def backward(g):
        if lemma._needs_grad or roles._needs_grad or transform._needs_grad:
            dpre = (paired.T @ g).T * (pre > 0)
            _accumulate_product(transform, pair.T, dpre)
            dpair = dpre @ transform.data.T
            _accumulate(roles, dpair[:, d_l:])
            _accumulate_rows(lemma, l_idx, ones_r.T @ np.ascontiguousarray(
                dpair[:, :d_l]))
        if encoded._needs_grad:
            dpaired = g @ weights_t.T
            _accumulate(encoded, dpaired[:, :m])
            _accumulate_rows(encoded, p_idx, ones_n.T @ np.ascontiguousarray(
                dpaired[:, m:]))

    return _make(out, (encoded, lemma, roles, transform), "role_logits",
                 backward)


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    if not parts:
        raise ShapeError("concat of zero tensors")
    for p in parts[1:]:
        _same_dtype(parts[0], p, "concat")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(sl)])

    return _make(out, tuple(parts), "concat", backward)


def rows(a: Tensor, index) -> Tensor:
    """Gather rows ``a[index]``; backward scatter-adds (duplicates allowed)."""
    idx = np.asarray(index, dtype=np.intp)
    out = a.data[idx]

    def backward(g):
        _accumulate_rows(a, idx, g)

    return _make(out, (a,), "rows", backward)


def segment_sum(a: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets given by ``segment_ids``.

    Rows with the same id are added in row order, so the reduction order is
    fixed by the input ordering.
    """
    seg = np.asarray(segment_ids, dtype=np.intp)
    if seg.shape[0] != a.data.shape[0]:
        raise ShapeError(
            f"segment_sum: {seg.shape[0]} ids for {a.data.shape[0]} rows")
    if seg.size and (seg.min() < 0 or seg.max() >= num_segments):
        raise ContractError("segment_sum: segment id out of range")
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=a.data.dtype)
    np.add.at(out, seg, a.data)

    def backward(g):
        _accumulate(a, g[seg])

    return _make(out, (a,), "segment_sum", backward)


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    out = a.data[:, lo:hi].copy()

    def backward(g):
        buf = np.zeros_like(a.data)
        buf[:, lo:hi] = g
        _accumulate(a, buf)

    return _make(out, (a,), "slice_cols", backward)


def sum_axis1(a: Tensor, keepdims: bool = True) -> Tensor:
    out = a.data.sum(axis=1, keepdims=keepdims)

    def backward(g):
        gg = g if keepdims else g[:, None]
        _accumulate(a, np.broadcast_to(gg, a.data.shape))

    return _make(out, (a,), "sum_axis1", backward)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(out, (a,), "sum_all", backward)


def softmax_cross_entropy(logits: Tensor, gold: int) -> Tensor:
    """-log softmax(logits)[gold] for a single score vector.

    Computed with max-subtraction; the gradient is softmax - onehot(gold).
    """
    vec = logits.data.reshape(-1)
    n = vec.shape[0]
    if not 0 <= gold < n:
        raise IndexError(f"gold index {gold} out of range for {n} classes")
    m = vec.max()
    shifted = vec - m
    logsumexp = np.log(np.exp(shifted).sum())
    out = np.asarray(logsumexp - shifted[gold], dtype=vec.dtype)
    probs = np.exp(shifted - logsumexp)

    def backward(g):
        d = probs.copy()
        d[gold] -= 1.0
        _accumulate(logits, (g * d).reshape(logits.data.shape))

    return _make(out, (logits,), "softmax_cross_entropy", backward)


def cross_entropy_rows(logits: Tensor, gold_ids) -> Tensor:
    """Sum over rows i of -log softmax(logits[i])[gold_ids[i]].

    Row-vectorized version of ``softmax_cross_entropy`` used for per-instance
    losses; same math, one op.
    """
    ids = np.asarray(gold_ids, dtype=np.intp)
    n, k = logits.data.shape
    if ids.shape != (n,):
        raise ShapeError(f"cross_entropy_rows: {ids.shape} gold ids for {n} rows")
    if ids.size and (ids.min() < 0 or ids.max() >= k):
        raise IndexError("gold id out of range")
    m = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - m
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    out = np.asarray((logsumexp - shifted[np.arange(n), ids]).sum(),
                     dtype=logits.data.dtype)
    probs = np.exp(shifted - logsumexp[:, None])

    def backward(g):
        d = probs.copy()
        d[np.arange(n), ids] -= 1.0
        _accumulate(logits, g * d)

    return _make(out, (logits,), "cross_entropy_rows", backward)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Plain-numpy stable softmax over the last axis (inference paths)."""
    logits = np.asarray(logits)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# flat parameter store
# ---------------------------------------------------------------------------

# The most trainable parameters a store holds: 1 GiB of float32 weights, and
# 4 GiB while training (weights, gradients and Adam's m and v).
MAX_PARAMETERS = 1 << 28

# The most tensors a store holds, far above any model's few dozen: a deep
# stack of narrow layers lists tens of millions before MAX_PARAMETERS.
MAX_TENSORS = 1 << 16


class FlatArrays(collections.abc.Mapping):
    """One contiguous array, ``flat``, read by name as views laid out by a
    ``ParamStore``."""

    def __init__(self, flat: np.ndarray,
                 layout: Mapping[str, tuple[int, tuple[int, ...]]]):
        self.flat = flat
        self.layout = layout
        self._views = {name: flat[lo:lo + math.prod(shape)].reshape(shape)
                       for name, (lo, shape) in layout.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


# (name, shape) pairs in store order, which module layouts yield lazily
Layout = Iterable[tuple[str, tuple[int, ...]]]


class ParamStore(collections.abc.Mapping):
    """Trainable tensors whose ``data`` are views into one flat array.

    ``layout`` is read once, before anything is allocated: the first tensor
    past ``MAX_PARAMETERS`` or ``MAX_TENSORS`` stops it with a
    ``ConfigError``, a name listed twice with a ``ContractError``. Every
    tensor exists from the start, zeroed, for an initializer or a checkpoint
    read to fill in place. ``self.layout`` maps each name to its (offset,
    shape). ``enable_grad`` allocates the gradient buffer, for training;
    ``adam_step`` allocates Adam's moments ``m`` and ``v`` at its first step
    and counts steps in ``step_count``.
    """

    def __init__(self, layout: Layout, dtype):
        self.layout: dict[str, tuple[int, tuple[int, ...]]] = {}
        size = 0
        for name, shape in layout:
            if name in self.layout:
                raise ContractError(f"parameter {name!r} is listed twice")
            if len(self.layout) == MAX_TENSORS:
                raise ConfigError(f"the model has more than {MAX_TENSORS:,} "
                                  f"trainable tensors")
            self.layout[name] = (size, tuple(shape))
            size += math.prod(shape)
            if size > MAX_PARAMETERS:
                raise ConfigError(
                    f"the model has {size:,} trainable parameters, more than "
                    f"the {MAX_PARAMETERS:,} allowed (counted up to {name!r})")
        self.size = size
        self.dtype = np.dtype(dtype)
        self.flat = np.zeros(size, self.dtype)
        self.grads: FlatArrays | None = None
        self.m: FlatArrays | None = None
        self.v: FlatArrays | None = None
        self.step_count = 0
        self._tensors = {name: Tensor(view, name=name, trainable=True)
                         for name, view in
                         FlatArrays(self.flat, self.layout).items()}

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def zeros(self) -> FlatArrays:
        """A new zero-filled flat array with the store's layout."""
        return FlatArrays(np.zeros(self.size, self.dtype), self.layout)

    def enable_grad(self) -> FlatArrays:
        """The gradient buffer, allocated on the first call; from then on each
        tensor's gradients collect in its view of it."""
        if self.grads is None:
            self.grads = self.zeros()
            for name, t in self._tensors.items():
                t._grad_slot = self.grads[name]
                t.grad = None
        return self.grads

    def gradients(self) -> FlatArrays:
        """The gradient buffer holding the sum of the backward passes since
        the last call (zeros where none reached); clears every tensor's
        ``grad``, so the next pass starts a new sum."""
        if self.grads is None:
            raise ContractError("gradients are not enabled on this store")
        for t in self._tensors.values():
            if t.grad is None:
                t._grad_slot.fill(0)
            t.grad = None
        return self.grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Adam's moment decay rates and denominator offset (Kingma & Ba 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# Elements per block of the in-place Adam update, small enough that the
# block's slices of p, m, v, g and the scratch stay in cache across its passes.
_ADAM_BLOCK = 1 << 16


def adam_step(params: ParamStore, learning_rate: float) -> None:
    """One bias-corrected Adam update, in place, of every tensor in a store,
    from the gradients collected in its buffer.

    The store's moments ``m`` and ``v`` are allocated, zeroed, at its first
    step, and its ``step_count`` counts the steps. Per element:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), with the operations in that
    order, run over the flat arrays block by block into reused scratch
    instead of whole-array temporaries. ``ContractError`` if ``params`` is
    not a store or has no gradient buffer.
    """
    if not isinstance(params, ParamStore):
        raise ContractError("adam_step updates a ParamStore, got "
                            f"{type(params).__name__}")
    if params.grads is None:
        raise ContractError("gradients are not enabled on this store")
    if params.m is None:
        params.m, params.v = params.zeros(), params.zeros()
    params.step_count += 1
    t = params.step_count
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, learning_rate, ADAM_EPS
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    pf, gf = params.flat, params.grads.flat
    mf, vf = params.m.flat, params.v.flat
    size = min(_ADAM_BLOCK, pf.size)
    g_tmp = np.empty(size, gf.dtype)              # (1-b1)*g, then (1-b2)*g*g
    num, den = np.empty(size, mf.dtype), np.empty(size, vf.dtype)
    for lo in range(0, pf.size, _ADAM_BLOCK):
        blk = slice(lo, lo + _ADAM_BLOCK)
        g, m, v, pb = gf[blk], mf[blk], vf[blk], pf[blk]
        k = g.size
        gt, nu, de = g_tmp[:k], num[:k], den[:k]
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=gt)
        np.add(m, gt, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, g, out=gt)
        np.multiply(gt, 1.0 - b2, out=gt)
        np.add(v, gt, out=v)
        np.divide(m, bc1, out=nu)
        np.multiply(nu, lr, out=nu)
        np.divide(v, bc2, out=de)
        np.sqrt(de, out=de)
        np.add(de, eps, out=de)
        np.divide(nu, de, out=nu)
        np.subtract(pb, nu, out=pb)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

# grad_check's central-difference step; the relu-input magnitude below which
# a step with unit-order effect counts as grazing a kink; and the gradient
# magnitude below which both gradients count as zeros
GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_KINK_MARGIN = 1e-4
GRAD_CHECK_NOISE_FLOOR = 1e-6


@dataclass
class GradCheckResult:
    max_rel_err: float
    worst_param: str
    checked: int
    skipped: int


class _ReluProbe:
    def __enter__(self):
        global _RELU_PROBE
        _RELU_PROBE = []
        return self

    def __exit__(self, *exc):
        global _RELU_PROBE
        _RELU_PROBE = None
        return False


def _probed_eval(f: Callable[[], Tensor], param_name: str):
    global _RELU_PROBE
    with _ReluProbe():
        try:
            value = f()
        except NumericsError as err:
            raise NumericsError(f"non-finite objective while perturbing "
                                f"parameter {param_name!r}: {err}") from err
        records = _RELU_PROBE
    val = float(value.data)
    if not np.isfinite(val):
        raise NumericsError(
            f"non-finite objective while perturbing parameter {param_name!r}")
    return val, records


def _kink_crossed(recs_plus: list, recs_minus: list) -> bool:
    """True when the two perturbed passes straddle or graze a ReLU kink.

    A sign flip between the +h and -h evaluations means the central
    difference spans two linear regions and is invalid. The margin rule
    additionally skips entries that drive a relu input of magnitude below
    ``GRAD_CHECK_KINK_MARGIN`` with at least unit-order sensitivity
    (|change| >= h), i.e. parameters feeding a kink more or less directly.
    """
    if len(recs_plus) != len(recs_minus):
        return True
    for ap, am in zip(recs_plus, recs_minus):
        delta = np.abs(ap - am)
        changed = delta > 0
        if not changed.any():
            continue
        if (((ap > 0) != (am > 0)) & changed).any():
            return True
        near = np.minimum(np.abs(ap), np.abs(am)) < GRAD_CHECK_KINK_MARGIN
        if (near & (delta >= GRAD_CHECK_STEP)).any():
            return True
    return False


def grad_check(f: Callable[[], Tensor], store: ParamStore) -> GradCheckResult:
    """Compare the gradients ``store`` collects from one new backward pass of
    ``f()`` against central differences, element by element over
    ``store.flat``, naming the worst element's tensor from its layout.

    ``f`` must rebuild its computation from the current parameter values on
    every call and be deterministic (fix any dropout outside of ``f``).
    Entries whose perturbation crosses or grazes a ReLU kink are skipped and
    counted. Entries where both gradients are below the noise floor are
    treated as matching zeros, since there the central difference is pure
    float roundoff. Use a float64 store for tight tolerances.
    """
    store.enable_grad()
    store.gradients()          # drops what earlier passes left uncollected
    with Tape() as tape:
        loss = f()
    tape.gradients(loss)
    analytic = store.gradients().flat

    flat, h = store.flat, GRAD_CHECK_STEP
    worst = 0.0
    worst_param = ""
    checked = 0
    skipped = 0
    for name, (lo, shape) in store.layout.items():
        for j in range(lo, lo + math.prod(shape)):
            orig = flat[j]
            try:
                flat[j] = orig + h
                fp, relus_p = _probed_eval(f, name)
                flat[j] = orig - h
                fm, relus_m = _probed_eval(f, name)
            finally:
                flat[j] = orig
            if _kink_crossed(relus_p, relus_m):
                skipped += 1
                continue
            numeric = (fp - fm) / (2.0 * h)
            a = float(analytic[j])
            denom = max(abs(a), abs(numeric))
            rel = (0.0 if denom < GRAD_CHECK_NOISE_FLOOR
                   else abs(a - numeric) / denom)
            checked += 1
            if rel > worst:
                worst = rel
                worst_param = name
    return GradCheckResult(worst, worst_param, checked, skipped)


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

_DTYPE_TAGS = {"float32": "<f4", "float64": "<f8"}
_MAX_DIMS = 32   # the most numpy 1 allows (numpy 2: 64)


def save_checkpoint(tensors: Mapping[str, "Tensor | np.ndarray"], path) -> None:
    """Write a keyed tensor container.

    Layout: one manifest line ``SYNGCN1\\t<count>``, one header line per
    tensor ``name\\tdtype\\tdim1,dim2,...``, then each tensor's raw row-major
    little-endian values, in header order.
    """
    items = []
    for name, t in tensors.items():
        arr = t.data if isinstance(t, Tensor) else np.asarray(t)
        if arr.dtype.name not in _DTYPE_TAGS:
            raise FormatError(f"unsupported checkpoint dtype {arr.dtype.name}")
        if "\t" in name or "\n" in name:
            raise FormatError(f"invalid tensor name {name!r}")
        items.append((name, arr))
    with replacing(path) as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\t{len(items)}\n".encode("utf-8"))
        for name, arr in items:
            dims = ",".join(str(d) for d in arr.shape)
            fh.write(f"{name}\t{arr.dtype.name}\t{dims}\n".encode("utf-8"))
        for _, arr in items:
            fh.write(np.ascontiguousarray(arr).astype(
                _DTYPE_TAGS[arr.dtype.name], copy=False).tobytes())


@contextlib.contextmanager
def replacing(path):
    """A binary file to write in place of ``path``: the bytes go to
    ``<path>.tmp`` beside it, which replaces ``path`` only once the block
    finishes, so a failed or killed write leaves any previous file whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _header_fields(fh, path) -> list[str]:
    try:
        return fh.readline().decode("utf-8").rstrip("\n").split("\t")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: checkpoint header is not UTF-8") from None


def load_checkpoint(path, into: Mapping[str, np.ndarray] | None = None
                    ) -> "collections.OrderedDict[str, np.ndarray]":
    """The tensors saved at ``path``, by name, as new arrays of their saved
    dtype; or, given ``into``, read straight into those arrays, whose names,
    dtypes and shapes the file must list in order (else ``FormatError``
    naming the first that differs, before any read). A name listed twice is
    an error."""
    with open(path, "rb") as fh:
        manifest = _header_fields(fh, path)
        if len(manifest) != 2 or manifest[0] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
        try:
            count = int(manifest[1])
        except ValueError:
            raise FormatError(f"{path}: bad tensor count {manifest[1]!r}") from None
        headers, seen = [], set()
        for i in range(count):
            fields = _header_fields(fh, path)
            if len(fields) != 3:
                raise FormatError(f"{path}: header {i + 1} has {len(fields)} "
                                  f"fields, expected 3")
            name, dtype, dims = fields
            if dtype not in _DTYPE_TAGS:
                raise FormatError(f"{path}: unknown dtype {dtype!r}")
            try:
                shape = tuple(int(d) for d in dims.split(",")) if dims else ()
                if any(d < 0 for d in shape):
                    raise ValueError(dims)
            except ValueError:
                raise FormatError(f"{path}: bad shape {dims!r} for {name!r}") from None
            if len(shape) > _MAX_DIMS:
                raise FormatError(f"{path}: {len(shape)} dimensions for "
                                  f"{name!r}, at most {_MAX_DIMS} allowed")
            # numpy refuses such a shape even with a zero dimension in it
            if (math.prod(max(d, 1) for d in shape) * np.dtype(dtype).itemsize
                    > np.iinfo(np.intp).max):
                raise FormatError(f"{path}: shape {dims!r} of {name!r} is too "
                                  f"large")
            if name in seen:
                raise FormatError(f"{path}: tensor {name!r} is listed twice")
            seen.add(name)
            headers.append((name, dtype, shape))
        # checked before any read, so a huge declared shape is an error, not
        # an allocation of that size
        declared = sum(math.prod(shape) * np.dtype(_DTYPE_TAGS[dtype]).itemsize
                       for _, dtype, shape in headers)
        present = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared > present:
            raise FormatError(f"{path}: headers declare {declared} bytes of "
                              f"tensor data, the file holds {present}")
        if into is not None:
            wanted = [(name, arr.dtype.name, arr.shape)
                      for name, arr in into.items()]
            for i, (got, want) in enumerate(itertools.zip_longest(
                    headers, wanted, fillvalue="nothing")):
                if got != want:
                    raise FormatError(f"{path}: tensor {i + 1} is {got}, "
                                      f"expected {want}")
        out = collections.OrderedDict()
        for name, dtype, shape in headers:
            stored = np.dtype(_DTYPE_TAGS[dtype])
            nbytes = math.prod(shape) * stored.itemsize
            arr = np.empty(shape, dtype) if into is None else into[name]
            if arr.dtype == stored and arr.flags.c_contiguous:
                got = fh.readinto(arr.reshape(-1).view(np.uint8))
            else:
                raw = fh.read(nbytes)
                got = len(raw)
                if got == nbytes:
                    np.copyto(arr, np.frombuffer(raw, stored).reshape(shape))
            if got != nbytes:
                raise FormatError(f"{path}: truncated tensor {name!r}")
            out[name] = arr
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after last tensor")
    return out
