"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 for gradient checking).
Ops executed while a ``Tape`` is active record themselves on it in creation
order, which is already a topological order; ``Tape.backward`` replays the
records once, in reverse, so gradient accumulation order is deterministic.
Ops executed with no active tape are plain forward computations.

Every op verifies its output is finite; NaN/Inf raises ``NumericsError``
rather than propagating silently. The fused ops also check the values the
clamped logistic would make finite: ``lstm`` its pre-activations, and
``graph_conv`` its gate logits and pre-ReLU sums.

A model keeps its trainable tensors in a ``ParamStore``: each tensor's
``data`` is a view into one flat array, laid out in creation order. Training
adds a matching flat gradient buffer (``enable_grad``) whose views receive
each backward pass's gradients in place: a leaf's first gradient is written
into its view (products straight into it with ``matmul(out=)``), later ones
are added to it, and a leaf the loss did not reach gets its view zero-filled.
``adam_step`` given a store and its gradients keeps ``m`` and ``v`` as two
more flat arrays and updates all of them in one blocked pass. A training
process thus holds four copies of the parameters; prediction holds one.
"""

from __future__ import annotations

import collections
import collections.abc
import contextlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (ConfigError, ContractError, FormatError, NumericsError,
                     ShapeError)

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = "SYNGCN1"

# Toggle for the per-op finite check. Leave on: desk-scale runs are cheap and
# a poisoned tensor is much harder to debug three modules downstream.
FINITE_CHECKS = True


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    ``trainable`` leaves carry a ``name`` and collect gradients in ``grad``
    during ``Tape.backward``; a leaf of a store with gradients enabled
    collects them in its view of the store's gradient buffer
    (``_grad_slot``). Non-leaf tensors also use ``grad`` transiently while a
    backward pass runs.
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

    def item(self) -> float:
        return float(self.data)

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

    def __neg__(self):
        return mul(self, _lift(-1.0, self.dtype))


def parameter(name: str, data, dtype=None) -> Tensor:
    """A trainable leaf tensor; ``name`` keys it in gradients/checkpoints.

    While a ``ParamStore`` is active, ``data`` is copied, in the store's
    dtype, into the store's next slot, and the tensor's data is that view.
    """
    if _FILLING is not None:
        return _FILLING._place(name, data)
    return Tensor(data, dtype=dtype, name=name, trainable=True)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, dtype=dtype)


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


# ---------------------------------------------------------------------------
# tape
# ---------------------------------------------------------------------------

_ACTIVE_TAPE: "Tape | None" = None

# the store that ``parameter`` places new tensors in, while one is active
_FILLING: "ParamStore | None" = None

# Hook for grad_check: when set to a list, relu() appends a copy of each
# input it sees, letting the checker detect kink crossings between the two
# perturbed evaluations.
_RELU_PROBE: list | None = None


class Tape:
    """Ordered record of ops plus the registry of trainable leaves they used.

    One tape per training example; construction and backward are
    single-threaded. ``backward`` may run once.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self.parameters: dict[str, Tensor] = {}
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

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...],
                backward: Callable[[np.ndarray], None]) -> None:
        for t in inputs:
            if t.trainable:
                if t.name is None:
                    raise ContractError("trainable tensor without a name")
                self.parameters.setdefault(t.name, t)
        self._nodes.append((out, backward))

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss)=1 and run every recorded rule once, last-first."""
        if self._spent:
            raise ContractError("backward already ran on this tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        for out, rule in reversed(self._nodes):
            if out.grad is not None:
                rule(out.grad)

    def gradients(self, loss: Tensor) -> "collections.OrderedDict[str, np.ndarray]":
        """Backward, then gradients for every registered trainable leaf.

        A leaf that was consumed but did not reach the loss gets zeros.
        """
        self.backward(loss)
        out = collections.OrderedDict()
        for name, p in self.parameters.items():
            view = _first_grad_view(p)
            if view is not None:
                view.fill(0)
            out[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        return out


def zero_grads(params: Iterable[Tensor] | Mapping[str, Tensor]) -> None:
    values = params.values() if isinstance(params, Mapping) else params
    for p in values:
        p.grad = None


# ---------------------------------------------------------------------------
# op machinery
# ---------------------------------------------------------------------------

def _check_finite(arr: np.ndarray, op: str) -> None:
    if FINITE_CHECKS and not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by {op}")


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op on ``inputs`` goes on the tape: one is active and some
    input needs a gradient."""
    return _ACTIVE_TAPE is not None and any(t._needs_grad for t in inputs)


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], op: str,
          backward: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(out_data, op)
    out = Tensor(out_data)
    if _recording(inputs):
        out._needs_grad = True
        _ACTIVE_TAPE._record(out, inputs, backward)
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
    elif t._grad_slot is not None:
        t.grad += g
    else:
        t.grad = t.grad + g


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


def lstm(x: Tensor, w: Tensor, u: Tensor, b: Tensor, reverse: bool = False,
         lengths=None) -> Tensor:
    """One LSTM direction over B sequences as one op; returns their [N x d]
    states in the row order of ``x``.

    ``x`` [N x in] holds the sequences as consecutive row blocks of
    ``lengths`` rows (default: one sequence of all N rows); each runs from
    its first row, or from its last if ``reverse``, starting at a zero
    state. ``w`` [in x 4d], ``u`` [d x 4d] and ``b`` [1 x 4d] hold the i, f,
    o, g gates in column blocks: z = x_t@w + b + h_prev@u, i,f,o = logistic,
    g = tanh, c = f*c_prev + i*g, h = o*tanh(c).

    The rows are packed time-major with the longest sequence first, so the
    sequences still running at step t are a prefix of that step's rows and
    each step is one [active x d] @ [d x 4d] product.
    """
    for t in (w, u, b):
        _same_dtype(x, t, "lstm")
    n, d = x.data.shape[0], u.data.shape[-1] // 4
    if (x.data.ndim != 2 or w.data.shape != (x.data.shape[1], 4 * d)
            or u.data.shape != (d, 4 * d) or b.data.shape != (1, 4 * d)):
        raise ShapeError(f"lstm: incompatible shapes x {x.data.shape}, w "
                         f"{w.data.shape}, u {u.data.shape}, b {b.data.shape}")
    lens = np.array([n] if lengths is None else lengths, dtype=np.intp)
    if lens.ndim != 1 or lens.size == 0 or lens.min() < 1 or lens.sum() != n:
        raise ShapeError(f"lstm: sequence lengths {lens.tolist()} for {n} rows")
    by_len = np.argsort(-lens, kind="stable")
    first = (np.cumsum(lens) - lens)[by_len]   # first row of each sequence
    if reverse:
        first = first + lens[by_len] - 1
    active = (lens[by_len][:, None] > np.arange(lens.max())).sum(axis=0)
    step = -1 if reverse else 1
    # order[k] is the row of x computed k-th; steps fill consecutive slots
    order = np.concatenate([first[:a] + step * t for t, a in enumerate(active)])
    slots = [slice(lo, lo + a) for lo, a in
             zip(np.cumsum(active) - active, active)]

    z = (x.data @ w.data + b.data)[order]  # pre-activations, [N x 4d]
    gates = np.empty_like(z)               # i, f, o, g after activation
    h, tanh_c = np.empty((n, d), z.dtype), np.empty((n, d), z.dtype)
    # the states each step starts from, which only the backward reads
    record = _recording((x, w, u, b))
    h_prev, c_prev = ((np.empty((n, d), z.dtype), np.empty((n, d), z.dtype))
                      if record else (None, None))
    h_t = c_t = np.zeros((active[0], d), z.dtype)
    for s, a in zip(slots, active):
        if record:
            h_prev[s], c_prev[s] = h_t[:a], c_t[:a]
        z[s] += h_t[:a] @ u.data
        gates[s, :3 * d] = _logistic(z[s, :3 * d])
        gates[s, 3 * d:] = np.tanh(z[s, 3 * d:])
        i, f, o, g = (gates[s, k * d:(k + 1) * d] for k in range(4))
        c_t = f * c_t[:a] + i * g
        tanh_c[s] = np.tanh(c_t)
        h[s] = h_t = o * tanh_c[s]
    # checked here, since the clamped logistic makes an infinite z finite
    _check_finite(z, "lstm")
    out = np.empty_like(h)
    out[order] = h

    def backward(dout):
        # grouped as in the mul, sigmoid and tanh rules, to round the same way
        dout = dout[order]
        dz = np.empty_like(gates)
        # carries from the step that came after; a sequence's rows beyond
        # that step's prefix end there and start from zero
        dh_next, dc_next = (np.zeros((active[0], d), gates.dtype)
                            for _ in range(2))
        for s, a in zip(reversed(slots), reversed(active)):
            i, f, o, g = (gates[s, k * d:(k + 1) * d] for k in range(4))
            dh = dout[s] + dh_next[:a]
            dc = dc_next[:a] + dh * o * (1.0 - tanh_c[s] * tanh_c[s])
            dz[s, :d] = dc * g * i * (1.0 - i)
            dz[s, d:2 * d] = dc * c_prev[s] * f * (1.0 - f)
            dz[s, 2 * d:3 * d] = dh * tanh_c[s] * o * (1.0 - o)
            dz[s, 3 * d:] = dc * i * (1.0 - g * g)
            dh_next[:a], dc_next[:a] = dz[s] @ u.data.T, dc * f
        # back to the row order of x, so the products sum over rows in order
        dz_rows, h_prev_rows = np.empty_like(dz), np.empty_like(h_prev)
        dz_rows[order], h_prev_rows[order] = dz, h_prev
        _accumulate_product(x, dz_rows, w.data.T)
        _accumulate_product(w, x.data.T, dz_rows)
        _accumulate_product(u, h_prev_rows.T, dz_rows)
        _accumulate(b, dz_rows.sum(axis=0, keepdims=True))

    return _make(out, (x, w, u, b), "lstm", backward)


def graph_conv(h: Tensor, weights: list[Tensor], label_bias: Tensor,
               gate_weights: list[Tensor] | None,
               gate_label_bias: Tensor | None, edges) -> Tensor:
    """One gated graph convolution over all three edge directions as one op.

    For each edge (u -> v) of direction d and label l, the message
    ``h[u] @ weights[d] + label_bias[l]`` is scaled by the gate
    ``logistic(h[u] . gate_weights[d] + gate_label_bias[l])`` (no gate if
    ``gate_weights`` is None), and each node sums its in-messages:
    ``out = ReLU((S_along + S_opposite) + S_self)``. ``edges`` is the
    n-node graph's ``syngraph.EdgeIndex``; ``weights`` [k x m] and
    ``gate_weights`` [1 x k] hold one tensor per direction. ``h`` is
    [n x k], ``label_bias`` [labels x m] and ``gate_label_bias``
    [labels x 1].

    Each S_d sums its messages in edge order, as ``segment_sum`` does, and
    the backward groups every product as the per-op rules of ``matmul``,
    ``rows``, ``mul``, ``sum_axis1``, ``sigmoid``, ``add`` and ``relu`` do,
    adding ``h``'s gradient terms in their tape order (self, opposite,
    along; gate path before product), so the result rounds as the per-op
    layer did. Checked for non-finite values: the gate logits, before the
    clamped logistic turns an infinite one finite, and the pre-ReLU sum,
    which ``_RELU_PROBE`` sees as ``relu`` shows its input. A direction
    with no edges puts none of its tensors on the tape; with no edges at
    all the result is zeros and nothing is recorded.
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
    n, bounds = h.data.shape[0], edges.bounds
    present = [d for d in range(3) if bounds[d + 1] > bounds[d]]
    if not present:
        zeros = np.zeros((n, m), h.data.dtype)
        if _RELU_PROBE is not None:
            _RELU_PROBE.append(zeros.copy())
        return Tensor(zeros)
    blocks = {d: slice(bounds[d], bounds[d + 1]) for d in present}
    node_rows = {d: slice(d * n, (d + 1) * n) for d in present}
    hd = h.data
    # the three directions' h @ W_d, stacked into [3n x m]
    transformed = np.empty((3 * n, m), hd.dtype)
    for d in present:
        np.matmul(hd, weights[d].data, out=transformed[node_rows[d]])
    messages = transformed[edges.gather]
    np.add(messages, label_bias.data[edges.labels], out=messages)
    if gated:
        sources = hd[edges.src]
        weighted = np.empty_like(sources)
        for d in present:
            np.multiply(sources[blocks[d]], gate_weights[d].data,
                        out=weighted[blocks[d]])
        logits = weighted.sum(axis=1, keepdims=True)
        np.add(logits, gate_label_bias.data[edges.labels], out=logits)
        # checked here, since the clamped logistic makes an infinite one finite
        _check_finite(logits, "graph_conv")
        gates = _logistic(logits)
        scaled = messages * gates
    else:
        scaled = messages
    per_direction = np.zeros((3 * n, m), hd.dtype)
    np.add.at(per_direction, edges.scatter, scaled)
    pre = per_direction[:n] + per_direction[n:2 * n]
    pre += per_direction[2 * n:]
    _check_finite(pre, "graph_conv")
    if _RELU_PROBE is not None:
        _RELU_PROBE.append(pre.copy())
    out = np.maximum(pre, 0)

    def backward(g):
        dscaled = (g * (pre > 0))[edges.dst]
        if gated:
            dmessages = dscaled * gates
            dlogits = _unbroadcast(dscaled * messages, gates.shape)
            dlogits = dlogits * gates * (1.0 - gates)
            _accumulate_rows(gate_label_bias, edges.labels, dlogits)
            dsources = np.empty_like(sources)
            for d in present:
                blk = blocks[d]
                np.multiply(dlogits[blk], gate_weights[d].data,
                            out=dsources[blk])
                _accumulate(gate_weights[d], _unbroadcast(
                    dlogits[blk] * sources[blk], gate_weights[d].data.shape))
            dgate_h = np.zeros((3 * n, k), hd.dtype)
            np.add.at(dgate_h, edges.gather, dsources)
        else:
            dmessages = dscaled
        _accumulate_rows(label_bias, edges.labels, dmessages)
        dtransformed = np.zeros((3 * n, m), hd.dtype)
        np.add.at(dtransformed, edges.gather, dmessages)
        for d in reversed(present):
            rows_d = node_rows[d]
            if gated:
                _accumulate(h, dgate_h[rows_d])
            _accumulate_product(h, dtransformed[rows_d], weights[d].data.T)
            _accumulate_product(weights[d], hd.T, dtransformed[rows_d])

    # in the order the per-op layer first used them
    first = present[0]
    inputs = [h, weights[first], label_bias]
    if gated:
        inputs += [gate_weights[first], gate_label_bias]
    for d in present[1:]:
        inputs += [weights[d], gate_weights[d]] if gated else [weights[d]]
    return _make(out, tuple(inputs), "graph_conv", backward)


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


class ParamStore(collections.abc.Mapping):
    """Trainable tensors whose ``data`` are views into one flat array.

    ``size`` elements of ``dtype`` are checked against ``MAX_PARAMETERS``
    and allocated up front; every ``parameter`` made inside ``with store:``
    takes the next slot, in creation order, and leaving the block checks
    that the slots were filled exactly. Read by name, the store gives the
    tensors. ``enable_grad`` allocates the gradient buffer, for training
    only.
    """

    def __init__(self, size: int, dtype):
        if size > MAX_PARAMETERS:
            raise ConfigError(f"the model has {size:,} trainable parameters, "
                              f"more than the {MAX_PARAMETERS:,} allowed")
        self.size = size
        self.dtype = np.dtype(dtype)
        self.flat = np.zeros(size, self.dtype)
        self.layout: dict[str, tuple[int, tuple[int, ...]]] = {}
        self.grads: FlatArrays | None = None
        self._tensors: dict[str, Tensor] = {}
        self._filled = 0

    def __enter__(self) -> "ParamStore":
        global _FILLING
        if _FILLING is not None:
            raise ContractError("a parameter store is already being filled")
        _FILLING = self
        return self

    def __exit__(self, exc_type, *exc):
        global _FILLING
        _FILLING = None
        if exc_type is None and self._filled != self.size:
            raise ContractError(f"parameter store of {self.size} elements got "
                                f"{self._filled}")
        return False

    def _place(self, name: str, data) -> Tensor:
        if name in self.layout:
            raise ContractError(f"parameter {name!r} is already in the store")
        shape = np.shape(data)
        lo, n = self._filled, math.prod(shape)
        if lo + n > self.size:
            raise ContractError(f"parameter {name!r} overflows the store of "
                                f"{self.size} elements")
        view = self.flat[lo:lo + n].reshape(shape)
        np.copyto(view, data)
        self.layout[name] = (lo, shape)
        self._filled += n
        t = self._tensors[name] = Tensor(view, name=name, trainable=True)
        return t

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
        return self.grads

    def gradients(self) -> FlatArrays:
        """The gradient buffer after a backward pass, with the views of the
        tensors that the loss did not reach zero-filled."""
        if self.grads is None:
            raise ContractError("gradients are not enabled on this store")
        for t in self._tensors.values():
            view = _first_grad_view(t)
            if view is not None:
                view.fill(0)
        return self.grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Moment estimates by parameter name plus the shared step counter; flat
    ``FlatArrays`` once a ``ParamStore`` has been stepped."""

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: Mapping[str, np.ndarray] = field(default_factory=dict)
    v: Mapping[str, np.ndarray] = field(default_factory=dict)


# Elements per block of the in-place Adam update, small enough that the
# block's slices of p, m, v, g and the scratch stay in cache across its passes.
_ADAM_BLOCK = 1 << 16


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place, over all trainable params.

    Per element: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr * (m/bc1) / (sqrt(v/bc2) + eps), with the operations in that
    order, run block by block into reused scratch instead of whole-tensor
    temporaries. Given a ``ParamStore`` and gradients in its layout, the
    update makes one pass over the flat arrays, with ``state.m`` and
    ``state.v`` flat as well; otherwise it goes tensor by tensor.
    """
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    coef = (b1, b2, 1.0 - b1 ** t, 1.0 - b2 ** t, state.learning_rate,
            state.eps)
    if (isinstance(params, ParamStore) and isinstance(grads, FlatArrays)
            and grads.layout is params.layout):
        if not isinstance(state.m, FlatArrays):
            if state.m:
                raise ContractError("Adam state holds per-tensor moments")
            state.m, state.v = params.zeros(), params.zeros()
        _adam_update(params.flat, grads.flat, state.m.flat, state.v.flat, *coef)
        return
    for name, p in params.items():
        if not p.trainable:
            continue
        if name not in grads:
            raise ContractError(f"missing gradient for trainable parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        pf = p.data.reshape(-1)       # a copy if p.data is not contiguous
        gf = np.ravel(np.broadcast_to(grads[name], p.data.shape))
        _adam_update(pf, gf, state.m[name].reshape(-1),
                     state.v[name].reshape(-1), *coef)
        if not np.shares_memory(pf, p.data):
            np.copyto(p.data, pf.reshape(p.data.shape))


def _adam_update(pf, gf, mf, vf, b1, b2, bc1, bc2, lr, eps) -> None:
    """``adam_step``'s update of the flat arrays ``pf``, ``mf``, ``vf``."""
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


def _kink_crossed(recs_plus: list, recs_minus: list, margin: float,
                  h: float) -> bool:
    """True when the two perturbed passes straddle or graze a ReLU kink.

    A sign flip between the +h and -h evaluations means the central
    difference spans two linear regions and is invalid. The margin rule
    additionally skips entries that drive a relu input of magnitude below
    ``margin`` with at least unit-order sensitivity (|change| >= h), i.e.
    parameters feeding a kink more or less directly.
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
        near = np.minimum(np.abs(ap), np.abs(am)) < margin
        if (near & (delta >= h)).any():
            return True
    return False


def grad_check(f: Callable[[], Tensor], params: Mapping[str, Tensor],
               h: float = 1e-5, kink_margin: float = 1e-4,
               noise_floor: float = 1e-6) -> GradCheckResult:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must rebuild its computation from the current parameter values on
    every call and be deterministic (fix any dropout outside of ``f``).
    Entries whose perturbation crosses or grazes a ReLU kink are skipped and
    counted. Entries where both gradients are below ``noise_floor`` are
    treated as matching zeros, since there the central difference is pure
    float roundoff. Use float64 parameters for tight tolerances.
    """
    trainables = {k: p for k, p in params.items() if p.trainable}
    zero_grads(trainables)
    with Tape() as tape:
        loss = f()
    analytic = tape.gradients(loss)

    worst = 0.0
    worst_param = ""
    checked = 0
    skipped = 0
    for name, p in trainables.items():
        flat = p.data.reshape(-1)
        ana = analytic.get(name, np.zeros_like(p.data)).reshape(-1)
        for j in range(flat.shape[0]):
            orig = flat[j]
            flat[j] = orig + h
            fp, relus_p = _probed_eval(f, name)
            flat[j] = orig - h
            fm, relus_m = _probed_eval(f, name)
            flat[j] = orig
            if _kink_crossed(relus_p, relus_m, kink_margin, h):
                skipped += 1
                continue
            numeric = (fp - fm) / (2.0 * h)
            a = float(ana[j])
            denom = max(abs(a), abs(numeric))
            rel = 0.0 if denom < noise_floor else abs(a - numeric) / denom
            checked += 1
            if rel > worst:
                worst = rel
                worst_param = name
    zero_grads(trainables)
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
    dtype; or, given ``into``, read straight into those arrays (same names
    and shapes, else ``ContractError`` before any read) and returned."""
    with open(path, "rb") as fh:
        manifest = _header_fields(fh, path)
        if len(manifest) != 2 or manifest[0] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
        try:
            count = int(manifest[1])
        except ValueError:
            raise FormatError(f"{path}: bad tensor count {manifest[1]!r}") from None
        headers = []
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
            found = {name: shape for name, _, shape in headers}
            missing, extra = set(into) - set(found), set(found) - set(into)
            if missing or extra:
                raise ContractError(f"checkpoint mismatch: missing "
                                    f"{sorted(missing)}, unexpected {sorted(extra)}")
            for name, shape in found.items():
                if into[name].shape != shape:
                    raise ContractError(f"checkpoint tensor {name} has shape "
                                        f"{shape}, expected {into[name].shape}")
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
