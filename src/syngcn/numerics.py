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
The store's gradient window is the one place the store sums gradients: a
backward pass adds a leaf's gradients into its view of the window in place
(the first since the last step is written, products straight in with
``matmul(out=)``). Every Adam step is ``_sweep``, the backward pass given
the store and a learning rate: the layers' rules run in stages that write
one parameter each (or a few small ones) and reach the store top down, as
it is laid out in forward order, so the window need only hold the widest
stage's chunk of the store, flushed into ``adam_step`` span by span as the
pass goes down; a weight whose gradient is one product takes no room in it
where ``adam_step`` computes that product block by block (``_sweep``). A
pass given the store
alone (a batch's earlier instances, ``grad_check``) sums into a window over
the whole store, which the next step flushes at its end. The store is the
one registry of a model's trainable tensors and the one thing ``adam_step``
updates. It also holds Adam's state: the step count and the moments ``m``
and ``v``, two more flat arrays allocated at the first step. A training
process thus holds three copies of the parameters and the window, which is
a fourth in batch updates and gradient checks; prediction holds one.
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

from . import workers
from .errors import (ConfigError, ContractError, FormatError, LayoutMismatch,
                     NumericsError, ShapeError)

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = "SYNGCN1"


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    ``trainable`` leaves collect gradients in ``grad`` during
    ``Tape.gradients``; a store leaf collects them in its view of the
    store's gradient window (``_grad_slot``) when it has one.
    Non-leaf tensors also use ``grad`` transiently while a backward pass
    runs.
    """

    __slots__ = ("data", "grad", "name", "trainable", "_needs_grad",
                 "_grad_slot", "_step")

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
        # (store, learning rate) while a fused stage of an Adam step waits
        # for this store leaf's gradient product (``_sweep``)
        self._step: tuple | None = None

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
    """Ordered record of (output, backward rule, stages, products) tuples,
    one per recorded op.

    A rule runs in one or more stages, each listed as the tensors it writes
    gradients into: a plain rule is one stage writing all of the op's
    inputs; a staged rule is a generator that yields between its stages
    (``_stages``), so that an Adam step can flush each parameter's gradient
    into Adam before the next stage (``_sweep``). ``products`` lists the
    inputs whose whole gradient is one ``_accumulate_product``, the last
    term of their stage, so that an Adam step can take it block by block
    from the product. One tape per backward pass; construction and backward
    run on one thread. ``gradients`` may run once.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable, tuple[tuple[Tensor, ...],
                                                        ...],
                                tuple[Tensor, ...]]] = []
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

    def _record(self, out: Tensor, backward: Callable,
                stages: tuple[tuple[Tensor, ...], ...],
                products: tuple[Tensor, ...]) -> None:
        self._nodes.append((out, backward, stages, products))

    def gradients(self, loss: Tensor, store: "ParamStore | None" = None,
                  learning_rate: float | None = None) -> None:
        """Seed d(loss)/d(loss)=1 and run every recorded rule once, last-first
        and stage by stage, adding each reached leaf's gradient to its
        ``grad`` (for a store leaf, its view of the store's gradient window).

        Given a ``store`` alone, its tensors without a gradient first get
        views of a window over the whole store, so the pass adds to what
        earlier such passes summed. Given a ``learning_rate`` too, the pass
        is also one Adam step of the store, on those sums (``_sweep``).
        """
        if self._spent:
            raise ContractError("backward already ran on this tape")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if store is None and learning_rate is not None:
            raise ContractError("an Adam step needs a store and a learning "
                                "rate")
        self._spent = True
        loss.grad = np.ones_like(loss.data)
        if learning_rate is not None:
            _sweep(self._nodes, store, learning_rate)
            return
        if store is not None:
            store._sum_window()
        for out, rule, _, _ in reversed(self._nodes):
            if out.grad is not None:
                for _ in _stages(rule, out.grad):
                    pass


def _stages(rule: Callable, g: np.ndarray):
    """Run ``rule(g)`` one stage per step of the returned iterator: a plain
    rule runs whole in the first step, a staged rule (a generator) up to
    each of its yields in turn."""
    run = rule(g)
    if run is not None:
        yield from run


# ---------------------------------------------------------------------------
# op machinery
# ---------------------------------------------------------------------------

def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by {op}")


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], op: str,
          backward: Callable, stages: tuple[tuple[Tensor, ...], ...] | None
          = None, products: tuple[Tensor, ...] = ()) -> Tensor:
    """The op's output, recorded with its rule when a tape is active and
    some input needs a gradient; ``stages`` lists the tensors each stage of
    a staged rule writes (default: one stage writing every input), and
    ``products`` the inputs whose gradient is one product (see ``Tape``)."""
    _check_finite(out_data, op)
    out = Tensor(out_data)
    if _ACTIVE_TAPE is not None and any(t._needs_grad for t in inputs):
        out._needs_grad = True
        _ACTIVE_TAPE._record(out, backward, stages or (inputs,), products)
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
    straight into its view; in a fused stage of an Adam step, the leaf's
    update from the product instead (``adam_step``'s ``product``)."""
    if not t._needs_grad:
        return
    if t._step is not None:
        (store, learning_rate), t._step = t._step, None
        adam_step(store, learning_rate, store._bounds[t.name], (a, b))
        return
    view = _first_grad_view(t)
    if view is not None:
        workers.product(a, b, out=view)
    else:
        _accumulate(t, workers.product(a, b))


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
    no exponent is positive. The numerator max(e, d >= 0) is 1 or e, as e
    <= 1, and a NaN e stays NaN: the same values as a per-element select,
    without its branch on each element's sign.
    """
    e = np.abs(d)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, d >= 0)
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


def _by_direction(wide: bool, run: Callable[[slice], None]) -> None:
    """``run(ks)`` over a BiLSTM layer's directions ``ks``: for a ``wide``
    layer, the forward direction, then the backward, through
    ``workers.in_parallel`` (inside ``workers.two_workers``, the backward on
    the worker); else both stacked on this thread."""
    if wide:
        workers.in_parallel(lambda: run(slice(0, 1)),
                            lambda: run(slice(1, 2)))
    else:
        run(slice(0, 2))


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
    A layer whose first step's product has ``workers.PAIR_MIN``
    multiply-adds runs its forward and its backward's recurrence one
    direction at a time (``_by_direction``), on two threads inside
    ``workers.two_workers``, with the bytes of the stacked directions: each
    direction's input projection is one whole product, not
    ``workers.product``'s halves, as a lone direction's thread cannot hand
    half of it over. The backward runs in six stages, one per parameter
    going down the store (backward direction's ``b`` with its ``x`` term,
    ``u``, ``w``, then the forward direction's), so a batch-size-1 step
    flushes one tensor's gradient at a time; each ``u`` and ``w`` gradient
    is one product.
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

    z = np.empty((2, n, 4 * d), x.data.dtype)
    gates = np.empty_like(z)               # i, f, o, g after activation
    h, c, tanh_c = np.empty((3, 2, n, d), z.dtype)
    wide = active[0] * us[0].size >= workers.PAIR_MIN

    def forward(ks):
        # directions ks: their input projections, then their steps
        zs, gs, cs, ts, hs = z[ks], gates[ks], c[ks], tanh_c[ks], h[ks]
        for k in range(2)[ks]:
            # gates[k] is scratch until the steps overwrite every row of it;
            # "clip" lets take write into z[k] unbuffered (rows are in range)
            (w, _, b), rows, scratch = dirs[k], order[k], gates[k]
            np.matmul(x.data, w.data, out=scratch)
            np.add(scratch, b.data, out=scratch)
            scratch.take(rows, axis=0, out=z[k], mode="clip")
        h_t = c_t = np.zeros((len(zs), active[0], d), z.dtype)
        for s, a in steps:
            for zk, hk, u in zip(zs, h_t, us[ks]):
                np.add(zk[s], hk[:a] @ u, out=zk[s])
            gs[:, s, :3 * d] = _logistic(zs[:, s, :3 * d])
            i, f, o, g = (gs[:, s, k * d:(k + 1) * d] for k in range(4))
            np.tanh(zs[:, s, 3 * d:], out=g)
            c_t = np.add(f * c_t[:, :a], i * g, out=cs[:, s])
            h_t = np.multiply(o, np.tanh(c_t, out=ts[:, s]), out=hs[:, s])

    _by_direction(wide, forward)
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

        def recur(ks):
            # directions ks' dz, step by step down from the last, with the
            # carries from the step that came after; a sequence's rows
            # beyond that step's prefix end there and start from zero
            dzs = dz[ks]
            dh_next, dc_next = np.zeros((2, len(dzs), active[0], d), h.dtype)
            for s, a in reversed(steps):
                dh = dout[ks, s] + dh_next[:, :a]
                dc = dc_next[:, :a] + dh * o[ks, s] * dtanh_c[ks, s]
                np.multiply(dc[:, :, None], second[ks, s], out=dz4[ks, s])
                np.multiply(dh, tanh_c[ks, s], out=dz4[ks, s, 2])
                dz4[ks, s] *= third[ks, s]
                dz4[ks, s, :3] *= fourth[ks, s]
                for dzk, dhk, u in zip(dzs, dh_next, us[ks]):
                    np.matmul(dzk[s], u.T, out=dhk[:a])
                np.multiply(dc, f[ks, s], out=dc_next[:, :a])

        _by_direction(wide, recur)
        # backward direction first, as when each direction was its own tape
        # node; rows back in the order of x, so products sum rows in order.
        # A direction's x and b, then u, then w, each in its own stage, go
        # down the store; x's term reads w before w's stage
        for k in (1, 0):
            (w, u, b), rows = dirs[k], order[k]
            dz_rows, h_prev_rows = np.empty_like(dz[k]), np.zeros_like(h[k])
            dz_rows[rows], h_prev_rows[rows[active[0]:]] = dz[k], h[k, prev]
            _accumulate_product(x, dz_rows, w.data.T)
            _accumulate(b, dz_rows.sum(axis=0, keepdims=True))
            yield
            _accumulate_product(u, h_prev_rows.T, dz_rows)
            yield
            _accumulate_product(w, x.data.T, dz_rows)
            if k:
                yield

    stages = tuple(stage for w, u, b in (bw, fw)
                   for stage in ((x, b), (u,), (w,)))
    return _make(out, (x, *fw, *bw), "lstm", backward, stages,
                 (fw[0], fw[1], bw[0], bw[1]))


def _sum_rows_in_order(index: np.ndarray, values: np.ndarray,
                       rows: int) -> np.ndarray:
    """``rows`` zero rows with each ``values[e]`` added into row ``index[e]``
    in the order of e, as ``np.add.at`` adds them; ``index`` must be
    non-decreasing.

    Round r adds each row's r-th value. The sums are packed by number of
    values (most first, ties in row order), so the rows with an r-th value
    are a prefix and a round is one slice add; one assignment then puts the
    sums in their rows. Each row makes the additions ``np.add.at`` makes, in
    its order and from the same zero, so the bytes are equal; it only skips
    numpy's unbuffered per-element path.
    """
    first = np.searchsorted(index, index)
    rank = np.arange(index.size) - first
    # by round, then by minus the row's value count (lexsort is stable)
    order = np.lexsort((first - np.searchsorted(index, index, "right"), rank))
    packed = values[order]
    per_round = np.bincount(rank, minlength=1).tolist()
    sums = np.zeros((per_round[0], *values.shape[1:]), values.dtype)
    lo = 0
    for count in per_round:
        sums[:count] += packed[lo:lo + count]
        lo += count
    out = np.zeros((rows, *values.shape[1:]), values.dtype)
    out[index[order[:per_round[0]]]] = sums
    return out


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
    as zeros. The backward runs in four stages going down the store: the
    label and gate tensors, then each direction d = 2, 1, 0 with the ``h``
    terms that read ``weights[d]``, then its gradient, one product.
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
        workers.product(hd, weights[d].data, out=rows_d)
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
    per_direction = _sum_rows_in_order(graph.scatter, scaled, 3 * n)
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
        # one stage per direction, down the store: h's terms read W_d
        for d in reversed(range(3)):
            yield
            if gated:
                _accumulate(h, dgate_h.reshape(3, n, k)[d])
            dtransformed_d = dtransformed.reshape(3, n, m)[d]
            _accumulate_product(h, dtransformed_d, weights[d].data.T)
            _accumulate_product(weights[d], hd.T, dtransformed_d)

    stages = (tuple(params[3:]),
              *((h, weights[d]) for d in reversed(range(3))))
    return _make(out, (h, *params), "graph_conv", backward, stages,
                 tuple(weights))


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
    The backward runs in two stages going down the store: ``encoded``,
    ``lemma`` and ``roles``, whose terms read ``transform``, then
    ``transform``'s gradient, one product.
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
    pre = workers.product(pair, transform.data)                       # [R x 2m]
    _check_finite(pre, "role_logits")
    if _RELU_PROBE is not None:
        _RELU_PROBE.append(pre.copy())
    weights_t = np.maximum(pre, 0).T.copy()                           # [2m x R]
    out = paired @ weights_t

    def backward(g):
        head = lemma._needs_grad or roles._needs_grad or transform._needs_grad
        if head:
            dpre = (paired.T @ g).T * (pre > 0)
            dpair = workers.product(dpre, transform.data.T)
            _accumulate(roles, dpair[:, d_l:])
            _accumulate_rows(lemma, l_idx, ones_r.T @ np.ascontiguousarray(
                dpair[:, :d_l]))
        if encoded._needs_grad:
            dpaired = g @ weights_t.T
            _accumulate(encoded, dpaired[:, :m])
            _accumulate_rows(encoded, p_idx, ones_n.T @ np.ascontiguousarray(
                dpaired[:, m:]))
        yield
        if head:
            _accumulate_product(transform, pair.T, dpre)

    return _make(out, (encoded, lemma, roles, transform), "role_logits",
                 backward, ((encoded, lemma, roles), (transform,)),
                 (transform,))


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


def sum_axis1(a: Tensor) -> Tensor:
    out = a.data.sum(axis=1, keepdims=True)

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(out, (a,), "sum_axis1", backward)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def backward(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return _make(out, (a,), "sum_all", backward)


def softmax_cross_entropy(logits: Tensor, gold: int) -> Tensor:
    """-log softmax(logits)[gold] for one [1 x k] row of scores: the
    one-row case of ``cross_entropy_rows``."""
    return cross_entropy_rows(logits, [gold])


def cross_entropy_rows(logits: Tensor, gold_ids) -> Tensor:
    """Sum over rows i of -log softmax(logits[i])[gold_ids[i]], for 2-d
    ``logits``: one op for an instance's per-token losses.

    Computed with max-subtraction; the gradient is softmax - onehot(gold).
    """
    ids = np.asarray(gold_ids, dtype=np.intp)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_rows: logits of shape "
                         f"{logits.data.shape}, not 2-d")
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
# while training 3 GiB plus the gradient window (weights and Adam's m and v),
# 4 GiB in batch updates (a store-sized window).
MAX_PARAMETERS = 1 << 28

# The most tensors a store holds, far above any model's few dozen: a deep
# stack of narrow layers lists tens of millions before MAX_PARAMETERS.
MAX_TENSORS = 1 << 16


# (name, shape) pairs in store order, which module layouts yield lazily
Layout = Iterable[tuple[str, tuple[int, ...]]]


class ParamStore(collections.abc.Mapping):
    """Trainable tensors whose ``data`` are views into one flat array.

    ``layout`` is read once, before anything is allocated: the first tensor
    past ``MAX_PARAMETERS`` or ``MAX_TENSORS`` stops it with a
    ``ConfigError``, a name listed twice with a ``ContractError``. Every
    tensor exists from the start, zeroed, for an initializer or a checkpoint
    read to fill in place. ``self.layout`` maps each name to its (offset,
    shape). ``window`` holds the gradients of the store elements [``_base``,
    ``_base`` + its size). It grows on first use: to the widest unfused
    stage's chunk of the store for a batch-size-1 step, to the whole store
    for a pass that sums (``_sum_window``); either is kept across steps,
    with the plan of the last tape's stages (``_sweep``). Adam's first step
    allocates its moments ``m`` and ``v``, flat arrays laid out as
    ``flat``; ``step_count`` counts the steps.
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
        self._bounds = {name: (lo, lo + math.prod(shape))
                        for name, (lo, shape) in self.layout.items()}
        self.window: np.ndarray | None = None
        self._base = 0
        self._plan: _SweepPlan | None = None
        self._corrections = (1.0, 1.0)   # the current step's bc1, bc2
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.step_count = 0
        self._tensors = {name: Tensor(self.flat[lo:lo + math.prod(shape)]
                                      .reshape(shape), name=name,
                                      trainable=True)
                         for name, (lo, shape) in self.layout.items()}

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def _sum_window(self) -> None:
        """Grow the window to the whole store, and give each tensor without
        a gradient its view of it, for a backward pass to add into."""
        if self.window is None or self.window.size < self.size:
            self.window, self._base = np.empty(self.size, self.dtype), 0
        for name, t in self._tensors.items():
            if t.grad is None:
                lo, hi = self._bounds[name]
                t._grad_slot = self.window[lo:hi].reshape(t.shape)

    def _open_step(self) -> None:
        """Count one Adam step and fix its bias corrections; the first
        allocates the moments, zeroed."""
        if self.m is None:
            self.m = np.zeros(self.size, self.dtype)
            self.v = np.zeros(self.size, self.dtype)
        self.step_count += 1
        t = self.step_count
        self._corrections = (1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t)


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


def adam_step(params: ParamStore, learning_rate: float,
              span: tuple[int, int], product: tuple | None = None) -> None:
    """One bias-corrected Adam update, in place, of the store elements
    [lo, hi) = ``span``, from their gradients in the store's window, or,
    when a fused stage updates one tensor, from ``product``, the pair
    ``(a, b)`` whose product ``a @ b`` is that tensor's gradient.

    The sweep of ``Tape.gradients`` counts its step in the store's
    ``step_count`` (the first allocates the moments ``m`` and ``v``,
    zeroed), then calls this once per span it flushes or fuses. Per element:
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g), p -= lr * (m/bc1) /
    (sqrt(v/bc2) + eps), with the operations in that order, run block by
    block into reused scratch instead of whole-array temporaries, so the
    bytes do not depend on how a step is split. A product's block is an
    even number of its rows, about one ``_ADAM_BLOCK`` (a shorter rest
    joins the last block, so that no block is a lone row, which OpenBLAS
    rounds by another path, or small enough for its small-matrix kernels),
    computed into the block's scratch just before its update. A span of
    two or more blocks is split at a block boundary, and its halves run
    through ``workers.in_parallel``.
    ``ContractError``, before anything is written, if ``params`` is not a
    store, if the span is reversed or not inside the store, if it is not
    inside the window (no window at all) or not the product's size, or if
    it comes before any step.
    """
    if not isinstance(params, ParamStore):
        raise ContractError("adam_step updates a ParamStore, got "
                            f"{type(params).__name__}")
    lo, hi = span
    if product is not None:
        a, b = product
        if not 0 <= lo <= hi <= params.size or (
                hi - lo != a.shape[0] * b.shape[1]):
            raise ContractError(f"Adam span [{lo}, {hi}) does not hold the "
                                f"{a.shape[0]} x {b.shape[1]} gradient "
                                f"product")
    elif params.window is None:
        raise ContractError("the store has no gradient window")
    else:
        base, end = params._base, params._base + params.window.size
        if not base <= lo <= hi <= min(end, params.size):
            raise ContractError(f"Adam span [{lo}, {hi}) is not inside the "
                                f"gradient window [{base}, {end}) of a "
                                f"{params.size}-element store")
    if params.m is None:
        raise ContractError("an Adam span before the store's first step")
    if product is None:
        gradient = params.window[lo - params._base:hi - params._base]
        edges = [*range(0, hi - lo, _ADAM_BLOCK), hi - lo]
    else:
        gradient, n = product, product[1].shape[1]
        step = max(2, _ADAM_BLOCK // n // 2 * 2)
        rows = [*range(0, a.shape[0], step), a.shape[0]]
        if len(rows) > 2 and rows[-1] - rows[-2] < step:
            del rows[-2]
        edges = [r * n for r in rows]
    blocks = (params.flat[lo:hi], params.m[lo:hi], params.v[lo:hi], gradient,
              params._corrections, learning_rate)
    half = len(edges) // 2
    if len(edges) > 2:
        workers.in_parallel(lambda: _adam_blocks(*blocks, edges[:half + 1]),
                            lambda: _adam_blocks(*blocks, edges[half:]))
    else:
        _adam_blocks(*blocks, edges)


def _adam_blocks(pf: np.ndarray, mf: np.ndarray, vf: np.ndarray, gradient,
                 corrections: tuple[float, float], learning_rate: float,
                 edges: list[int]) -> None:
    """``adam_step``'s update of the blocks [edges[i], edges[i + 1]) of the
    flat slices ``pf``, ``mf`` and ``vf``, in scratch of its own: the
    gradient is the same slice of ``gradient``, or, for a product ``(a,
    b)``, the block's rows of ``a @ b``."""
    bc1, bc2 = corrections
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, learning_rate, ADAM_EPS
    size = max(k - j for j, k in zip(edges, edges[1:])) if edges[1:] else 0
    g_tmp = np.empty(size, pf.dtype)              # (1-b1)*g, then (1-b2)*g*g
    num, den = np.empty(size, mf.dtype), np.empty(size, vf.dtype)
    if isinstance(gradient, tuple):
        a, b = gradient
        n = b.shape[1]
        g_rows = np.empty(size, pf.dtype)
    for j, k in zip(edges, edges[1:]):
        if isinstance(gradient, tuple):
            g = g_rows[:k - j]
            np.matmul(a[j // n:k // n], b, out=g.reshape(-1, n))
        else:
            g = gradient[j:k]
        m, v, pb = mf[j:k], vf[j:k], pf[j:k]
        gt, nu, de = g_tmp[:k - j], num[:k - j], den[:k - j]
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


def fill_uniform(out: np.ndarray, bound: float,
                 rng: np.random.Generator) -> None:
    """Fill ``out`` with the values ``rng.uniform(-bound, bound,
    out.shape)`` gives, drawn in pieces of whole rows, at most one
    ``_ADAM_BLOCK`` of elements each unless a row is longer, so the float64
    draw of a large tensor never exists whole.

    With a PCG64 generator that holds no buffered 32-bit draw, the second
    half of two or more pieces is drawn from a copy of the generator
    advanced past the first half's draws, one per value, the halves
    through ``workers.in_parallel``; ``rng`` then advances past the second
    half, to the state a fill in one run leaves."""
    row = math.prod(out.shape[1:])
    rows = max(1, _ADAM_BLOCK // max(1, row))
    starts = range(0, len(out), rows)

    def fill(generator, pieces):
        for lo in pieces:
            piece = out[lo:lo + rows]
            piece[...] = generator.uniform(-bound, bound, piece.shape)

    state = (rng.bit_generator.state if len(starts) > 1
             and type(rng.bit_generator) is np.random.PCG64 else None)
    if state is None or state["has_uint32"]:
        fill(rng, starts)
        return
    half = len(starts) // 2
    drawn = starts[half] * row
    ahead = np.random.PCG64(0)
    ahead.state = state
    ahead.advance(drawn)
    workers.in_parallel(lambda: fill(rng, starts[:half]),
                        lambda: fill(np.random.Generator(ahead), starts[half:]))
    rng.bit_generator.advance(out.size - drawn)


@dataclass
class _SweepPlan:
    """The Adam step of one tape's stages (see ``_sweep``), kept by the
    store while the stages' store inputs repeat, as they do for every
    instance of a model: for each stage, in sweep order, the flush before
    it (None for none), its store inputs' views of the window and its fused
    tensor (None for none); then the last flush (None for none). A flush
    is (lo, hi, base, tensors): a span, the store offset of the window
    while it was pending, and each tensor in the span with its window
    slice."""

    key: list
    window: np.ndarray
    steps: list
    last: tuple | None


def _sweep(nodes, store: ParamStore, learning_rate: float) -> None:
    """Run the tape's rules last-first, stage by stage, as one Adam step of
    ``store``, with its gradients in a window that need not hold the whole
    store: LOMO's fused update (Lv et al. 2023), bit for bit.

    When each stage's store inputs, read last-first, lie below those of
    every stage read before it, as when the store is laid out in forward
    order and the staged rules write one parameter per stage, a stage with
    store inputs owns a chunk of the store, from its lowest input up to the
    previous owner's chunk; the first chunk reaches the top of the store
    and the last starts at 0 (one chunk if no stage owns one). Otherwise
    (two stages share a tensor) the whole store is one chunk.

    A chunk that is exactly one 2-d tensor whose gradient is one product
    (the node's ``products``) is fused when the store is wider than one
    ``_ADAM_BLOCK``, neither the window covers it nor an earlier pass left a
    gradient in it: the rule's product for that tensor is its Adam update,
    taken block by block (``adam_step``'s ``product``), so the tensor's
    gradient is that product's row blocks, and a tensor the rule does not
    reach is updated on zeros, a product over no terms. The window, reused
    across steps, holds the largest unfused chunk or one ``_ADAM_BLOCK``.
    Before an unfused owner's stage runs, its store inputs without a
    gradient get views of the window, after a flush of the pending chunks
    if its own does not fit below them; a fused stage flushes them first;
    the end of the pass flushes the rest. A window that covers the store,
    as a pass that sums leaves it, is never flushed before the end. The
    plan of flushes, views and fused tensors is built once per sequence of
    stage inputs and kept in the store (``_SweepPlan``).
    """
    key = [any(t.grad is not None for t in store._tensors.values())] + [
        (tuple(t for t in ins if t.trainable), products)
        for _, _, stages, products in reversed(nodes) for ins in stages]
    plan = store._plan
    if plan is None or plan.window is not store.window or plan.key != key:
        plan = store._plan = _plan_sweep(key, store)
    store._open_step()
    steps = iter(plan.steps)
    for out, rule, stages, _ in reversed(nodes):
        run = None if out.grad is None else _stages(rule, out.grad)
        for _ in stages:
            flush, views, fused = next(steps)
            if flush is not None:
                _flush(store, learning_rate, flush)
            for t, view in views:
                if t.grad is None:
                    t._grad_slot = view
            if fused is None:
                if run is not None:
                    next(run, None)
                continue
            fused._step, fused._grad_slot = (store, learning_rate), None
            try:
                if run is not None:
                    next(run, None)
            finally:
                missed, fused._step = fused._step is not None, None
            if missed:
                rows, cols = fused.shape
                adam_step(store, learning_rate, store._bounds[fused.name],
                          (np.zeros((rows, 0), store.dtype),
                           np.zeros((0, cols), store.dtype)))
    if plan.last is not None:
        _flush(store, learning_rate, plan.last)


def _plan_sweep(key: list, store: ParamStore) -> _SweepPlan:
    """The ``_SweepPlan`` of stages whose trainable inputs and products are
    ``key[1:]``, fusing none if ``key[0]`` (an earlier pass left a
    gradient) or the window covers the store, and growing the store's
    window to its largest unfused chunk."""
    members, bounds = store._tensors, store._bounds
    owned, edges = [], [store.size]        # chunk bounds, top down
    down = True
    for ins, _ in key[1:]:
        ins = [t for t in ins if members.get(t.name) is t]
        if ins:
            spans = [bounds[t.name] for t in ins]    # disjoint, so tuple
            down &= max(spans)[1] <= edges[-1]       # order is either end's
            edges.append(min(spans)[0])
        owned.append(ins)
    edges[1:] = edges[1:-1] + [0]          # the last chunk starts at 0
    fusing = (down and not key[0] and store.size > _ADAM_BLOCK
              and (store.window is None or store.window.size < store.size))
    chunks = list(zip(edges[1:], edges))
    taken, spans = iter(chunks), []        # per stage: (lo, hi, fused) or None
    for ins, (_, products) in zip(owned, key[1:]):
        if not ins:
            spans.append(None)
            continue
        lo, hi = next(taken)
        t = ins[0]
        fuse = fusing and len(ins) == 1 and t.data.ndim == 2 and any(
            t is p for p in products) and bounds[t.name] == (lo, hi)
        spans.append((lo, hi, t if fuse else None))
    fused = {span[:2] for span in spans if span and span[2] is not None}
    size = store.size if not down else min(store.size, max(
        [_ADAM_BLOCK] + [hi - lo for lo, hi in chunks
                         if (lo, hi) not in fused]))
    if store.window is None or store.window.size < size:
        store.window = np.empty(size, store.dtype)
    window = store.window
    top = store.size                       # where the pending chunks end
    base = max(0, top - window.size)
    steps = []
    for ins, span in zip(owned, spans):
        flush, views, fused = None, [], None
        if span is not None:
            lo, hi, fused = span
            if fused is not None or top - lo > window.size:
                if top > hi:
                    flush = _flush_span(store, hi, top, base)
                top = hi if fused is None else lo
                base = max(0, top - window.size)
            if fused is None:
                views = [(t, window[a - base:b - base].reshape(t.shape))
                         for t in ins for a, b in [bounds[t.name]]]
        steps.append((flush, views, fused))
    last = _flush_span(store, 0, top, base) if top > 0 else None
    return _SweepPlan(key, window, steps, last)


def _flush_span(store: ParamStore, lo: int, hi: int, base: int) -> tuple:
    """A flush of the store elements [lo, hi) from a window at ``base``."""
    return lo, hi, base, [(t, a - base, b - base)
                          for name, t in store._tensors.items()
                          for a, b in [store._bounds[name]]
                          if lo <= a and b <= hi]


def _flush(store: ParamStore, learning_rate: float, flush: tuple) -> None:
    """Update a flush's span of the store from the window, where a tensor no
    rule reached gets zeros and one whose ``grad`` an earlier pass without
    the store left gets that gradient, and clear their gradients."""
    lo, hi, base, tensors = flush
    window = store.window
    for t, a, b in tensors:
        if t.grad is None:
            window[a:b] = 0
        elif t.grad is not t._grad_slot:
            window[a:b] = t.grad.reshape(-1)
        t.grad = t._grad_slot = None
    store._base = base
    adam_step(store, learning_rate, (lo, hi))


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
    """Compare the gradients ``store`` sums in its window from one new
    backward pass of ``f()``, zeros for a tensor it does not reach, against
    central differences, element by element over ``store.flat``, naming the
    worst element's tensor from its layout.

    ``f`` must rebuild its computation from the current parameter values on
    every call and be deterministic (fix any dropout outside of ``f``).
    Entries whose perturbation crosses or grazes a ReLU kink are skipped and
    counted. Entries where both gradients are below the noise floor are
    treated as matching zeros, since there the central difference is pure
    float roundoff. Use a float64 store for tight tolerances.
    """
    for t in store.values():
        t.grad = None          # drops what earlier passes left unstepped
    with Tape() as tape:
        loss = f()
    tape.gradients(loss, store)
    for t in store.values():
        if t.grad is None:
            t._grad_slot.fill(0)
        t.grad = t._grad_slot = None
    analytic = store.window

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
            # the buffer itself, not a bytes copy of it
            fh.write(np.ascontiguousarray(arr).astype(
                _DTYPE_TAGS[arr.dtype.name], copy=False).reshape(-1)
                .view(np.uint8))


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
    dtypes and shapes the file must list in order (else ``LayoutMismatch``,
    a ``FormatError``, naming the first that differs, before any read). A
    name listed twice is an error.

    The file is opened once, and its tensor data read only after every
    header and size check, with ``os.preadv`` on that one descriptor
    (``_read_span``), in two halves of about equal bytes through
    ``workers.in_parallel`` (inside ``workers.two_workers``, the worker
    reads the second); the trailing-bytes check runs once both are done."""
    with open(path, "rb") as fh:
        manifest = _header_fields(fh, path)
        if len(manifest) != 2 or manifest[0] != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
        try:
            count = int(manifest[1])
            if count < 0:
                raise ValueError(count)
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
                    raise LayoutMismatch(f"{path}: tensor {i + 1} is {got}, "
                                         f"expected {want}")
        out = collections.OrderedDict()
        tensors, start = [], fh.tell()
        end = start
        for name, dtype, shape in headers:
            stored = np.dtype(_DTYPE_TAGS[dtype])
            arr = np.empty(shape, dtype) if into is None else into[name]
            tensors.append((name, arr, stored, end))
            end += math.prod(shape) * stored.itemsize
            out[name] = arr
        fd = fh.fileno()
        half = start + (end - start) // 2
        workers.in_parallel(lambda: _read_span(fd, path, tensors, start, half),
                            lambda: _read_span(fd, path, tensors, half, end))
        if os.pread(fd, 1, end):
            raise FormatError(f"{path}: trailing bytes after last tensor")
    return out


def _read_span(fd: int, path, tensors, lo: int, hi: int) -> None:
    """Read the file's bytes at positions [lo, hi) into ``tensors``, (name,
    array, stored dtype, position of its first byte) in file order: straight
    into each contiguous array of the stored dtype; any other array whole,
    through a copy, by the span its first byte lies in. ``FormatError``
    naming the tensor where the file ends early."""
    for name, arr, stored, pos in tensors:
        if arr.dtype == stored and arr.flags.c_contiguous:
            a, b = max(lo, pos), min(hi, pos + arr.nbytes)
            whole = a >= b or _read_at(
                fd, arr.reshape(-1).view(np.uint8)[a - pos:b - pos], a)
        elif lo <= pos < hi:
            raw = np.empty(arr.shape, stored)
            whole = _read_at(fd, raw.reshape(-1).view(np.uint8), pos)
            if whole:
                np.copyto(arr, raw)
        else:
            continue
        if not whole:
            raise FormatError(f"{path}: truncated tensor {name!r}")


def _read_at(fd: int, buf: np.ndarray, pos: int) -> bool:
    """Fill the bytes ``buf`` from the file at ``pos`` on, over as many
    reads as it takes; False if the file ends first."""
    done = 0
    while done < len(buf):
        got = os.preadv(fd, [buf[done:]], pos + done)
        if not got:
            return False
        done += got
    return True
