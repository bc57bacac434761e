"""Dense tensors with reverse-mode automatic differentiation.

Values are numpy arrays (float32 by default, float64 for gradient checking).
Ops executed while a ``Tape`` is active record themselves on it in creation
order, which is already a topological order; ``Tape.backward`` replays the
records once, in reverse, so gradient accumulation order is deterministic.
Ops executed with no active tape are plain forward computations.

Every op verifies its output is finite; NaN/Inf raises ``NumericsError``
rather than propagating silently.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ContractError, FormatError, NumericsError, ShapeError

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = "SYNGCN1"

# Toggle for the per-op finite check. Leave on: desk-scale runs are cheap and
# a poisoned tensor is much harder to debug three modules downstream.
FINITE_CHECKS = True


class Tensor:
    """A dense array plus the bookkeeping needed for reverse-mode autodiff.

    ``trainable`` leaves carry a ``name`` and collect gradients in ``grad``
    during ``Tape.backward``. Non-leaf tensors also use ``grad`` transiently
    while a backward pass runs.
    """

    __slots__ = ("data", "grad", "name", "trainable", "_needs_grad")

    def __init__(self, data, dtype=None, name: str | None = None,
                 trainable: bool = False):
        if dtype is None:
            if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
                dtype = data.dtype
            else:
                dtype = DEFAULT_DTYPE
        self.data = np.asarray(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.name = name
        self.trainable = trainable
        self._needs_grad = trainable

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
    """A trainable leaf tensor; ``name`` keys it in gradients/checkpoints."""
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


def _make(out_data: np.ndarray, inputs: tuple[Tensor, ...], op: str,
          backward: Callable[[np.ndarray], None]) -> Tensor:
    _check_finite(out_data, op)
    out = Tensor(out_data)
    tape = _ACTIVE_TAPE
    if tape is not None and any(t._needs_grad for t in inputs):
        out._needs_grad = True
        tape._record(out, inputs, backward)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t._needs_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad = t.grad + g


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
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

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


def sigmoid(x: Tensor) -> Tensor:
    """Overflow-safe logistic function, clamped into the open interval (0,1)."""
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    info = np.finfo(d.dtype)
    np.clip(out, info.tiny, 1.0 - info.epsneg, out=out)

    def backward(g):
        _accumulate(x, g * out * (1.0 - out))

    return _make(out, (x,), "sigmoid", backward)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def backward(g):
        _accumulate(x, g * (1.0 - out * out))

    return _make(out, (x,), "tanh", backward)


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
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        _accumulate(a, buf)

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
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place, over all trainable params."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        if not p.trainable:
            continue
        if name not in grads:
            raise ContractError(f"missing gradient for trainable parameter {name!r}")
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.data -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


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
    with open(path, "wb") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\t{len(items)}\n".encode("utf-8"))
        for name, arr in items:
            dims = ",".join(str(d) for d in arr.shape)
            fh.write(f"{name}\t{arr.dtype.name}\t{dims}\n".encode("utf-8"))
        for _, arr in items:
            fh.write(np.ascontiguousarray(arr).astype(
                _DTYPE_TAGS[arr.dtype.name], copy=False).tobytes())


def _header_fields(fh, path) -> list[str]:
    try:
        return fh.readline().decode("utf-8").rstrip("\n").split("\t")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: checkpoint header is not UTF-8") from None


def load_checkpoint(path) -> "collections.OrderedDict[str, np.ndarray]":
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
            headers.append((name, dtype, shape))
        out = collections.OrderedDict()
        for name, dtype, shape in headers:
            n = int(np.prod(shape)) if shape else 1
            raw = fh.read(n * np.dtype(_DTYPE_TAGS[dtype]).itemsize)
            arr = np.frombuffer(raw, dtype=_DTYPE_TAGS[dtype]).astype(dtype)
            if arr.size != n:
                raise FormatError(f"{path}: truncated tensor {name!r}")
            out[name] = arr.reshape(shape)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after last tensor")
    return out
