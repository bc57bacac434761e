import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from syngcn import numerics as nm, workers
from syngcn.errors import (ConfigError, ContractError, FormatError,
                           NumericsError, ShapeError)


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive triple loop in float64."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += float(a[i, l]) * float(b[l, j])
    return out


def masked_logistic(x: np.ndarray) -> np.ndarray:
    """The clamped logistic in its two-branch form: 1/(1+exp(-x)) on the
    x >= 0 entries, exp(x)/(1+exp(x)) on the others."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    info = np.finfo(x.dtype)
    return np.clip(out, info.tiny, 1.0 - info.epsneg)


@st.composite
def checkpoint_like_bytes(draw):
    """A SYNGCN1 manifest and header lines with drawn fields (counts,
    dtypes and dimensions mostly well formed, sizes up to 10**12), then
    drawn tensor bytes."""
    headers = draw(st.lists(st.tuples(
        st.sampled_from([b"w", b"b", b"w\tx", b"\xff"]),
        st.sampled_from([b"float32", b"float64", b"int8"]),
        st.lists(st.one_of(st.integers(0, 4), st.integers(-1, 10 ** 12)),
                 max_size=3)), max_size=3))
    count = len(headers) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    lines = [b"SYNGCN1\t%d" % count] + [
        b"\t".join([name, dtype, b",".join(b"%d" % d for d in dims)])
        for name, dtype, dims in headers]
    return b"\n".join(lines) + b"\n" + draw(st.binary(max_size=64))


class TestMatmul:
    def test_identity(self):
        a = nm.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = nm.Tensor(np.eye(2, dtype=np.float32))
        assert np.array_equal(nm.matmul(eye, a).data, a.data)

    def test_small_product(self):
        out = nm.matmul(nm.Tensor([[1.0, 2.0]]), nm.Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        got = nm.matmul(nm.Tensor(a), nm.Tensor(b)).data
        assert np.abs(got - matmul_oracle(a, b)).max() < 1e-6

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2**32 - 1))
    def test_random_shapes_match_oracle(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, (m, k)).astype(np.float32)
        b = rng.uniform(-2, 2, (k, n)).astype(np.float32)
        got = nm.matmul(nm.Tensor(a), nm.Tensor(b)).data
        assert np.abs(got - matmul_oracle(a, b)).max() < 1e-5

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nm.matmul(nm.Tensor(np.ones((2, 3))), nm.Tensor(np.ones((2, 3))))

    def test_gradient(self):
        a = nm.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), name="a",
                      trainable=True)
        b = nm.Tensor(np.array([[1.0], [1.0]]), name="b", trainable=True)
        with nm.Tape() as tape:
            loss = nm.sum_all(nm.matmul(a, b))
        tape.gradients(loss)
        assert np.array_equal(a.grad, np.ones((2, 2)))
        assert np.array_equal(b.grad, np.array([[4.0], [6.0]]))


class TestRelu:
    def test_sign_cases(self):
        out = nm.relu(nm.Tensor([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_all_negative(self):
        out = nm.relu(nm.Tensor(-np.ones((3, 4))))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_gradient_matches_finite_differences(self):
        # frozen central-difference oracle for sum(relu(x)) at [-1, 2]: [0, 1]
        x = nm.Tensor(np.array([[-1.0, 2.0]]), name="x", trainable=True)
        with nm.Tape() as tape:
            loss = nm.sum_all(nm.relu(x))
        tape.gradients(loss)
        assert np.array_equal(x.grad, np.array([[0.0, 1.0]]))

    def test_subgradient_at_zero_is_zero(self):
        x = nm.Tensor(np.array([[0.0]]), name="x", trainable=True)
        with nm.Tape() as tape:
            loss = nm.sum_all(nm.relu(x))
        tape.gradients(loss)
        assert x.grad[0, 0] == 0.0


class TestSigmoid:
    def test_symmetry_point(self):
        assert nm.sigmoid(nm.Tensor([[0.0]])).data[0, 0] == 0.5

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-30, 30))
    def test_complement_identity(self, x):
        a = nm.sigmoid(nm.Tensor([[x]], dtype=np.float64)).data[0, 0]
        b = nm.sigmoid(nm.Tensor([[-x]], dtype=np.float64)).data[0, 0]
        assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_large_inputs_stay_inside_open_interval(self):
        for dtype in (np.float32, np.float64):
            out = nm.sigmoid(nm.Tensor([[-50.0, 50.0, -500.0, 500.0]],
                                       dtype=dtype)).data
            assert np.isfinite(out).all()
            assert (out > 0.0).all() and (out < 1.0).all()

    def test_matches_high_precision_oracle(self):
        xs = np.array([[-50.0, -5.0, -0.5, 0.5, 5.0, 50.0]], dtype=np.float32)
        got = nm.sigmoid(nm.Tensor(xs)).data
        want = np.array([1.0 / (1.0 + math.exp(-float(v))) for v in xs[0]])
        assert np.abs(got - want).max() < 1e-6


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_masked_two_branch_form(self, dtype):
        rng = np.random.default_rng(8)
        # subnormals: the smallest one and half the smallest normal
        tiny, normal = np.finfo(dtype).smallest_subnormal, np.finfo(dtype).tiny
        x = np.concatenate([rng.standard_normal(4099) * scale
                            for scale in (1e-3, 1.0, 30.0, 1e3)]
                           + [[0.0, -0.0, np.inf, -np.inf, tiny, -tiny,
                               normal / 2, -normal / 2]]).astype(dtype)
        got = nm.sigmoid(nm.Tensor(x.reshape(4, -1))).data.reshape(-1)
        assert got.tobytes() == masked_logistic(x).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_strided_gate_block_as_bilstm_passes_it(self, dtype):
        # z[:, s, :3d] of a [2 x N x 4d] pre-activation array: a view with
        # a gap between rows and between the two directions
        rng = np.random.default_rng(9)
        d = 5
        z = (rng.standard_normal((2, 7, 4 * d)) * 20).astype(dtype)
        z[0, 2, :4] = [0.0, -0.0, np.inf, -np.inf]
        block = z[:, 1:5, :3 * d]
        assert not block.flags.c_contiguous
        got = nm._logistic(block)
        assert got.shape == block.shape and got.dtype == dtype
        assert got.tobytes() == masked_logistic(block.copy()).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(max_dims=3,
                                                         max_side=9),
                                 elements=st.floats(
                                     width=np.finfo(dtype).bits))))
    def test_drawn_arrays_match_two_branch_form(self, x):
        # NaN inputs included: NaN out at exactly their places, the rest
        # bitwise equal
        got, want = nm._logistic(x), masked_logistic(x)
        assert got.dtype == x.dtype
        assert np.array_equal(np.isnan(got), np.isnan(x))
        keep = ~np.isnan(x)
        assert got[keep].tobytes() == want[keep].tobytes()


class TestSoftmaxCrossEntropy:
    def test_uniform_case(self):
        loss = nm.softmax_cross_entropy(nm.Tensor([[1.0, 1.0, 1.0, 1.0]]), 2)
        assert float(loss.data) == pytest.approx(math.log(4.0), abs=1e-6)

    def test_confident_case(self):
        # high-precision value of -log(e^10 / (e^10 + 1)) = log1p(e^-10)
        loss = nm.softmax_cross_entropy(
            nm.Tensor([[10.0, 0.0]], dtype=np.float64), 0)
        assert float(loss.data) == pytest.approx(4.539889921686465e-05,
                                                 rel=1e-9)

    def test_gold_out_of_range(self):
        with pytest.raises(IndexError):
            nm.softmax_cross_entropy(nm.Tensor([[0.0, 1.0]]), 2)
        with pytest.raises(IndexError):
            nm.softmax_cross_entropy(nm.Tensor([[0.0, 1.0]]), -1)

    def test_gradient_matches_central_differences(self):
        store = store_of(l=np.array([[0.3, -1.2, 2.0]]))
        result = nm.grad_check(
            lambda: nm.softmax_cross_entropy(store["l"], 1), store)
        assert result.max_rel_err < 1e-4

    def test_rows_version_matches_single(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((4, 5))
        golds = [1, 0, 4, 2]
        total = nm.cross_entropy_rows(nm.Tensor(logits, dtype=np.float64),
                                      golds)
        singles = sum(
            float(nm.softmax_cross_entropy(
                nm.Tensor(logits[i:i + 1], dtype=np.float64), golds[i]).data)
            for i in range(4))
        assert float(total.data) == pytest.approx(singles, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_softmax_rows_is_a_distribution(self, n, seed):
        rng = np.random.default_rng(seed)
        probs = nm.softmax_rows(rng.uniform(-30, 30, (3, n)).astype(np.float32))
        assert (probs >= 0).all()
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-6


def reference_adam(w0: float, grad_fn, steps: int, lr=0.01, b1=0.9, b2=0.999,
                   eps=1e-8) -> list[float]:
    """Independent scalar Adam, written out step by step."""
    w, m, v = w0, 0.0, 0.0
    history = []
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        history.append(w)
    return history


def textbook_adam(params: dict, grads: dict, m: dict, v: dict, step: int,
                  lr: float) -> None:
    """The textbook Adam update, tensor by tensor on separate arrays."""
    bc1, bc2 = 1.0 - 0.9 ** step, 1.0 - 0.999 ** step
    for k, g in grads.items():
        m[k] *= 0.9
        m[k] += (1.0 - 0.9) * g
        v[k] *= 0.999
        v[k] += (1.0 - 0.999) * (g * g)
        params[k] -= lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)


def grads_or_zeros(params: dict) -> dict:
    """Each tensor's gradient by name, zeros for one the loss did not reach."""
    return {k: np.zeros_like(t.data) if t.grad is None else t.grad
            for k, t in params.items()}


def flat_of(arrays: dict) -> np.ndarray:
    """The arrays end to end, in order: for a store's tensors, laid out as
    ``store.flat``."""
    return np.concatenate([a.reshape(-1) for a in arrays.values()])


def named(store: nm.ParamStore, flat: np.ndarray) -> dict:
    """``flat``, an array laid out as ``store.flat``, read by tensor name."""
    return {k: flat[lo:lo + math.prod(shape)].reshape(shape)
            for k, (lo, shape) in store.layout.items()}


def fuses(dtype) -> bool:
    """Whether a batch-size-1 step of a store of ``dtype`` wider than one
    Adam block takes the gradients of the tensors that are one product
    straight from the product here: float32, on a core that cuts products
    exactly (``workers.EXACT_CORES``)."""
    return np.dtype(dtype) == np.float32 and workers.exact_cuts()


def store_of(dtype=np.float64, **arrays) -> nm.ParamStore:
    """A store holding one parameter per keyword, in order, filled with its
    value."""
    store = nm.ParamStore([(name, np.shape(a)) for name, a in arrays.items()],
                          dtype)
    for name, a in arrays.items():
        store[name].data[...] = a
    return store


def step_on(store: nm.ParamStore, grads: dict, lr=0.01) -> None:
    """One Adam step of ``store`` whose gradient is ``grads[name]`` for each
    tensor named there and zero for the others: the step of the loss
    sum(p * g) over them, whose gradient is g bit for bit."""
    loss = nm.Tensor(np.zeros((), store.dtype))
    with nm.Tape() as tape:
        for k, g in grads.items():
            loss = loss + nm.sum_all(nm.mul(store[k], nm.Tensor(
                np.asarray(g, store.dtype))))
    tape.gradients(loss, store, lr)


class TestAdam:
    def test_zero_gradients_fixed_point(self):
        store = store_of(w=np.ones((2, 2)))
        step_on(store, {})
        assert np.array_equal(store["w"].data, np.ones((2, 2)))
        assert store.step_count == 1

    def test_first_step_magnitude(self):
        # |update| = lr * g / (sqrt(g^2) + eps) ~= lr for g = 1
        store = store_of(w=np.full((3,), 5.0))
        step_on(store, {"w": np.ones(3)})
        assert np.abs(store["w"].data - (5.0 - 0.01)).max() < 1e-8

    def test_quadratic_convergence_run(self):
        store = store_of(w=np.array([1.0]))
        p = store["w"]
        ours = []
        for _ in range(100):
            step_on(store, {"w": p.data * 2.0})
            ours.append(float(p.data[0]))
        want = reference_adam(1.0, lambda w: 2.0 * w, 100)
        assert np.abs(np.array(ours) - np.array(want)).max() < 1e-12
        # strict monotone descent toward 0 (never overshoots at this rate)
        path = [1.0] + ours
        assert all(b < a for a, b in zip(path, path[1:]))
        assert 0.0 < ours[-1] < 0.3
        assert store.step_count == 100

    def test_foreign_buffers_leave_the_state_alone(self):
        ours = store_of(w=np.ones(2))
        step_on(ours, {})
        m, v = ours.m, ours.v
        # a dict of tensors is not a store
        with pytest.raises(ContractError, match="ParamStore"):
            nm.adam_step(dict(ours), 0.01, (0, 2))
        assert ours.step_count == 1
        assert ours.m is m and ours.v is v

    def test_store_without_gradients_is_refused(self):
        store = nm.ParamStore([("w", (2,))], np.float64)
        with pytest.raises(ContractError, match="no gradient window"):
            nm.adam_step(store, 0.01, (0, 2))
        assert store.step_count == 0 and store.m is None and store.v is None

    def test_span_before_the_first_step_is_refused(self):
        # a pass that sums gives the store its window, but takes no step
        store = store_of(w=np.ones(3))
        with nm.Tape() as tape:
            loss = nm.sum_all(store["w"])
        tape.gradients(loss, store)
        assert store.window.size == store.size
        with pytest.raises(ContractError, match="first step"):
            nm.adam_step(store, 0.01, (0, 3))
        assert store.step_count == 0 and store.m is None
        assert np.array_equal(store["w"].data, np.ones(3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_textbook_update(self, dtype):
        # one tensor spans several blocks and ends in a partial one
        shapes = {"a": (3, 5), "b": (2 * nm._ADAM_BLOCK + 7,), "c": (1, 1),
                  "d": (130, 257)}
        rng = np.random.default_rng(11)
        start = {k: rng.standard_normal(s).astype(dtype)
                 for k, s in shapes.items()}
        store = store_of(dtype, **start)
        p_ref = {k: a.copy() for k, a in start.items()}
        m_ref = {k: np.zeros_like(a) for k, a in start.items()}
        v_ref = {k: np.zeros_like(a) for k, a in start.items()}
        for step in range(1, 6):
            grads = {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3))
                     .astype(dtype) for k, s in shapes.items()}
            step_on(store, grads)
            textbook_adam(p_ref, grads, m_ref, v_ref, step, 0.01)
        for k in shapes:
            assert store[k].data.tobytes() == p_ref[k].tobytes(), k
            assert named(store, store.m)[k].tobytes() == m_ref[k].tobytes(), k
            assert named(store, store.v)[k].tobytes() == v_ref[k].tobytes(), k
        assert store.step_count == 5

    def test_second_moment_nonnegative(self):
        store = store_of(w=np.ones(4))
        rng = np.random.default_rng(1)
        for _ in range(20):
            step_on(store, {"w": rng.standard_normal(4)})
        assert (store.v >= 0).all()


class TestParamStore:
    SHAPES = {"w": (5, 4), "table": (6, 5),
              **{f"lstm.{side}.{k}": shape for side in ("fw", "bw")
                 for k, shape in zip("wub", [(4, 12), (3, 12), (1, 12)])},
              "unused": (2, 3), "dead": (2, 2), "sometimes": (1, 3)}

    def _start(self, dtype):
        rng = np.random.default_rng(3)
        return {k: rng.uniform(-0.5, 0.5, s).astype(dtype)
                for k, s in self.SHAPES.items()}

    @staticmethod
    def _loss(p, x, step):
        # the table is gathered twice, with repeated rows, and w multiplied
        # twice, so both get a later contribution added to their first; on
        # even steps "dead" is used off the loss's path and "sometimes" not
        # at all, so a step must zero their slices of the window, which
        # still hold the odd step's gradient
        e = nm.rows(p["table"], [0, 2, 2, 5]) + nm.rows(p["table"], [1, 2, 0, 0])
        fw, bw = (tuple(p[f"lstm.{side}.{k}"] for k in "wub")
                  for side in ("fw", "bw"))
        h = nm.bilstm_layer(e @ p["w"], fw, bw, [3, 1])
        loss = nm.sum_all(nm.relu(h @ x)) + nm.sum_all(e @ p["w"])
        dead = nm.mul(p["dead"], p["dead"])
        if step % 2:
            loss = loss + nm.sum_all(dead) + nm.sum_all(p["sometimes"])
        return loss

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_steps_match_per_tensor_copies(self, dtype):
        # w is read by the first node and the last, so the tape does not go
        # down the store: each step sums in a window over the whole store
        start = self._start(dtype)
        store = store_of(dtype, **start)
        ours = dict(store)
        ref = {k: nm.Tensor(a.copy(), name=k, trainable=True)
               for k, a in start.items()}
        ref_m = {k: np.zeros_like(a) for k, a in start.items()}
        ref_v = {k: np.zeros_like(a) for k, a in start.items()}
        x = nm.Tensor(np.random.default_rng(4).uniform(-1, 1, (6, 2)), dtype)
        for step in range(1, 5):
            with nm.Tape() as tape:
                loss = self._loss(ours, x, step)
            tape.gradients(loss, store, 0.01)
            assert store.window.size == store.size
            grads = named(store, store.window)
            assert not grads["unused"].any()
            assert grads["dead"].any() == grads["sometimes"].any() == step % 2
            assert all(t.grad is None for t in ours.values())

            for t in ref.values():
                t.grad = None
            with nm.Tape() as tape:
                loss = self._loss(ref, x, step)
            tape.gradients(loss)
            assert ref["unused"].grad is None
            textbook_adam({k: t.data for k, t in ref.items()},
                          grads_or_zeros(ref), ref_m, ref_v, step, 0.01)
            for k in start:
                assert ours[k].data.tobytes() == ref[k].data.tobytes(), (step, k)
                assert named(store, store.m)[k].tobytes() == \
                    ref_m[k].tobytes(), (step, k)
                assert named(store, store.v)[k].tobytes() == \
                    ref_v[k].tobytes(), (step, k)
            assert store.step_count == step

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_passes_are_collected_as_their_sum(self, dtype):
        # step 1 reaches "dead" and "sometimes", step 2 neither; "unused" is
        # reached by no pass, and the window starts dirty to show that a
        # pass writes a tensor's first gradient, not adds to what was there
        start = self._start(dtype)
        store = store_of(dtype, **start)
        ours = dict(store)
        x = nm.Tensor(np.random.default_rng(4).uniform(-1, 1, (6, 2)), dtype)
        separate = []
        for step in (1, 2):
            with nm.Tape() as tape:
                loss = self._loss(ours, x, step)
            tape.gradients(loss)
            separate.append({k: g.copy() for k, g in
                             grads_or_zeros(ours).items()})
            for t in ours.values():
                t.grad = None
        store.window = np.full(store.size, np.nan, dtype)
        for step in (1, 2):
            with nm.Tape() as tape:
                loss = self._loss(ours, x, step)
            tape.gradients(loss, store)
        window = named(store, store.window)
        assert store.window.size == store.size
        for k, t in ours.items():
            assert (t.grad is None) == (k == "unused"), k
            if t.grad is not None:
                assert np.shares_memory(t.grad, store.window)
                assert t.grad.tobytes() == window[k].tobytes(), k
        summed = {k: separate[0][k] + separate[1][k] for k in start}
        # a tensor with one contribution per pass gets the same sum bit for
        # bit; the table and w get two per pass, added one by one
        for k in [k for k in start if k.startswith("lstm.")] + ["dead",
                                                               "sometimes"]:
            assert window[k].tobytes() == summed[k].tobytes(), k
        reached = [k for k in start if k != "unused"]
        np.testing.assert_allclose(
            flat_of({k: window[k] for k in reached}),
            flat_of({k: summed[k] for k in reached}),
            rtol=1e-5 if dtype == np.float32 else 1e-12)
        assert store.step_count == 0 and store.m is None

    def test_tensors_are_views_of_one_array(self):
        start = self._start(np.float32)
        store = nm.ParamStore([(k, a.shape) for k, a in start.items()],
                              np.float32)
        assert list(store) == list(start)
        assert not store.flat.any()
        lo = 0
        for k, t in store.items():
            assert store.layout[k] == (lo, start[k].shape)
            assert t.shape == start[k].shape and t.trainable and t.name == k
            assert np.shares_memory(t.data, store.flat)
            t.data[...] = start[k]
            lo += start[k].size
        assert store.size == store.flat.size == lo
        assert store.flat.tobytes() == b"".join(
            a.tobytes() for a in start.values())
        # a pass that sums gives each tensor the slice of the window its
        # layout gives it in the store
        with nm.Tape() as tape:
            loss = nm.Tensor(np.zeros((), np.float32))
            for k, t in store.items():
                loss = loss + nm.sum_all(nm.mul(t, nm.Tensor(
                    np.full(t.shape, store.layout[k][0], np.float32))))
        tape.gradients(loss, store)
        assert store.window.shape == store.flat.shape
        for k, g in named(store, store.window).items():
            assert store[k].grad.base is store.window
            assert g.tobytes() == np.full(start[k].shape, store.layout[k][0],
                                          np.float32).tobytes()

    def test_oversized_store_refused_before_allocating(self):
        layout = [("a", (1 << 14, 1 << 14)), ("b", (1,))]
        with pytest.raises(ConfigError, match=r"268,435,457 trainable"):
            nm.ParamStore(layout, np.float32)

    def test_layout_read_no_further_than_the_caps(self):
        # lazy layouts, read only up to the tensor that crosses a cap: the
        # 257th of 2^20 elements, the 65,537th of one element
        wide = ((f"p{i}", (1 << 20,)) for i in range(300))
        with pytest.raises(ConfigError, match=r"269,484,032 trainable "
                           r"parameters, .* \(counted up to 'p256'\)"):
            nm.ParamStore(wide, np.float32)
        assert next(wide) == ("p257", (1 << 20,))
        narrow = ((f"p{i}", (1,)) for i in range(nm.MAX_TENSORS + 10))
        with pytest.raises(ConfigError, match="more than 65,536 trainable "
                           "tensors"):
            nm.ParamStore(narrow, np.float32)
        assert next(narrow) == ("p65537", (1,))

    def test_name_taken_twice_rejected(self):
        with pytest.raises(ContractError, match="'p' is listed twice"):
            nm.ParamStore([("p", (2,)), ("q", (1,)), ("p", (2,))], np.float32)


class TestFusedAdamStep:
    """``Tape.gradients(loss, store, lr)``, the backward pass that is also the
    store's Adam step, against the textbook Adam on per-tensor copies."""

    LSTM = {f"lstm.{side}.{k}": shape for side in ("fw", "bw")
            for k, shape in zip("wub", [(4, 12), (3, 12), (1, 12)])}
    # in forward order, so the tape goes down the store; "unused" lies in
    # the BiLSTM's chunk, "sometimes" in "dead"'s on even steps
    SWEPT = {"table": (6, 5), "w": (5, 4), **LSTM, "unused": (2, 3),
             "dead": (2, 2), "sometimes": (1, 3)}

    @staticmethod
    def _swept_loss(p, x, step):
        # every node reads tensors below those of the nodes after it; on
        # odd steps the loss reaches "dead" and "sometimes", on even steps
        # "dead" is used off its path and "sometimes" not at all
        e = nm.rows(p["table"], [0, 2, 2, 5, 1])
        fw, bw = (tuple(p[f"lstm.{side}.{k}"] for k in "wub")
                  for side in ("fw", "bw"))
        h = nm.bilstm_layer(e @ p["w"], fw, bw, [3, 2])
        loss = nm.sum_all(nm.relu(h @ x))
        dead = nm.mul(p["dead"], p["dead"])
        if step % 2:
            loss = loss + nm.sum_all(dead) + nm.sum_all(p["sometimes"])
        return loss

    @staticmethod
    def _shared_loss(p, x, step):
        # w feeds the first and the last node
        fw, bw = (tuple(p[f"lstm.{side}.{k}"] for k in "wub")
                  for side in ("fw", "bw"))
        h = nm.bilstm_layer(x @ p["w"], fw, bw, [3, 2])
        return nm.sum_all(h) + nm.sum_all(x @ p["w"])

    @staticmethod
    def _fused_against_reference(monkeypatch, dtype, shapes, loss, x_shape,
                                 steps, passes=1, block=16):
        """Run ``steps`` steps of ``loss`` on a store of ``shapes``, each made
        by the last of ``passes`` backward passes (a tuple: per step), the
        earlier ones given the store alone, and the textbook Adam on
        per-tensor copies of it,
        on the sum of each tensor's gradients over the passes; assert each
        tensor's bytes, and its moments', equal after each step, and return
        the store and the spans its Adam calls took."""
        rng = np.random.default_rng(8)
        start = {k: rng.uniform(-0.5, 0.5, s).astype(dtype)
                 for k, s in shapes.items()}
        x = nm.Tensor(rng.uniform(-1, 1, x_shape), dtype)
        fused = store_of(dtype, **start)
        ref = {k: nm.Tensor(a.copy(), name=k, trainable=True)
               for k, a in start.items()}
        ref_m = {k: np.zeros_like(a) for k, a in start.items()}
        ref_v = {k: np.zeros_like(a) for k, a in start.items()}
        # a block of 16, far below the store: the window holds the widest
        # chunk only
        monkeypatch.setattr(nm, "_ADAM_BLOCK", block)
        spans, adam_step = [], nm.adam_step

        def recording_step(store, lr, span, product=None):
            spans.append(span)
            adam_step(store, lr, span, product)

        monkeypatch.setattr(nm, "adam_step", recording_step)
        counts = passes if isinstance(passes, tuple) else (passes,) * steps
        for step, passes in enumerate(counts, start=1):
            for t in ref.values():
                t.grad = None
            for i in range(passes):
                with nm.Tape() as tape:
                    got = loss(fused, x, step + i)
                tape.gradients(got, fused, 0.01 if i == passes - 1 else None)
                with nm.Tape() as tape:
                    want = loss(ref, x, step + i)
                tape.gradients(want)
                assert got.data.tobytes() == want.data.tobytes(), (step, i)
            textbook_adam({k: t.data for k, t in ref.items()},
                          grads_or_zeros(ref), ref_m, ref_v, step, 0.01)
            for k in shapes:
                for a, b in [(fused[k].data, ref[k].data),
                             (named(fused, fused.m)[k], ref_m[k]),
                             (named(fused, fused.v)[k], ref_v[k])]:
                    assert a.tobytes() == b.tobytes(), (step, k)
            assert fused.step_count == step
            assert all(t.grad is None for t in fused.values())
        return fused, spans

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensor_fed_to_two_nodes_gets_its_summed_gradient(
            self, monkeypatch, dtype):
        # the tape does not go down the store, so the whole store is one
        # chunk, summed in a window that covers it and flushed at the end,
        # with w at the bottom of the store or at its top (where a flush
        # before the last node would take it), and a block below the store
        # or above it
        for shapes in ({"w": (3, 4), **self.LSTM}, {**self.LSTM, "w": (3, 4)}):
            for block in (16, 1 << 16):
                with monkeypatch.context() as patched:
                    store, spans = self._fused_against_reference(
                        patched, dtype, shapes, self._shared_loss, (5, 3), 3,
                        block=block)
                assert store.window.size == store.size
                assert spans == [(0, store.size)] * 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tensor_reached_one_step_and_not_the_next(self, monkeypatch,
                                                      dtype):
        # "sometimes" is consumed on odd steps only, "dead" by a node that
        # the loss reaches on odd steps only, "unused" never: each gets a
        # zero gradient when nothing reaches it
        store, spans = self._fused_against_reference(
            monkeypatch, dtype, self.SWEPT, self._swept_loss, (6, 2), 4)
        # each BiLSTM stage owns one tensor's chunk (its first also "unused",
        # below "dead"): the widest holds a direction's w, unless each u
        # and w is fused and so takes no room in the window, which then
        # holds the widest other chunk, the table's
        assert (store.window.size, store.size) == (
            (30, 255) if fuses(dtype) else (48, 255))
        assert spans == self.SPANS[fuses(dtype)] * 4

    # the spans of one step of the swept loss, from the top. Unfused:
    # "sometimes", "dead" and the bw x-and-b stage's chunk when bw u does
    # not fit below them, then one span per stage down to w and the table
    # at the end. Fused: the same chunk flushed before the fused bw u, then
    # bw u and w from their products, fw b before fw u and w, then w and the
    # table
    SPANS = {False: [(230, 255), (194, 230), (146, 194), (98, 146),
                     (50, 98), (30, 50), (0, 30)],
             True: [(230, 255), (194, 230), (146, 194), (134, 146),
                    (98, 134), (50, 98), (30, 50), (0, 30)]}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_passes_with_the_store_then_a_step_match_reference(
            self, monkeypatch, dtype):
        # after one step through a window with room for the widest unfused
        # chunk, two passes given the store alone, then one given the
        # learning rate, per step: the first pass grows the window to cover
        # the store, so each step flushes it once, at its end, on the three
        # passes' sum, and fuses nothing; "unused", which no pass reaches,
        # steps on zeros
        store, spans = self._fused_against_reference(
            monkeypatch, dtype, self.SWEPT, self._swept_loss, (6, 2), 3,
            passes=(1, 3, 3))
        assert store.window.size == store.size
        assert spans == self.SPANS[fuses(dtype)] + [(0, store.size)] * 2

    def test_loss_reaching_no_store_tensor_steps_on_zeros(self, monkeypatch):
        def loss(p, x, step):
            free = nm.Tensor(np.ones(x.shape, x.dtype), trainable=True)
            return nm.sum_all(nm.mul(free, x))

        store, spans = self._fused_against_reference(
            monkeypatch, np.float64, self.SWEPT, loss, (6, 2), 2)
        assert store.window.size == store.size
        assert spans == [(0, 255)] * 2

    def test_tensors_below_every_input_join_the_last_chunk(self,
                                                           monkeypatch):
        # no node reads "below": the table's chunk reaches down over it, so
        # the window has room for both, and the rest fits above them; fused
        # u and w flush what is pending above them, so the chunks above the
        # table go one by one
        store, spans = self._fused_against_reference(
            monkeypatch, np.float32, {"below": (10, 20), **self.SWEPT},
            self._swept_loss, (6, 2), 2)
        assert (store.window.size, store.size) == (230, 455)
        want = ([(a + 200, b + 200) for a, b in self.SPANS[True][:-1]]
                if fuses(np.float32) else [(230, 455)])
        assert spans == (want + [(0, 230)]) * 2

    def test_gradient_left_by_a_pass_without_the_store_is_stepped(
            self, monkeypatch):
        # the first pass leaves its gradients in the tensors' grads, the
        # second adds to them and steps on the sum
        monkeypatch.setattr(nm, "_ADAM_BLOCK", 16)
        rng = np.random.default_rng(5)
        start = {k: rng.uniform(-0.5, 0.5, s) for k, s in self.SWEPT.items()}
        fused = store_of(np.float64, **start)
        ref = {k: nm.Tensor(a.copy(), name=k, trainable=True)
               for k, a in start.items()}
        x = nm.Tensor(rng.uniform(-1, 1, (6, 2)))
        for params, last in [(fused, (fused, 0.01)), (ref, ())]:
            for step, args in [(1, ()), (2, last)]:
                with nm.Tape() as tape:
                    loss = self._swept_loss(params, x, step)
                tape.gradients(loss, *args)
        ref_m = {k: np.zeros_like(a) for k, a in start.items()}
        ref_v = {k: np.zeros_like(a) for k, a in start.items()}
        textbook_adam({k: t.data for k, t in ref.items()},
                      grads_or_zeros(ref), ref_m, ref_v, 1, 0.01)
        assert fused.window.size < fused.size
        for k in self.SWEPT:
            assert fused[k].data.tobytes() == ref[k].data.tobytes(), k
            assert named(fused, fused.m)[k].tobytes() == ref_m[k].tobytes(), k
            assert named(fused, fused.v)[k].tobytes() == ref_v[k].tobytes(), k
        assert all(t.grad is None for t in fused.values())

    def test_window_is_reused_across_steps(self, monkeypatch):
        store, _ = self._fused_against_reference(
            monkeypatch, np.float32, self.SWEPT, self._swept_loss, (6, 2), 1)
        window = store.window
        x = nm.Tensor(np.ones((6, 2), np.float32))
        with nm.Tape() as tape:
            loss = self._swept_loss(store, x, 2)
        tape.gradients(loss, store, 0.01)
        assert store.window is window

    def test_a_step_needs_a_learning_rate_with_the_store(self):
        store = store_of(w=np.ones((1, 2)))
        with nm.Tape() as tape:
            loss = nm.sum_all(store["w"])
        with pytest.raises(ContractError, match="store and a learning"):
            tape.gradients(loss, None, 0.01)
        assert store.step_count == 0 and store.window is None
        # the store alone is a pass that sums in its window, not a step
        tape.gradients(loss, store)
        assert store.step_count == 0 and store.m is None
        assert np.shares_memory(store["w"].grad, store.window)
        assert store["w"].grad.tobytes() == np.ones((1, 2)).tobytes()

    def test_span_refused_outside_the_window_before_any_write(
            self, monkeypatch):
        store = self._swept_store(monkeypatch)
        # the last flush leaves the window over [0, 48) of the store
        assert (store._base, store.window.size, store.size) == (0, 48, 255)
        before = [a.tobytes() for a in (store.flat, store.m, store.v,
                                        store.window)]
        for span in [(47, 49), (40, 39), (-1, 2), (250, 256)]:
            with pytest.raises(ContractError, match="not inside"):
                nm.adam_step(store, 0.01, span)
        assert [a.tobytes() for a in (store.flat, store.m, store.v,
                                      store.window)] == before
        assert store.step_count == 1

    def _swept_store(self, monkeypatch):
        """A store after one fused step through a window smaller than it."""
        monkeypatch.setattr(nm, "_ADAM_BLOCK", 16)
        store = nm.ParamStore(self.SWEPT.items(), np.float64)
        x = nm.Tensor(np.ones((6, 2)))
        with nm.Tape() as tape:
            loss = self._swept_loss(store, x, 1)
        tape.gradients(loss, store, 0.01)
        assert store.window.size < store.size
        return store


class TestTape:
    def test_backward_runs_once(self):
        x = nm.Tensor(np.array([[2.0]]), name="x", trainable=True)
        with nm.Tape() as tape:
            loss = nm.sum_all(x * x)
        assert tape.gradients(loss) is None
        with pytest.raises(ContractError):
            tape.gradients(loss)

    def test_scalar_required(self):
        x = nm.Tensor(np.ones((2, 2)), name="x", trainable=True)
        with nm.Tape() as tape:
            y = x * x
        with pytest.raises(ShapeError):
            tape.gradients(y)

    def test_gradient_accumulates_over_reuse(self):
        x = nm.Tensor(np.array([[3.0]]), name="x", trainable=True)
        with nm.Tape() as tape:
            loss = nm.sum_all(x * x + x * x)   # d/dx = 4x
        tape.gradients(loss)
        assert x.grad[0, 0] == pytest.approx(12.0)

    def test_standalone_leaf_accumulates_over_passes(self):
        x = nm.Tensor(np.array([[3.0]]), name="x", trainable=True)
        for _ in range(2):
            with nm.Tape() as tape:
                loss = nm.sum_all(x * x)       # d/dx = 2x per pass
            tape.gradients(loss)
        assert x.grad[0, 0] == pytest.approx(12.0)

    def test_nested_tapes_rejected(self):
        with nm.Tape():
            with pytest.raises(ContractError):
                with nm.Tape():
                    pass

    def test_no_tape_means_no_recording(self):
        x = nm.Tensor(np.array([[1.0]]), name="x", trainable=True)
        y = x * x
        assert y.grad is None and not y._needs_grad


class TestFiniteChecks:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises(self):
        big = nm.Tensor(np.full((2, 2), 1e30, dtype=np.float32))
        with pytest.raises(NumericsError):
            nm.mul(big, big)

    def test_scalar_ops_keep_float64(self):
        a = nm.Tensor(np.asarray(0.1, dtype=np.float64))
        assert (a + a).dtype == np.float64
        assert (a * a).dtype == np.float64

    def test_dtype_mismatch_rejected(self):
        a = nm.Tensor(np.ones((1, 1), dtype=np.float32))
        b = nm.Tensor(np.ones((1, 1), dtype=np.float64))
        with pytest.raises(ShapeError):
            nm.add(a, b)


class TestGradCheck:
    def test_quadratic_bowl(self):
        store = store_of(w=np.array([[0.4, -1.3, 2.2]]))
        w = store["w"]
        result = nm.grad_check(lambda: nm.sum_all(w * w), store)
        assert result.max_rel_err < 1e-8
        assert result.skipped == 0
        assert result.checked == 3
        # checking gradients never steps the store, so it gets no moments
        assert (store.m, store.v, store.step_count) == (None, None, 0)

    def test_tensor_the_pass_misses_reads_zero(self):
        # an earlier pass left a gradient for "unused" in the window; the
        # check drops it, and its own pass does not reach "unused"
        store = store_of(w=np.array([[0.4, -1.3]]), unused=np.ones(3))
        w, unused = store["w"], store["unused"]
        with nm.Tape() as tape:
            loss = nm.sum_all(unused * unused)
        tape.gradients(loss, store)
        result = nm.grad_check(lambda: nm.sum_all(w * w), store)
        assert (result.checked, result.skipped) == (5, 0)
        assert result.max_rel_err < 1e-8
        assert named(store, store.window)["unused"].tobytes() == \
            np.zeros(3).tobytes()

    def test_kink_entries_skipped_and_counted(self):
        store = store_of(x=np.array([[-1.0, 2.0, 1e-5, -5e-5, 0.5]]))
        x = store["x"]
        result = nm.grad_check(lambda: nm.sum_all(nm.relu(x)), store)
        assert result.skipped == 2        # the two |x| < 1e-4 entries
        assert result.checked == 3
        assert result.max_rel_err < 1e-8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_objective_names_parameter(self):
        # finite at the base point (relu output 0), overflows at w + h
        store = store_of(ok=np.array([[1.0]]), bad_param=np.array([[0.5]]))
        w = store["bad_param"]
        big = nm.Tensor(np.full((1, 1), 1e160), dtype=np.float64)
        half = nm.Tensor(np.full((1, 1), 0.5), dtype=np.float64)

        def f():
            spike = nm.mul(nm.relu(w - half), big)
            return nm.sum_all(nm.mul(spike, spike))

        with pytest.raises(NumericsError, match="bad_param"):
            nm.grad_check(f, store)

    def test_failed_evaluation_restores_the_element(self):
        # f fails at w + h: the element must read its own value afterwards
        store = store_of(w=np.array([0.5]))
        w = store["w"]

        def f():
            if w.data[0] != 0.5:
                raise NumericsError("non-finite values produced by mul")
            return nm.sum_all(w * w)

        with pytest.raises(NumericsError, match="'w'"):
            nm.grad_check(f, store)
        assert w.data[0] == 0.5


class TestCheckpointContainer:
    def test_save_load_save_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(5)
        tensors = {
            "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
            "b.bias": rng.standard_normal((1, 4)).astype(np.float64),
        }
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        nm.save_checkpoint(tensors, p1)
        loaded = nm.load_checkpoint(p1)
        nm.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for name, arr in tensors.items():
            assert np.array_equal(loaded[name], arr)
            assert loaded[name].dtype == arr.dtype

    def test_load_into_arrays(self, tmp_path):
        rng = np.random.default_rng(6)
        saved = {"a": rng.standard_normal((3, 4)).astype(np.float32),
                 "b": rng.standard_normal((5,)), "c": np.zeros((0, 2))}
        path = tmp_path / "m.ckpt"
        nm.save_checkpoint(saved, path)
        flat = np.full(12, np.nan, np.float32)
        into = {"a": flat.reshape(3, 4), "b": np.empty(10)[::2],
                "c": np.empty((0, 2))}
        loaded = nm.load_checkpoint(path, into=into)
        assert all(loaded[k] is into[k] for k in saved)
        assert flat.tobytes() == saved["a"].tobytes()
        # a non-contiguous target is filled through a copy
        assert into["b"].tobytes() == saved["b"].tobytes()

    @pytest.mark.parametrize("into,match", [
        ({"a": np.empty((3, 4), np.float32), "b": np.empty(5),
          "x": np.empty(1)},
         r"tensor 3 is nothing, expected \('x', 'float64', \(1,\)\)"),
        ({"a": np.empty((3, 4), np.float32)},
         r"tensor 2 is \('b', 'float64', \(5,\)\), expected nothing"),
        ({"a": np.empty((4, 3), np.float32), "b": np.empty(5)},
         r"tensor 1 is \('a', 'float32', \(3, 4\)\), expected "
         r"\('a', 'float32', \(4, 3\)\)"),
        ({"b": np.empty(5), "a": np.empty((3, 4), np.float32)},
         r"tensor 1 is \('a', 'float32', \(3, 4\)\), expected "
         r"\('b', 'float64', \(5,\)\)"),
        ({"a": np.empty((3, 4), np.float32), "b": np.empty(5, np.float32)},
         r"tensor 2 is \('b', 'float64', \(5,\)\), expected "
         r"\('b', 'float32', \(5,\)\)"),
    ], ids=["missing", "unexpected", "shape", "order", "dtype"])
    def test_load_into_mismatch_reads_nothing(self, tmp_path, into, match):
        path = tmp_path / "m.ckpt"
        nm.save_checkpoint({"a": np.ones((3, 4), np.float32),
                            "b": np.ones(5)}, path)
        before = {k: a.copy() for k, a in into.items()}
        with pytest.raises(FormatError, match=match):
            nm.load_checkpoint(path, into=into)
        for k, a in into.items():
            assert a.tobytes() == before[k].tobytes()

    def test_load_into_truncated_file_is_format_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        nm.save_checkpoint({"a": np.ones((3, 4), np.float32)}, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="declare"):
            nm.load_checkpoint(path, into={"a": np.empty((3, 4), np.float32)})

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.ckpt"
        nm.save_checkpoint({"w": np.zeros((2, 3), dtype=np.float32)}, path)
        raw = path.read_bytes()
        header, rest = raw.split(b"\n", 1)
        assert header == b"SYNGCN1\t1"
        assert rest.split(b"\n", 1)[0] == b"w\tfloat32\t2,3"
        assert len(rest.split(b"\n", 1)[1]) == 2 * 3 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTHING\t1\n")
        with pytest.raises(FormatError):
            nm.load_checkpoint(path)

    def test_negative_count_is_format_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"SYNGCN1\t-3\n")
        with pytest.raises(FormatError, match="bad tensor count '-3'"):
            nm.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        nm.save_checkpoint({"w": np.zeros((1, 1), dtype=np.float32)}, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            nm.load_checkpoint(path)


    def test_huge_declared_shape_is_format_error(self, tmp_path):
        path = tmp_path / "huge.ckpt"
        path.write_bytes(b"SYNGCN1\t1\nw\tfloat32\t100000,100000\n" + bytes(8))
        with pytest.raises(FormatError, match="declare"):
            nm.load_checkpoint(path)

    def test_oversized_empty_shape_is_format_error(self, tmp_path):
        # zero bytes declared, but too large a shape for numpy to make
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"SYNGCN1\t1\nw\tfloat32\t0,1518494220,1518506280\n")
        with pytest.raises(FormatError, match="too large"):
            nm.load_checkpoint(path)

    def test_too_many_dimensions_is_format_error(self, tmp_path):
        path = tmp_path / "dims.ckpt"
        path.write_bytes(b"SYNGCN1\t1\nw\tfloat32\t" + b",".join([b"1"] * 70)
                         + b"\n" + bytes(4))
        with pytest.raises(FormatError, match="dimensions"):
            nm.load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=200), checkpoint_like_bytes()))
    def test_fuzzed_file_parses_or_raises_format_error(self, tmp_path_factory,
                                                       data):
        path = tmp_path_factory.mktemp("fuzz") / "f.ckpt"
        path.write_bytes(data)
        try:
            nm.load_checkpoint(path)
        except FormatError:
            pass

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "m.ckpt"
        nm.save_checkpoint({"w": np.ones((2, 3), dtype=np.float32)}, path)
        before = path.read_bytes()

        def fail(*args, **kwargs):
            raise OSError("disk full")

        # the tensor bytes are made after the header lines are written
        monkeypatch.setattr(nm.np, "ascontiguousarray", fail)
        with pytest.raises(OSError, match="disk full"):
            nm.save_checkpoint({"w": np.zeros((2, 3), dtype=np.float32)}, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


class TestDeterminism:
    def _run(self, seed: int) -> bytes:
        rng = np.random.default_rng(seed)
        store = store_of(np.float32, w=rng.uniform(-1, 1, (4, 4)))
        w = store["w"]
        target = nm.Tensor(rng.uniform(-1, 1, (4, 4)).astype(np.float32))
        for _ in range(25):
            with nm.Tape() as tape:
                diff = w - target
                loss = nm.sum_all(diff * diff)
            tape.gradients(loss, store, 0.05)
        return w.data.tobytes()

    def test_same_seed_bitwise_identical(self):
        assert self._run(9) == self._run(9)

    def test_different_seed_differs(self):
        assert self._run(9) != self._run(10)
