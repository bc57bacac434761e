import itertools
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syngcn import numerics as nm, workers
from syngcn.bilstm import (LstmParams, bilstm_encode, init_lstm,
                           init_lstm_direction, lstm_layout, lstm_params)
from syngcn.errors import NumericsError, ShapeError

from test_numerics import masked_logistic, store_of
from test_workers import hand_offs, on_two_workers

I, F, O, G = range(4)   # gate column blocks


def block(t, k):
    """Gate block ``k`` of a fused [. x 4d] tensor's data (a view)."""
    d = t.data.shape[1] // 4
    return t.data[:, k * d:(k + 1) * d]


def new_lstm(input_dim, d_h, layers, rng, dtype=np.float32):
    """Freshly drawn ``LstmParams`` in a store laid out by ``lstm_layout``:
    (params, store)."""
    store = nm.ParamStore(lstm_layout(input_dim, d_h, layers), dtype)
    params = lstm_params(store, layers)
    init_lstm(params, rng)
    return params, store


def new_direction(input_dim, d_h, rng=None, dtype=np.float32):
    """One direction's (w, u, b) in its own store, drawn from ``rng``, or
    left at the store's zeros without one."""
    # the first three tensors of a one-layer layout: lstm.0.fw.{w,u,b}
    layout = itertools.islice(lstm_layout(input_dim, d_h, 1), 3)
    direction = tuple(nm.ParamStore(layout, dtype).values())
    if rng is not None:
        init_lstm_direction(direction, rng)
    return direction


def encode_forward(direction, x):
    """Forward-direction states of a one-layer encoder whose two directions
    share ``direction``."""
    out = bilstm_encode(nm.Tensor(x), LstmParams([(direction, direction)])).data
    return out[:, :direction[1].shape[0]]


def reference_direction(x, w, u, b, reverse):
    """The LSTM step as separate per-gate ``nm`` ops, one token at a time:
    i,f,o = sigmoid, g = tanh, c = f*c + i*g, h = o*tanh(c)."""
    gates = range(4)
    pre_x = [x @ w[k] + b[k] for k in gates]
    d = u[0].shape[0]
    h = nm.Tensor(np.zeros((1, d)), dtype=x.dtype)
    c = nm.Tensor(np.zeros((1, d)), dtype=x.dtype)
    n = x.shape[0]
    states = {}
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        pre = [nm.rows(pre_x[k], [t]) + h @ u[k] for k in gates]
        c = nm.sigmoid(pre[F]) * c + nm.sigmoid(pre[I]) * nm.tanh(pre[G])
        h = nm.sigmoid(pre[O]) * nm.tanh(c)
        states[t] = h
    return nm.concat([states[t] for t in range(n)], axis=0)


def split_gates(direction, name):
    """Per-gate float64 copies of a fused direction, as trainable leaves."""
    return [[nm.Tensor(block(t, g).copy(), np.float64, f"{name}.{k}.{g}",
                       trainable=True)
             for g in range(4)] for k, t in zip("wub", direction)]


class TestLstmCell:
    """The LSTM step, observed through ``bilstm_encode`` on 1- and 2-token
    inputs."""

    def test_all_zero_params_and_inputs(self):
        params = LstmParams([(new_direction(3, 4), new_direction(3, 4))])
        for n in (1, 2):
            x = nm.Tensor(np.zeros((n, 3), dtype=np.float32))
            assert np.array_equal(bilstm_encode(x, params).data, np.zeros((n, 8)))

    def test_carry_identity(self):
        # token 0 opens the input gate and writes tanh(w_g) into the cell;
        # token 1 closes it while the forget gate is saturated open, so the
        # cell state carries through (up to the open-interval sigmoid clamp,
        # which keeps gates strictly below 1 by one ulp). With the output
        # gate saturated open, h = tanh(c) shows the carry.
        w, _, b = direction = new_direction(1, 4, dtype=np.float64)
        block(w, I)[:] = 120.0
        block(b, I)[:] = -60.0
        block(b, F)[:] = 60.0
        block(b, O)[:] = 60.0
        block(w, G)[:] = [[0.3, -1.2, 0.8, 2.0]]
        h = encode_forward(direction, np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(h[0], np.tanh(np.tanh([0.3, -1.2, 0.8, 2.0])),
                                   rtol=1e-12)
        np.testing.assert_allclose(h[1], h[0], rtol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        _, _, b = new_direction(5, 3, np.random.default_rng(1))
        assert np.array_equal(b.data, [[0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0]])
        # with the initial biases and no recurrent or input-gate weights,
        # token 1 adds nothing (g = 0), so the cell state from token 0 decays
        # by exactly sigmoid(1); h = tanh(c) / 2
        w, u, _ = direction = new_direction(1, 3, np.random.default_rng(2),
                                            dtype=np.float64)
        u.data[:] = 0.0
        w.data[:, :9] = 0.0   # i, f, o blocks
        h = encode_forward(direction, np.array([[1.0], [0.0]]))
        c = np.arctanh(2.0 * h)
        np.testing.assert_allclose(c[1] / c[0], 1.0 / (1.0 + np.exp(-1.0)),
                                   rtol=1e-9)

    def test_draws_fill_gate_blocks_in_order(self):
        # the fused arrays hold the gate-sized draws w_i, u_i, w_f, u_f, ...
        w, u, _ = new_direction(5, 3, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for k in range(4):
            assert np.array_equal(block(w, k), rng.uniform(-0.05, 0.05, (5, 3))
                                  .astype(np.float32))
            assert np.array_equal(block(u, k), rng.uniform(-0.05, 0.05, (3, 3))
                                  .astype(np.float32))

    def test_cell_gradient_check(self):
        rng = np.random.default_rng(4)
        params, store = new_lstm(3, 4, 1, rng, dtype=np.float64)
        for n in (1, 2):
            x = nm.Tensor(rng.standard_normal((n, 3)), dtype=np.float64)
            result = nm.grad_check(lambda: nm.sum_all(bilstm_encode(x, params)),
                                   store)
            assert result.max_rel_err < 1e-4


class TestFusedMatchesPerGate:
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_states_and_gradients(self, n, layers):
        rng = np.random.default_rng(10 * n + layers)
        params, _ = new_lstm(3, 4, layers, rng, dtype=np.float64)
        per_gate = [tuple(split_gates(direction, f"{j}.{side}")
                          for side, direction in zip("fb", layer))
                    for j, layer in enumerate(params.layers)]
        x_data = rng.standard_normal((n, 3))
        # a fixed random projection makes every state reach the loss with
        # its own weight
        proj = nm.Tensor(rng.standard_normal((2 * 4, 1)), dtype=np.float64)

        def run(encode):
            """The states, and the gradient of a new leaf x; the weights'
            gradients are left in their ``grad``."""
            x = nm.Tensor(x_data, np.float64, "x", trainable=True)
            with nm.Tape() as tape:
                out = encode(x)
                loss = nm.sum_all(out @ proj)
            tape.gradients(loss)
            return out.data, x.grad

        def reference(x):
            h = x
            for fw, bw in per_gate:
                h = nm.concat([reference_direction(h, *fw, reverse=False),
                               reference_direction(h, *bw, reverse=True)],
                              axis=1)
            return h

        fused, fused_dx = run(lambda x: bilstm_encode(x, params))
        ref, ref_dx = run(reference)
        np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=0)
        np.testing.assert_allclose(fused_dx, ref_dx, rtol=1e-10)
        for layer, ref_layer in zip(params.layers, per_gate):
            for direction, ref_direction in zip(layer, ref_layer):
                for t, gates in zip(direction, ref_direction):
                    want = np.concatenate([g.grad for g in gates], axis=1)
                    np.testing.assert_allclose(t.grad, want, rtol=1e-10,
                                               atol=1e-14, err_msg=t.name)


class TestBilstmEncode:
    def test_single_token_width(self):
        params, _ = new_lstm(5, 6, 1, np.random.default_rng(0))
        x = nm.Tensor(np.random.default_rng(1).standard_normal((1, 5))
                      .astype(np.float32))
        out = bilstm_encode(x, params)
        assert out.shape == (1, 12)

    def test_palindrome_with_tied_directions(self):
        # identical forward/backward parameters on a palindromic input give
        # mirrored rows with the two halves swapped
        rng = np.random.default_rng(2)
        fw = new_direction(3, 4, rng, dtype=np.float64)
        params = LstmParams([(fw, fw)])
        base = rng.standard_normal((3, 3))
        x = nm.Tensor(np.vstack([base, base[-2::-1]]), dtype=np.float64)  # n=5
        out = bilstm_encode(x, params).data
        n, d = 5, 4
        for i in range(n):
            mirrored = out[n - 1 - i]
            np.testing.assert_allclose(out[i, :d], mirrored[d:], rtol=1e-10)
            np.testing.assert_allclose(out[i, d:], mirrored[:d], rtol=1e-10)

    def test_paper_configuration_width(self):
        params, store = new_lstm(316, 512, 3, np.random.default_rng(0))
        shapes = {name: t.shape for name, t in store.items()}
        assert len(shapes) == 3 * 2 * 3
        assert shapes["lstm.0.fw.w"] == (316, 2048)
        assert shapes["lstm.1.fw.w"] == (1024, 2048)
        assert shapes["lstm.2.bw.u"] == (512, 2048)
        assert shapes["lstm.2.bw.b"] == (1, 2048)
        x = nm.Tensor(np.zeros((2, 316), dtype=np.float32))
        assert bilstm_encode(x, params).shape == (2, 1024)

    def test_directional_causality(self):
        rng = np.random.default_rng(5)
        params, _ = new_lstm(3, 4, 1, rng)
        base = rng.standard_normal((6, 3)).astype(np.float32)
        out_base = bilstm_encode(nm.Tensor(base.copy()), params).data
        j = 3
        changed = base.copy()
        changed[j] += 1.0
        out_changed = bilstm_encode(nm.Tensor(changed), params).data
        fw_base, bw_base = out_base[:, :4], out_base[:, 4:]
        fw_new, bw_new = out_changed[:, :4], out_changed[:, 4:]
        # forward states before j and backward states after j are untouched
        assert np.array_equal(fw_base[:j], fw_new[:j])
        assert np.array_equal(bw_base[j + 1:], bw_new[j + 1:])
        assert not np.array_equal(fw_base[j:], fw_new[j:])
        assert not np.array_equal(bw_base[:j + 1], bw_new[:j + 1])

    @pytest.mark.parametrize("n,layers", [(1, 1), (4, 2), (3, 3)])
    def test_output_shape(self, n, layers):
        params, _ = new_lstm(5, 3, layers, np.random.default_rng(0))
        x = nm.Tensor(np.random.default_rng(1).standard_normal((n, 5))
                      .astype(np.float32))
        assert bilstm_encode(x, params).shape == (n, 6)

    def test_stack_gradient_check_desk_scale(self):
        rng = np.random.default_rng(6)
        params, store = new_lstm(3, 4, 2, rng, dtype=np.float64)
        x = nm.Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
        result = nm.grad_check(lambda: nm.sum_all(bilstm_encode(x, params)),
                               store)
        assert result.max_rel_err < 1e-4

    @pytest.mark.parametrize("layers", [1, 2])
    def test_tape_size_does_not_grow_with_length(self, layers):
        params, _ = new_lstm(5, 3, layers, np.random.default_rng(0))
        sizes = []
        for n in (3, 30):
            x = nm.Tensor(np.ones((n, 5), dtype=np.float32))
            with nm.Tape() as tape:
                bilstm_encode(x, params)
            sizes.append(len(tape._nodes))
        assert sizes == [layers] * 2

    # an infinite u meets the zero first state: inf * 0 warns in the matmul
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul"
                                ":RuntimeWarning")
    # the forward direction's tensors unprefixed, the backward's "bw."
    @pytest.mark.parametrize("name", ["w", "u", "b", "bw.w", "bw.u", "bw.b"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_weight_is_reported(self, name, value):
        _, store = new_lstm(3, 4, 1, np.random.default_rng(7))
        side, _, k = name.rpartition(".")
        store[f"lstm.0.{side or 'fw'}.{k}"].data[0, 5] = value
        params = lstm_params(store, 1)
        x = nm.Tensor(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(NumericsError, match="lstm"):
            bilstm_encode(x, params)


def step_by_step_lstm(x, w, u, b, reverse, dout):
    """One sequence, one row per step, each step a vector-matrix product;
    returns the states and the gradients of sum(states * dout) for x, w, u
    and b. The single-sequence loop that ``nm.bilstm_layer`` batches, kept as
    the byte-level reference for each of its halves at B = 1."""
    n, d = x.shape[0], u.shape[0]
    order = range(n - 1, -1, -1) if reverse else range(n)
    z = x @ w + b
    gates = np.empty_like(z)
    h, tanh_c, h_prev, c_prev = (np.empty((n, d), z.dtype) for _ in range(4))
    h_t = c_t = np.zeros(d, z.dtype)
    for t in order:
        h_prev[t], c_prev[t] = h_t, c_t
        z[t] += h_t @ u
        gates[t, :3 * d] = masked_logistic(z[t, :3 * d])
        gates[t, 3 * d:] = np.tanh(z[t, 3 * d:])
        i, f, o, g = np.split(gates[t], 4)
        c_t = f * c_t + i * g
        tanh_c[t] = np.tanh(c_t)
        h[t] = h_t = o * tanh_c[t]
    dz = np.empty_like(gates)
    dh = dc = np.zeros(d, gates.dtype)
    for t in reversed(order):
        i, f, o, g = np.split(gates[t], 4)
        dh = dout[t] + dh
        dc = dc + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
        dz[t] = np.concatenate([dc * g * i * (1.0 - i),
                                dc * c_prev[t] * f * (1.0 - f),
                                dh * tanh_c[t] * o * (1.0 - o),
                                dc * i * (1.0 - g * g)])
        dh, dc = dz[t] @ u.T, dc * f
    return h, {"x": dz @ w.T, "w": x.T @ dz, "u": h_prev.T @ dz,
               "b": dz.sum(axis=0, keepdims=True)}




def reference_lstm(x, w, u, b, reverse=False, lengths=None):
    """One LSTM direction over B packed sequences as one tape op, built on
    ``nm._make``: the single-direction op the encoder ran, two to a layer,
    before both directions shared a time loop. It packs, steps and rounds as
    ``nm.bilstm_layer`` does for one direction, so it is that op's bitwise
    per-direction oracle."""
    n, d = x.data.shape[0], u.data.shape[0]
    lens = np.array([n] if lengths is None else lengths, dtype=np.intp)
    by_len = np.argsort(-lens, kind="stable")
    first = (np.cumsum(lens) - lens)[by_len]
    if reverse:
        first = first + lens[by_len] - 1
    active = (lens[by_len][:, None] > np.arange(lens.max())).sum(axis=0)
    step = -1 if reverse else 1
    order = np.concatenate([first[:a] + step * t for t, a in enumerate(active)])
    slots = [slice(lo, lo + a) for lo, a in
             zip(np.cumsum(active) - active, active)]
    z = (x.data @ w.data + b.data)[order]
    gates = np.empty_like(z)
    h, tanh_c, h_prev, c_prev = (np.empty((n, d), z.dtype) for _ in range(4))
    h_t = c_t = np.zeros((active[0], d), z.dtype)
    for s, a in zip(slots, active):
        h_prev[s], c_prev[s] = h_t[:a], c_t[:a]
        z[s] += h_t[:a] @ u.data
        gates[s, :3 * d] = nm._logistic(z[s, :3 * d])
        gates[s, 3 * d:] = np.tanh(z[s, 3 * d:])
        i, f, o, g = (gates[s, k * d:(k + 1) * d] for k in range(4))
        c_t = f * c_t[:a] + i * g
        tanh_c[s] = np.tanh(c_t)
        h[s] = h_t = o * tanh_c[s]
    out = np.empty_like(h)
    out[order] = h

    def backward(dout):
        dout = dout[order]
        dz = np.empty_like(gates)
        dh_next, dc_next = np.zeros((2, active[0], d), gates.dtype)
        for s, a in zip(reversed(slots), reversed(active)):
            i, f, o, g = (gates[s, k * d:(k + 1) * d] for k in range(4))
            dh = dout[s] + dh_next[:a]
            dc = dc_next[:a] + dh * o * (1.0 - tanh_c[s] * tanh_c[s])
            dz[s, :d] = dc * g * i * (1.0 - i)
            dz[s, d:2 * d] = dc * c_prev[s] * f * (1.0 - f)
            dz[s, 2 * d:3 * d] = dh * tanh_c[s] * o * (1.0 - o)
            dz[s, 3 * d:] = dc * i * (1.0 - g * g)
            dh_next[:a], dc_next[:a] = dz[s] @ u.data.T, dc * f
        dz_rows, h_prev_rows = np.empty_like(dz), np.empty_like(h_prev)
        dz_rows[order], h_prev_rows[order] = dz, h_prev
        nm._accumulate(x, dz_rows @ w.data.T)
        nm._accumulate(w, x.data.T @ dz_rows)
        nm._accumulate(u, h_prev_rows.T @ dz_rows)
        nm._accumulate(b, dz_rows.sum(axis=0, keepdims=True))

    return nm._make(out, (x, w, u, b), "lstm", backward)


NAMES = ("x", "fw.w", "fw.u", "fw.b", "bw.w", "bw.u", "bw.b")


def random_layer_arrays(n, input_dim, d, rng, dtype):
    """x, then the forward and the backward direction's w, u, b."""
    shapes = ((input_dim, 4 * d), (d, 4 * d), (1, 4 * d))
    return [rng.uniform(-0.5, 0.5, shape).astype(dtype)
            for shape in ((n, input_dim), *shapes, *shapes)]


def layer_with_grads(arrays, dout, lengths=None, tied=False, layer=None):
    """A layer's states and the gradients of sum(states * dout) + sum(x * x),
    by name, with the backward direction sharing the forward's tensors if
    ``tied``. ``layer`` maps (x, fw, bw, lengths) to the states; the default
    is ``nm.bilstm_layer``. The x * x term, recorded last, gives x a
    gradient before the layer's backward adds to it."""
    leaves = {k: nm.Tensor(a, name=k, trainable=True)
              for k, a in zip(NAMES, arrays)}
    x, fw = leaves["x"], tuple(leaves[f"fw.{k}"] for k in "wub")
    bw = fw if tied else tuple(leaves[f"bw.{k}"] for k in "wub")
    with nm.Tape() as tape:
        h = (layer or nm.bilstm_layer)(x, fw, bw, lengths)
        loss = nm.sum_all(h * nm.Tensor(dout)) + nm.sum_all(x * x)
    tape.gradients(loss)
    grads = {"x": x.grad, **{f"fw.{k}": t.grad for k, t in zip("wub", fw)},
             **{f"bw.{k}": t.grad for k, t in zip("wub", bw)}}
    return h.data, grads


def two_reference_directions(x, fw, bw, lengths):
    """The layer as the encoder built it before: a forward and a reversed
    ``reference_lstm``, concatenated."""
    return nm.concat([reference_lstm(x, *fw, lengths=lengths),
                      reference_lstm(x, *bw, reverse=True, lengths=lengths)],
                     axis=1)


class TestLayerMatchesTwoDirections:
    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("lengths", [[6], [4, 1, 6]])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_states_and_gradients_bitwise(self, dtype, lengths, tied):
        # B = 1 and packed, unsorted lengths; every gradient bit for bit,
        # including x's, which sums its two terms backward direction first
        rng = np.random.default_rng(len(lengths))
        n, d = sum(lengths), 5
        arrays = random_layer_arrays(n, 3, d, rng, dtype)
        dout = rng.standard_normal((n, 2 * d)).astype(dtype)
        h, grads = layer_with_grads(arrays, dout, lengths, tied)
        want_h, want = layer_with_grads(arrays, dout, lengths, tied,
                                        two_reference_directions)
        assert h[:, :d].tobytes() == want_h[:, :d].tobytes()
        assert h[:, d:].tobytes() == want_h[:, d:].tobytes()
        for k in NAMES:
            assert grads[k].dtype == dtype
            assert grads[k].tobytes() == want[k].tobytes(), k


class TestBatchedLstm:
    LENGTHS = [4, 1, 6]   # not sorted, so the op's length order is exercised

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6),
                                           (np.float64, 1e-12)])
    def test_matches_single_sequence_calls(self, tied, dtype, tol):
        rng = np.random.default_rng(20)
        n = sum(self.LENGTHS)
        arrays = random_layer_arrays(n, 3, 5, rng, dtype)
        dout = rng.standard_normal((n, 10)).astype(dtype)
        h, grads = layer_with_grads(arrays, dout, self.LENGTHS, tied)
        lo = 0
        want_h, want_x = [], []
        want = {k: 0.0 for k in NAMES[1:]}
        for length in self.LENGTHS:
            rows = slice(lo, lo + length)
            h1, g1 = layer_with_grads([arrays[0][rows]] + arrays[1:],
                                      dout[rows], tied=tied)
            want_h.append(h1)
            want_x.append(g1["x"])
            for k in want:
                want[k] = want[k] + g1[k]
            lo += length
        np.testing.assert_allclose(h, np.vstack(want_h), rtol=0, atol=tol)
        np.testing.assert_allclose(grads["x"], np.vstack(want_x), rtol=0,
                                   atol=tol)
        for k in want:
            np.testing.assert_allclose(grads[k], want[k], rtol=tol, atol=tol)

    @pytest.mark.parametrize("tied", [False, True])
    def test_batched_gradient_check(self, tied):
        rng = np.random.default_rng(21)
        arrays = random_layer_arrays(sum(self.LENGTHS), 3, 2, rng, np.float64)
        store = store_of(**dict(zip(NAMES, arrays)))
        x, fw = store["x"], tuple(store[f"fw.{k}"] for k in "wub")
        bw = fw if tied else tuple(store[f"bw.{k}"] for k in "wub")
        proj = nm.Tensor(rng.standard_normal((4, 1)))
        result = nm.grad_check(
            lambda: nm.sum_all(nm.bilstm_layer(x, fw, bw, self.LENGTHS) @ proj),
            store)
        assert result.max_rel_err < 1e-6

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,d", [(1, 4), (9, 8), (30, 64)])
    def test_one_sequence_is_byte_identical_to_step_by_step(self, tied,
                                                            dtype, n, d):
        # each half against its own direction's loop; tied tensors and x
        # hold the backward direction's gradient plus the forward's
        rng = np.random.default_rng(n)
        arrays = random_layer_arrays(n, 5, d, rng, dtype)
        if tied:
            arrays[4:] = arrays[1:4]
        dout = rng.standard_normal((n, 2 * d)).astype(dtype)
        h, grads = layer_with_grads(arrays, dout, tied=tied)
        want_fw, fw = step_by_step_lstm(arrays[0], *arrays[1:4], False,
                                        dout[:, :d])
        want_bw, bw = step_by_step_lstm(arrays[0], *arrays[4:], True,
                                        dout[:, d:])
        assert h[:, :d].tobytes() == want_fw.tobytes()
        assert h[:, d:].tobytes() == want_bw.tobytes()
        # x's gradient also holds the 2x of the x * x term, added first
        want_x = 2.0 * arrays[0] + bw["x"] + fw["x"]
        assert grads["x"].tobytes() == want_x.tobytes()
        for k in "wub":
            if tied:
                assert grads[f"fw.{k}"].tobytes() == (bw[k] + fw[k]).tobytes()
            else:
                assert grads[f"fw.{k}"].tobytes() == fw[k].tobytes(), k
                assert grads[f"bw.{k}"].tobytes() == bw[k].tobytes(), k

    @pytest.mark.parametrize("lengths", [[2, 3], [4, 0], [], [-1, 5]])
    def test_lengths_must_cover_the_rows(self, lengths):
        x, *params = (nm.Tensor(a) for a in random_layer_arrays(
            4, 3, 2, np.random.default_rng(0), np.float32))
        with pytest.raises(ShapeError, match="lengths"):
            nm.bilstm_layer(x, params[:3], params[3:], lengths)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul"
                                ":RuntimeWarning")
    def test_non_finite_value_in_one_sequence_is_reported(self):
        arrays = random_layer_arrays(5, 3, 2, np.random.default_rng(1),
                                     np.float32)
        arrays[0][4, 0] = np.inf
        x, *params = (nm.Tensor(a) for a in arrays)
        with pytest.raises(NumericsError, match="lstm"):
            nm.bilstm_layer(x, params[:3], params[3:], [3, 2])

    @pytest.mark.parametrize("lengths", [[7], [4, 1, 2]])
    def test_forward_without_a_tape_is_byte_identical(self, lengths):
        # the forward keeps no per-step copies for the backward, so it runs
        # the same steps with a tape as without
        rng = np.random.default_rng(23)
        arrays = random_layer_arrays(sum(lengths), 3, 5, rng, np.float32)
        x, *params = (nm.Tensor(a, trainable=True) for a in arrays)
        plain = nm.bilstm_layer(x, params[:3], params[3:], lengths)
        with nm.Tape() as tape:
            taped = nm.bilstm_layer(x, params[:3], params[3:], lengths)
        assert len(tape._nodes) == 1 and not plain._needs_grad
        assert plain.data.tobytes() == taped.data.tobytes()

    def test_encoder_keeps_sentences_apart(self):
        # two sentences encoded together equal each encoded alone
        rng = np.random.default_rng(22)
        params, _ = new_lstm(3, 4, 2, rng, dtype=np.float64)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((5, 3))
        both = bilstm_encode(nm.Tensor(np.vstack([a, b])), params, [3, 5]).data
        alone = np.vstack([bilstm_encode(nm.Tensor(s), params).data
                           for s in (a, b)])
        np.testing.assert_allclose(both, alone, rtol=0, atol=1e-12)


class TestDirectionsOnTwoThreads:
    """Inside ``workers.two_workers``, a layer whose first step's recurrent
    product reaches ``workers.PAIR_MIN`` runs its forward direction on the
    calling thread and its backward one on the worker, handed over once for
    the forward and once for the backward's recurrence; the bytes are the
    stacked path's."""

    @staticmethod
    def _stacked_and_threaded(arrays, dout, lengths=None, tied=False,
                              pair_min=1):
        """``layer_with_grads`` inside ``two_workers``, at a ``PAIR_MIN``
        above the layer's first step product, then at ``pair_min``."""
        step = len(lengths or [0]) * arrays[2].size    # a row per sequence
        runs = []
        with on_two_workers(), hand_offs("_by_direction") as made:
            for threshold in (step + 1, pair_min):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(workers, "PAIR_MIN", threshold)
                    runs.append(layer_with_grads(arrays, dout, lengths, tied))
                assert len(made) == 2 * (threshold == pair_min)
        return runs

    @settings(max_examples=40, deadline=None)
    @given(lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           input_dim=st.integers(1, 40), d=st.integers(1, 40),
           dtype=st.sampled_from([np.float32, np.float64]),
           tied=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_threaded_directions_equal_the_stacked_ones(
            self, lengths, input_dim, d, dtype, tied, seed):
        # ragged lengths, one-row sequences among them: the states, x's
        # gradient and all six parameter gradients, bit for bit
        rng = np.random.default_rng(seed)
        n = sum(lengths)
        arrays = random_layer_arrays(n, input_dim, d, rng, dtype)
        dout = rng.standard_normal((n, 2 * d)).astype(dtype)
        (h, grads), (h2, grads2) = self._stacked_and_threaded(
            arrays, dout, lengths, tied)
        assert h2.tobytes() == h.tobytes()
        for k in NAMES:
            assert grads2[k].tobytes() == grads[k].tobytes(), k

    def test_english_width_layer_hands_over_twice(self):
        # configs/conll2009_english.conf's first layer over one 7-token
        # sentence, at the real threshold; its projections and the
        # products of the staged backward may split as before
        rng = np.random.default_rng(7)
        arrays = random_layer_arrays(7, 1024, 512, rng, np.float32)
        dout = rng.standard_normal((7, 1024)).astype(np.float32)
        assert arrays[2].size >= workers.PAIR_MIN
        (h, grads), (h2, grads2) = self._stacked_and_threaded(
            arrays, dout, pair_min=workers.PAIR_MIN)
        assert h2.tobytes() == h.tobytes()
        for k in NAMES:
            assert grads2[k].tobytes() == grads[k].tobytes(), k

    def test_workers_error_surfaces_after_the_callers_direction(
            self, monkeypatch):
        # the worker's direction fails at its first step; the calling
        # thread's direction still runs all its steps before the error
        # surfaces, and the worker takes the next hand-off
        class Boom(Exception):
            pass

        logistic, here = nm._logistic, []

        def failing_on_the_worker(z):
            if threading.current_thread().name.startswith("syngcn-worker"):
                raise Boom
            time.sleep(0.005)
            here.append(z.shape[:2])
            return logistic(z)

        monkeypatch.setattr(nm, "_logistic", failing_on_the_worker)
        monkeypatch.setattr(workers, "PAIR_MIN", 1)
        arrays = random_layer_arrays(9, 3, 4, np.random.default_rng(3),
                                     np.float32)
        x, *params = (nm.Tensor(a) for a in arrays)
        with on_two_workers():
            with pytest.raises(Boom):
                nm.bilstm_layer(x, params[:3], params[3:], [5, 4])
            assert here == [(1, 2)] * 4 + [(1, 1)]
            workers.in_parallel(lambda: None, lambda: None)
