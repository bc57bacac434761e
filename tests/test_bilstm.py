import numpy as np
import pytest

from syngcn import numerics as nm
from syngcn.bilstm import (LstmParams, bilstm_encode, init_lstm,
                           init_lstm_direction)
from syngcn.errors import NumericsError, ShapeError

from test_numerics import masked_logistic

I, F, O, G = range(4)   # gate column blocks


def block(t, k):
    """Gate block ``k`` of a fused [. x 4d] tensor's data (a view)."""
    d = t.data.shape[1] // 4
    return t.data[:, k * d:(k + 1) * d]


def zero_direction(input_dim, d_h, dtype=np.float32):
    direction = init_lstm_direction("z", input_dim, d_h,
                                    np.random.default_rng(0), dtype)
    for t in direction:
        t.data[:] = 0.0
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
    h = nm.constant(np.zeros((1, d)), dtype=x.dtype)
    c = nm.constant(np.zeros((1, d)), dtype=x.dtype)
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
    return [[nm.parameter(f"{name}.{k}.{g}", block(t, g).copy(), np.float64)
             for g in range(4)] for k, t in zip("wub", direction)]


class TestLstmCell:
    """The LSTM step, observed through ``bilstm_encode`` on 1- and 2-token
    inputs."""

    def test_all_zero_params_and_inputs(self):
        params = LstmParams([(zero_direction(3, 4), zero_direction(3, 4))])
        for n in (1, 2):
            x = nm.Tensor(np.zeros((n, 3), dtype=np.float32))
            assert np.array_equal(bilstm_encode(x, params).data, np.zeros((n, 8)))

    def test_carry_identity(self):
        # token 0 opens the input gate and writes tanh(w_g) into the cell;
        # token 1 closes it while the forget gate is saturated open, so the
        # cell state carries through (up to the open-interval sigmoid clamp,
        # which keeps gates strictly below 1 by one ulp). With the output
        # gate saturated open, h = tanh(c) shows the carry.
        w, _, b = direction = zero_direction(1, 4, dtype=np.float64)
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
        _, _, b = init_lstm_direction("x", 5, 3, np.random.default_rng(1))
        assert np.array_equal(b.data, [[0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0]])
        # with the initial biases and no recurrent or input-gate weights,
        # token 1 adds nothing (g = 0), so the cell state from token 0 decays
        # by exactly sigmoid(1); h = tanh(c) / 2
        w, u, _ = direction = init_lstm_direction(
            "y", 1, 3, np.random.default_rng(2), dtype=np.float64)
        u.data[:] = 0.0
        w.data[:, :9] = 0.0   # i, f, o blocks
        h = encode_forward(direction, np.array([[1.0], [0.0]]))
        c = np.arctanh(2.0 * h)
        np.testing.assert_allclose(c[1] / c[0], 1.0 / (1.0 + np.exp(-1.0)),
                                   rtol=1e-9)

    def test_draws_fill_gate_blocks_in_order(self):
        # the fused arrays hold the gate-sized draws w_i, u_i, w_f, u_f, ...
        w, u, _ = init_lstm_direction("x", 5, 3, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        for k in range(4):
            assert np.array_equal(block(w, k), rng.uniform(-0.05, 0.05, (5, 3))
                                  .astype(np.float32))
            assert np.array_equal(block(u, k), rng.uniform(-0.05, 0.05, (3, 3))
                                  .astype(np.float32))

    def test_cell_gradient_check(self):
        rng = np.random.default_rng(4)
        params = init_lstm(3, 4, 1, rng, dtype=np.float64)
        for n in (1, 2):
            x = nm.Tensor(rng.standard_normal((n, 3)), dtype=np.float64)
            result = nm.grad_check(lambda: nm.sum_all(bilstm_encode(x, params)),
                                   params.tensors())
            assert result.max_rel_err < 1e-4


class TestFusedMatchesPerGate:
    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("layers", [1, 2])
    def test_states_and_gradients(self, n, layers):
        rng = np.random.default_rng(10 * n + layers)
        params = init_lstm(3, 4, layers, rng, dtype=np.float64)
        per_gate = [tuple(split_gates(direction, f"{j}.{side}")
                          for side, direction in zip("fb", layer))
                    for j, layer in enumerate(params.layers)]
        x_data = rng.standard_normal((n, 3))
        # a fixed random projection makes every state reach the loss with
        # its own weight
        proj = nm.constant(rng.standard_normal((2 * 4, 1)), dtype=np.float64)

        def run(encode):
            x = nm.parameter("x", x_data, np.float64)
            with nm.Tape() as tape:
                out = encode(x)
                grads = tape.gradients(nm.sum_all(out @ proj))
            return out.data, grads

        def reference(x):
            h = x
            for fw, bw in per_gate:
                h = nm.concat([reference_direction(h, *fw, reverse=False),
                               reference_direction(h, *bw, reverse=True)],
                              axis=1)
            return h

        fused, fused_grads = run(lambda x: bilstm_encode(x, params))
        ref, ref_grads = run(reference)
        np.testing.assert_allclose(fused, ref, rtol=1e-10, atol=0)
        np.testing.assert_allclose(fused_grads["x"], ref_grads["x"], rtol=1e-10)
        for j, layer in enumerate(params.layers):
            for side, direction in zip("fb", layer):
                for k, t in zip("wub", direction):
                    want = np.concatenate(
                        [ref_grads[f"{j}.{side}.{k}.{g}"] for g in range(4)],
                        axis=1)
                    np.testing.assert_allclose(fused_grads[t.name], want,
                                               rtol=1e-10, atol=1e-14)


class TestBilstmEncode:
    def test_single_token_width(self):
        params = init_lstm(5, 6, 1, np.random.default_rng(0))
        x = nm.Tensor(np.random.default_rng(1).standard_normal((1, 5))
                      .astype(np.float32))
        out = bilstm_encode(x, params)
        assert out.shape == (1, 12)

    def test_palindrome_with_tied_directions(self):
        # identical forward/backward parameters on a palindromic input give
        # mirrored rows with the two halves swapped
        rng = np.random.default_rng(2)
        fw = init_lstm_direction("fw", 3, 4, rng, dtype=np.float64)
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
        params = init_lstm(316, 512, 3, np.random.default_rng(0))
        shapes = {name: t.shape for name, t in params.tensors().items()}
        assert len(shapes) == 3 * 2 * 3
        assert shapes["lstm.0.fw.w"] == (316, 2048)
        assert shapes["lstm.1.fw.w"] == (1024, 2048)
        assert shapes["lstm.2.bw.u"] == (512, 2048)
        assert shapes["lstm.2.bw.b"] == (1, 2048)
        x = nm.Tensor(np.zeros((2, 316), dtype=np.float32))
        assert bilstm_encode(x, params).shape == (2, 1024)

    def test_directional_causality(self):
        rng = np.random.default_rng(5)
        params = init_lstm(3, 4, 1, rng)
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
        params = init_lstm(5, 3, layers, np.random.default_rng(0))
        x = nm.Tensor(np.random.default_rng(1).standard_normal((n, 5))
                      .astype(np.float32))
        assert bilstm_encode(x, params).shape == (n, 6)

    def test_stack_gradient_check_desk_scale(self):
        rng = np.random.default_rng(6)
        params = init_lstm(3, 4, 2, rng, dtype=np.float64)
        x = nm.Tensor(rng.standard_normal((4, 3)), dtype=np.float64)
        result = nm.grad_check(lambda: nm.sum_all(bilstm_encode(x, params)),
                               params.tensors())
        assert result.max_rel_err < 1e-4

    @pytest.mark.parametrize("layers", [1, 2])
    def test_tape_size_does_not_grow_with_length(self, layers):
        params = init_lstm(5, 3, layers, np.random.default_rng(0))
        sizes = []
        for n in (3, 30):
            x = nm.Tensor(np.ones((n, 5), dtype=np.float32))
            with nm.Tape() as tape:
                bilstm_encode(x, params)
            sizes.append(len(tape._nodes))
        assert sizes == [3 * layers] * 2

    # an infinite u meets the zero first state: inf * 0 warns in the matmul
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul"
                                ":RuntimeWarning")
    @pytest.mark.parametrize("name", ["w", "u", "b"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_weight_is_reported(self, name, value):
        params = init_lstm(3, 4, 1, np.random.default_rng(7))
        fw = dict(zip("wub", params.layers[0][0]))
        fw[name].data[0, 5] = value
        x = nm.Tensor(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(NumericsError, match="lstm"):
            bilstm_encode(x, params)


def step_by_step_lstm(x, w, u, b, reverse, dout):
    """One sequence, one row per step, each step a vector-matrix product;
    returns the states and the gradients of sum(states * dout) for x, w, u
    and b. The single-sequence loop that ``nm.lstm`` batched, kept as the
    byte-level reference for its B = 1 case."""
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


def lstm_with_grads(arrays, reverse, dout, lengths=None):
    """``nm.lstm`` states and the gradients of sum(states * dout)."""
    x, w, u, b = (nm.parameter(k, a) for k, a in zip("xwub", arrays))
    with nm.Tape() as tape:
        h = nm.lstm(x, w, u, b, reverse=reverse, lengths=lengths)
        grads = tape.gradients(nm.sum_all(h * nm.constant(dout)))
    return h.data, grads


def random_direction_arrays(n, input_dim, d, rng, dtype):
    return [rng.uniform(-0.5, 0.5, shape).astype(dtype)
            for shape in ((n, input_dim), (input_dim, 4 * d), (d, 4 * d),
                          (1, 4 * d))]


class TestBatchedLstm:
    LENGTHS = [4, 1, 6]   # not sorted, so the op's length order is exercised

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6),
                                           (np.float64, 1e-12)])
    def test_matches_single_sequence_calls(self, reverse, dtype, tol):
        rng = np.random.default_rng(20)
        n = sum(self.LENGTHS)
        arrays = random_direction_arrays(n, 3, 5, rng, dtype)
        dout = rng.standard_normal((n, 5)).astype(dtype)
        h, grads = lstm_with_grads(arrays, reverse, dout, self.LENGTHS)
        lo = 0
        want_h, want_x = [], []
        want = {k: 0.0 for k in "wub"}
        for length in self.LENGTHS:
            rows = slice(lo, lo + length)
            h1, g1 = lstm_with_grads([arrays[0][rows]] + arrays[1:], reverse,
                                     dout[rows])
            want_h.append(h1)
            want_x.append(g1["x"])
            for k in "wub":
                want[k] = want[k] + g1[k]
            lo += length
        np.testing.assert_allclose(h, np.vstack(want_h), rtol=0, atol=tol)
        np.testing.assert_allclose(grads["x"], np.vstack(want_x), rtol=0,
                                   atol=tol)
        for k in "wub":
            np.testing.assert_allclose(grads[k], want[k], rtol=tol, atol=tol)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_batched_gradient_check(self, reverse):
        rng = np.random.default_rng(21)
        arrays = random_direction_arrays(sum(self.LENGTHS), 3, 2, rng,
                                         np.float64)
        params = {k: nm.parameter(k, a) for k, a in zip("xwub", arrays)}
        proj = nm.constant(rng.standard_normal((2, 1)))
        result = nm.grad_check(
            lambda: nm.sum_all(nm.lstm(*params.values(), reverse=reverse,
                                       lengths=self.LENGTHS) @ proj), params)
        assert result.max_rel_err < 1e-6

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,d", [(1, 4), (9, 8), (30, 64)])
    def test_one_sequence_is_byte_identical_to_step_by_step(self, reverse,
                                                            dtype, n, d):
        rng = np.random.default_rng(n)
        arrays = random_direction_arrays(n, 5, d, rng, dtype)
        dout = rng.standard_normal((n, d)).astype(dtype)
        h, grads = lstm_with_grads(arrays, reverse, dout)
        want_h, want = step_by_step_lstm(*arrays, reverse, dout)
        assert h.tobytes() == want_h.tobytes()
        for k in "xwub":
            assert grads[k].tobytes() == want[k].tobytes(), k

    @pytest.mark.parametrize("lengths", [[2, 3], [4, 0], [], [-1, 5]])
    def test_lengths_must_cover_the_rows(self, lengths):
        arrays = random_direction_arrays(4, 3, 2, np.random.default_rng(0),
                                         np.float32)
        with pytest.raises(ShapeError, match="lengths"):
            nm.lstm(*(nm.Tensor(a) for a in arrays), lengths=lengths)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul"
                                ":RuntimeWarning")
    def test_non_finite_value_in_one_sequence_is_reported(self):
        arrays = random_direction_arrays(5, 3, 2, np.random.default_rng(1),
                                         np.float32)
        arrays[0][4, 0] = np.inf
        with pytest.raises(NumericsError, match="lstm"):
            nm.lstm(*(nm.Tensor(a) for a in arrays), lengths=[3, 2])

    @pytest.mark.parametrize("lengths", [[7], [4, 1, 2]])
    def test_forward_without_a_tape_is_byte_identical(self, lengths):
        # with no tape the op skips the states only its backward reads
        rng = np.random.default_rng(23)
        arrays = random_direction_arrays(sum(lengths), 3, 5, rng, np.float32)
        params = [nm.parameter(k, a) for k, a in zip("xwub", arrays)]
        plain = nm.lstm(*params, reverse=True, lengths=lengths)
        with nm.Tape() as tape:
            taped = nm.lstm(*params, reverse=True, lengths=lengths)
        assert len(tape._nodes) == 1 and not plain._needs_grad
        assert plain.data.tobytes() == taped.data.tobytes()

    def test_encoder_keeps_sentences_apart(self):
        # two sentences encoded together equal each encoded alone
        rng = np.random.default_rng(22)
        params = init_lstm(3, 4, 2, rng, dtype=np.float64)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((5, 3))
        both = bilstm_encode(nm.Tensor(np.vstack([a, b])), params, [3, 5]).data
        alone = np.vstack([bilstm_encode(nm.Tensor(s), params).data
                           for s in (a, b)])
        np.testing.assert_allclose(both, alone, rtol=0, atol=1e-12)
