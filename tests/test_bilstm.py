import numpy as np
import pytest

from syngcn import numerics as nm
from syngcn.bilstm import (GATES, LstmParams, bilstm_encode, init_lstm,
                           init_lstm_direction)


def zero_cell(input_dim, d_h, dtype=np.float32):
    cell = init_lstm_direction("z", input_dim, d_h, np.random.default_rng(0),
                               dtype)
    for store in (cell.w, cell.u, cell.b):
        for gate in GATES:
            store[gate].data[:] = 0.0
    return cell


def encode_forward(cell, x):
    """Forward-direction states of a one-layer encoder whose two directions
    share ``cell``."""
    out = bilstm_encode(nm.Tensor(x), LstmParams([(cell, cell)])).data
    return out[:, :cell.hidden_dim]


class TestLstmCell:
    """The LSTM step, observed through ``bilstm_encode`` on 1- and 2-token
    inputs."""

    def test_all_zero_params_and_inputs(self):
        params = LstmParams([(zero_cell(3, 4), zero_cell(3, 4))])
        for n in (1, 2):
            x = nm.Tensor(np.zeros((n, 3), dtype=np.float32))
            assert np.array_equal(bilstm_encode(x, params).data, np.zeros((n, 8)))

    def test_carry_identity(self):
        # token 0 opens the input gate and writes tanh(w_g) into the cell;
        # token 1 closes it while the forget gate is saturated open, so the
        # cell state carries through (up to the open-interval sigmoid clamp,
        # which keeps gates strictly below 1 by one ulp). With the output
        # gate saturated open, h = tanh(c) shows the carry.
        cell = zero_cell(1, 4, dtype=np.float64)
        cell.w["i"].data[:] = 120.0
        cell.b["i"].data[:] = -60.0
        cell.b["f"].data[:] = 60.0
        cell.b["o"].data[:] = 60.0
        cell.w["g"].data[:] = [[0.3, -1.2, 0.8, 2.0]]
        h = encode_forward(cell, np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(h[0], np.tanh(np.tanh([0.3, -1.2, 0.8, 2.0])),
                                   rtol=1e-12)
        np.testing.assert_allclose(h[1], h[0], rtol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        cell = init_lstm_direction("x", 5, 3, np.random.default_rng(1))
        assert np.array_equal(cell.b["f"].data, np.ones((1, 3)))
        assert np.array_equal(cell.b["i"].data, np.zeros((1, 3)))
        # with the initial biases and no recurrent or input-gate weights,
        # token 1 adds nothing (g = 0), so the cell state from token 0 decays
        # by exactly sigmoid(1); h = tanh(c) / 2
        cell = init_lstm_direction("y", 1, 3, np.random.default_rng(2),
                                   dtype=np.float64)
        for gate in GATES:
            cell.u[gate].data[:] = 0.0
            if gate != "g":
                cell.w[gate].data[:] = 0.0
        h = encode_forward(cell, np.array([[1.0], [0.0]]))
        c = np.arctanh(2.0 * h)
        np.testing.assert_allclose(c[1] / c[0], 1.0 / (1.0 + np.exp(-1.0)),
                                   rtol=1e-9)

    def test_cell_gradient_check(self):
        rng = np.random.default_rng(4)
        params = init_lstm(3, 4, 1, rng, dtype=np.float64)
        for n in (1, 2):
            x = nm.Tensor(rng.standard_normal((n, 3)), dtype=np.float64)
            result = nm.grad_check(lambda: nm.sum_all(bilstm_encode(x, params)),
                                   params.tensors())
            assert result.max_rel_err < 1e-4


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
        assert params.layers[0][0].input_dim == 316
        assert params.layers[1][0].input_dim == 1024
        assert params.layers[2][1].input_dim == 1024
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
