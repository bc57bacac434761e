"""Stacked bidirectional LSTM encoder.

Each layer runs one forward and one backward pass over the token sequence
and concatenates their states, so layer input widths are: embedder width for
layer 1, then 2*d_h. The backward pass consumes the reversed sequence and
its outputs are re-reversed before concatenation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm

GATES = ("i", "f", "o", "g")  # input, forget, output, cell candidate


@dataclass
class LstmCellParams:
    """One direction of one layer.

    Weights are stored input-major ([input_dim x d_h] / [d_h x d_h]) so the
    row-vector states multiply without transposes; biases are [1 x d_h].
    """

    w: dict[str, nm.Tensor]   # gate -> input weights
    u: dict[str, nm.Tensor]   # gate -> recurrent weights
    b: dict[str, nm.Tensor]   # gate -> bias

    @property
    def hidden_dim(self) -> int:
        return self.w["i"].shape[1]

    @property
    def input_dim(self) -> int:
        return self.w["i"].shape[0]

    def tensors(self) -> dict[str, nm.Tensor]:
        out = {}
        for store in (self.w, self.u, self.b):
            for gate in GATES:
                t = store[gate]
                out[t.name] = t
        return out


def init_lstm_direction(prefix: str, input_dim: int, d_h: int,
                        rng: np.random.Generator,
                        dtype=np.float32) -> LstmCellParams:
    """Uniform [-0.05, 0.05] weights; forget-gate bias starts at 1."""
    w, u, b = {}, {}, {}
    for gate in GATES:
        w[gate] = nm.parameter(f"{prefix}.w_{gate}",
                               rng.uniform(-0.05, 0.05, (input_dim, d_h)), dtype)
        u[gate] = nm.parameter(f"{prefix}.u_{gate}",
                               rng.uniform(-0.05, 0.05, (d_h, d_h)), dtype)
        bias = np.full((1, d_h), 1.0) if gate == "f" else np.zeros((1, d_h))
        b[gate] = nm.parameter(f"{prefix}.b_{gate}", bias, dtype)
    return LstmCellParams(w, u, b)


@dataclass
class LstmParams:
    """J layers x 2 directions of cell parameters."""

    layers: list[tuple[LstmCellParams, LstmCellParams]]  # (forward, backward)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden_dim(self) -> int:
        return self.layers[0][0].hidden_dim

    def tensors(self) -> dict[str, nm.Tensor]:
        out = {}
        for fw, bw in self.layers:
            out.update(fw.tensors())
            out.update(bw.tensors())
        return out


def init_lstm(input_dim: int, d_h: int, num_layers: int,
              rng: np.random.Generator, dtype=np.float32) -> LstmParams:
    layers = []
    for j in range(num_layers):
        dim = input_dim if j == 0 else 2 * d_h
        fw = init_lstm_direction(f"lstm.{j}.fw", dim, d_h, rng, dtype)
        bw = init_lstm_direction(f"lstm.{j}.bw", dim, d_h, rng, dtype)
        layers.append((fw, bw))
    return LstmParams(layers)


def _run_direction(x: nm.Tensor, params: LstmCellParams,
                   reverse: bool) -> list[nm.Tensor]:
    """All hidden states for one direction, returned in sentence order.

    One step: i,f,o = sigmoid, g = tanh, c = f*c + i*g, h = o*tanh(c).

    The input projections of all timesteps are hoisted into four [n x d_h]
    matmuls; the recurrence then only multiplies by the recurrent weights.
    """
    n = x.shape[0]
    d_h = params.hidden_dim
    pre_x = {gate: x @ params.w[gate] + params.b[gate] for gate in GATES}
    h = nm.constant(np.zeros((1, d_h)), dtype=x.dtype)
    c = nm.constant(np.zeros((1, d_h)), dtype=x.dtype)
    order = range(n - 1, -1, -1) if reverse else range(n)
    states: dict[int, nm.Tensor] = {}
    for t in order:
        pre = {gate: nm.rows(pre_x[gate], [t]) + h @ params.u[gate]
               for gate in GATES}
        i = nm.sigmoid(pre["i"])
        f = nm.sigmoid(pre["f"])
        o = nm.sigmoid(pre["o"])
        g = nm.tanh(pre["g"])
        c = f * c + i * g
        h = o * nm.tanh(c)
        states[t] = h
    return [states[t] for t in range(n)]


def bilstm_encode(x: nm.Tensor, params: LstmParams) -> nm.Tensor:
    """Encode [n x input_dim] into [n x 2*d_h] through all stacked layers."""
    h = x
    for fw, bw in params.layers:
        forward = _run_direction(h, fw, reverse=False)
        backward = _run_direction(h, bw, reverse=True)
        per_token = [nm.concat([forward[t], backward[t]], axis=1)
                     for t in range(x.shape[0])]
        h = nm.concat(per_token, axis=0) if len(per_token) > 1 else per_token[0]
    return h
