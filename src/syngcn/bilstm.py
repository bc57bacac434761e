"""Stacked bidirectional LSTM encoder.

Each layer is one ``nm.bilstm_layer`` op: both directions run in one time
loop and write their states side by side, so layer input widths are:
embedder width for layer 1, then 2*d_h. A direction is three tensors in the
fused-gate layout of Appleyard et al. 2016: ``w`` [input_dim x 4*d_h], ``u``
[d_h x 4*d_h] and ``b`` [1 x 4*d_h], with the gates in i, f, o, g column
blocks, named ``lstm.<layer>.<fw|bw>.<w|u|b>`` in checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm

Direction = tuple[nm.Tensor, nm.Tensor, nm.Tensor]   # (w, u, b)


def lstm_layout(input_dim: int, d_h: int, num_layers: int) -> nm.Layout:
    """Layer by layer, forward then backward direction."""
    for j in range(num_layers):
        dim = input_dim if j == 0 else 2 * d_h
        for side in ("fw", "bw"):
            yield f"lstm.{j}.{side}.w", (dim, 4 * d_h)
            yield f"lstm.{j}.{side}.u", (d_h, 4 * d_h)
            yield f"lstm.{j}.{side}.b", (1, 4 * d_h)


@dataclass
class LstmParams:
    """J layers x 2 directions."""

    layers: list[tuple[Direction, Direction]]  # (forward, backward)


def lstm_params(tensors, num_layers: int) -> LstmParams:
    return LstmParams([tuple(tuple(tensors[f"lstm.{j}.{side}.{k}"]
                                   for k in "wub")
                             for side in ("fw", "bw"))
                       for j in range(num_layers)])


def init_lstm_direction(direction: Direction,
                        rng: np.random.Generator) -> None:
    """Uniform [-0.05, 0.05] weights, drawn one gate block at a time (w, u
    for i, f, o, g) in bounded pieces (``nm.fill_uniform``); the
    forget-gate bias is set to 1, the other biases keep the store's
    zeros."""
    w, u, b = (t.data for t in direction)
    d_h = u.shape[0]
    for k in range(4):
        block = slice(k * d_h, (k + 1) * d_h)
        nm.fill_uniform(w[:, block], 0.05, rng)
        nm.fill_uniform(u[:, block], 0.05, rng)
    b[:, d_h:2 * d_h] = 1.0


def init_lstm(params: LstmParams, rng: np.random.Generator) -> None:
    for layer in params.layers:
        for direction in layer:
            init_lstm_direction(direction, rng)


def bilstm_encode(x: nm.Tensor, params: LstmParams,
                  lengths=None) -> nm.Tensor:
    """Encode [n x input_dim] into [n x 2*d_h] through all stacked layers.

    ``x`` holds one sentence, or several as consecutive row blocks of
    ``lengths`` rows, each encoded on its own.
    """
    for fw, bw in params.layers:
        x = nm.bilstm_layer(x, fw, bw, lengths)
    return x
