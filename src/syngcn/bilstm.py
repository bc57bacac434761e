"""Stacked bidirectional LSTM encoder.

Each layer runs one forward and one backward ``nm.lstm`` over the token
sequences and concatenates their states, so layer input widths are: embedder
width for layer 1, then 2*d_h. A direction is three tensors in the fused-gate
layout of Appleyard et al. 2016: ``w`` [input_dim x 4*d_h], ``u``
[d_h x 4*d_h] and ``b`` [1 x 4*d_h], with the gates in i, f, o, g column
blocks, named ``lstm.<layer>.<fw|bw>.<w|u|b>`` in checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm

Direction = tuple[nm.Tensor, nm.Tensor, nm.Tensor]   # (w, u, b)


def init_lstm_direction(prefix: str, input_dim: int, d_h: int,
                        rng: np.random.Generator,
                        dtype=np.float32) -> Direction:
    """Uniform [-0.05, 0.05] weights; forget-gate bias starts at 1. Drawn one
    gate block at a time (w, u for i, f, o, g): float64 draws stay gate-sized.
    """
    w = np.empty((input_dim, 4 * d_h), dtype)
    u = np.empty((d_h, 4 * d_h), dtype)
    for k in range(4):
        block = slice(k * d_h, (k + 1) * d_h)
        w[:, block] = rng.uniform(-0.05, 0.05, (input_dim, d_h))
        u[:, block] = rng.uniform(-0.05, 0.05, (d_h, d_h))
    b = np.zeros((1, 4 * d_h), dtype)
    b[:, d_h:2 * d_h] = 1.0
    return (nm.parameter(f"{prefix}.w", w), nm.parameter(f"{prefix}.u", u),
            nm.parameter(f"{prefix}.b", b))


@dataclass
class LstmParams:
    """J layers x 2 directions."""

    layers: list[tuple[Direction, Direction]]  # (forward, backward)


def init_lstm(input_dim: int, d_h: int, num_layers: int,
              rng: np.random.Generator, dtype=np.float32) -> LstmParams:
    layers = []
    for j in range(num_layers):
        dim = input_dim if j == 0 else 2 * d_h
        fw = init_lstm_direction(f"lstm.{j}.fw", dim, d_h, rng, dtype)
        bw = init_lstm_direction(f"lstm.{j}.bw", dim, d_h, rng, dtype)
        layers.append((fw, bw))
    return LstmParams(layers)


def bilstm_encode(x: nm.Tensor, params: LstmParams,
                  lengths=None) -> nm.Tensor:
    """Encode [n x input_dim] into [n x 2*d_h] through all stacked layers.

    ``x`` holds one sentence, or several as consecutive row blocks of
    ``lengths`` rows, each encoded on its own.
    """
    h = x
    for fw, bw in params.layers:
        h = nm.concat([nm.lstm(h, *fw, lengths=lengths),
                       nm.lstm(h, *bw, reverse=True, lengths=lengths)], axis=1)
    return h
