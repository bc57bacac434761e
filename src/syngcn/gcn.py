"""Gated graph-convolutional layers over syntactic graphs.

Each layer aggregates, for every token v, messages from its in-neighbors u:

    h'_v = ReLU( sum_u  gate(u,v) * (W_dir(u,v) @ h_u + bias_label(u,v)) )

with one weight matrix per edge direction (along / opposite / self-loop),
one bias vector and one gate bias per extended label, and a scalar gate per
edge computed from the source state. Each layer is one
``numerics.graph_conv`` tape op over all three directions, on the graph's
flat edge arrays. A K-layer stack sees K-hop neighborhoods; K=0 is the
identity (the model builds no stack for its BiLSTM-only baseline). The plain
untyped layer (shared weight and bias, no gates) is kept, built per op, as a
testable reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .errors import ContractError, ShapeError
from .syngraph import Direction, SyntacticGraph, edge_dropout

_DIR_NAMES = {Direction.ALONG: "along", Direction.OPPOSITE: "opposite",
              Direction.SELF: "self"}


@dataclass
class GcnLayerParams:
    """Exactly 3 weight matrices regardless of label-set size; label
    information lives only in the bias tables (one row per extended label)."""

    weights: dict[Direction, nm.Tensor]       # each [m x m]
    label_bias: nm.Tensor                     # [num_labels x m]
    gate_weights: dict[Direction, nm.Tensor]  # each [1 x m]
    gate_label_bias: nm.Tensor                # [num_labels x 1]

    @property
    def width(self) -> int:
        return self.weights[Direction.ALONG].shape[0]

    @property
    def num_labels(self) -> int:
        return self.label_bias.shape[0]


def init_gcn_layer(prefix: str, width: int, num_labels: int,
                   rng: np.random.Generator, dtype=np.float32) -> GcnLayerParams:
    weights = {d: nm.parameter(f"{prefix}.w_{_DIR_NAMES[d]}",
                               rng.uniform(-0.05, 0.05, (width, width)), dtype)
               for d in Direction}
    label_bias = nm.parameter(f"{prefix}.label_bias",
                              np.zeros((num_labels, width)), dtype)
    gate_weights = {d: nm.parameter(f"{prefix}.gate_w_{_DIR_NAMES[d]}",
                                    rng.uniform(-0.05, 0.05, (1, width)), dtype)
                    for d in Direction}
    gate_label_bias = nm.parameter(f"{prefix}.gate_label_bias",
                                   np.zeros((num_labels, 1)), dtype)
    return GcnLayerParams(weights, label_bias, gate_weights, gate_label_bias)


@dataclass
class GcnStack:
    layers: list[GcnLayerParams]
    input_projection: nm.Tensor | None = None   # [input_dim x m] when widths differ
    gates_enabled: bool = True

    @property
    def depth(self) -> int:
        return len(self.layers)


def init_gcn_stack(depth: int, width: int, num_labels: int, input_dim: int,
                   rng: np.random.Generator, dtype=np.float32,
                   gates_enabled: bool = True) -> GcnStack:
    projection = None
    if depth > 0 and input_dim != width:
        projection = nm.parameter("gcn.input_proj",
                                  rng.uniform(-0.05, 0.05, (input_dim, width)),
                                  dtype)
    layers = [init_gcn_layer(f"gcn.{k}", width, num_labels, rng, dtype)
              for k in range(depth)]
    return GcnStack(layers, projection, gates_enabled)


def gcn_layer(h: nm.Tensor, graph: SyntacticGraph, params: GcnLayerParams,
              gates_enabled: bool = True) -> nm.Tensor:
    """One gated convolution over [n x m] states: one ``nm.graph_conv`` op
    over all three directions, on the graph's index arrays.

    Nodes whose in-neighborhood is empty (possible after dropout) come out
    as ReLU(0) = 0. The op raises ``NumericsError`` if the gate logits or
    the pre-ReLU sums are not finite.
    """
    n = h.shape[0]
    if n != graph.n:
        raise ShapeError(f"gcn_layer: {n} state rows for a {graph.n}-node graph")
    if graph.num_labels != params.num_labels:
        raise ContractError(f"gcn_layer: graph has {graph.num_labels} labels, "
                            f"params have {params.num_labels}")
    gate_weights = gate_label_bias = None
    if gates_enabled:
        gate_weights = [params.gate_weights[d] for d in Direction]
        gate_label_bias = params.gate_label_bias
    return nm.graph_conv(h, [params.weights[d] for d in Direction],
                         params.label_bias, gate_weights, gate_label_bias,
                         graph)


def plain_gcn_layer(x: nm.Tensor, graph: SyntacticGraph, weight: nm.Tensor,
                    bias: nm.Tensor) -> nm.Tensor:
    """The untyped, ungated reduction: shared weight/bias over all in-edges."""
    messages = nm.rows(x @ weight, graph.src) + bias
    return nm.relu(nm.segment_sum(messages, graph.dst, graph.n))


def gcn_stack_forward(h: nm.Tensor, graph: SyntacticGraph, stack: GcnStack,
                      training: bool = False, beta: float = 0.0,
                      rng: np.random.Generator | None = None) -> nm.Tensor:
    """Apply all layers; edge dropout is resampled fresh for each layer."""
    if stack.input_projection is not None:
        h = h @ stack.input_projection
    elif stack.depth > 0 and h.shape[1] != stack.layers[0].width:
        raise ShapeError(f"gcn stack: input width {h.shape[1]} != layer width "
                         f"{stack.layers[0].width} and no projection configured")
    for layer in stack.layers:
        g = graph
        if training and beta > 0.0:
            if rng is None:
                raise ContractError("edge dropout needs an rng in training mode")
            g = edge_dropout(graph, beta, rng)
        h = gcn_layer(h, g, layer, gates_enabled=stack.gates_enabled)
    return h
