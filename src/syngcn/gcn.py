"""Gated graph-convolutional layers over syntactic graphs.

Each layer aggregates, for every token v, messages from its in-neighbors u:

    h'_v = ReLU( sum_u  gate(u,v) * (W_dir(u,v) @ h_u + bias_label(u,v)) )

with one weight matrix per edge direction (along / opposite / self-loop),
one bias vector and one gate bias per extended label, and a scalar gate per
edge computed from the source state. Each layer is one
``numerics.graph_conv`` tape op over all three directions, on the graph's
flat edge arrays. A K-layer stack sees K-hop neighborhoods; K=0 is the
identity (the model builds no stack for its BiLSTM-only baseline). With
gates off and one weight and bias shared by all directions and labels, a
layer reduces to the plain untyped convolution, which the tests keep as an
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .syngraph import Direction, SyntacticGraph, edge_dropout

_DIR_NAMES = {Direction.ALONG: "along", Direction.OPPOSITE: "opposite",
              Direction.SELF: "self"}


@dataclass
class GcnLayerParams:
    """Exactly 3 weight matrices regardless of label-set size; label
    information lives only in the bias tables (one row per extended label).
    ``weights`` and ``gate_weights`` are in ``Direction`` order, so a
    ``Direction`` indexes them."""

    weights: tuple[nm.Tensor, ...]        # each [m x m]
    label_bias: nm.Tensor                 # [num_labels x m]
    gate_weights: tuple[nm.Tensor, ...]   # each [1 x m]
    gate_label_bias: nm.Tensor            # [num_labels x 1]


@dataclass
class GcnStack:
    layers: list[GcnLayerParams]
    input_projection: nm.Tensor | None = None   # [input_dim x m] when widths differ
    gates_enabled: bool = True


def gcn_layout(depth: int, width: int, num_labels: int,
               input_dim: int) -> nm.Layout:
    """The input projection if ``input_dim`` differs from ``width``, then
    each layer, gate tensors included (also for a stack run without gates)."""
    if depth > 0 and input_dim != width:
        yield "gcn.input_proj", (input_dim, width)
    for k in range(depth):
        yield from [(f"gcn.{k}.w_{name}", (width, width))
                    for name in _DIR_NAMES.values()]
        yield f"gcn.{k}.label_bias", (num_labels, width)
        yield from [(f"gcn.{k}.gate_w_{name}", (1, width))
                    for name in _DIR_NAMES.values()]
        yield f"gcn.{k}.gate_label_bias", (num_labels, 1)


def gcn_stack_params(tensors, depth: int,
                     gates_enabled: bool = True) -> GcnStack:
    def by_direction(prefix):
        return tuple(tensors[f"{prefix}_{n}"] for n in _DIR_NAMES.values())

    return GcnStack([GcnLayerParams(by_direction(f"gcn.{k}.w"),
                                    tensors[f"gcn.{k}.label_bias"],
                                    by_direction(f"gcn.{k}.gate_w"),
                                    tensors[f"gcn.{k}.gate_label_bias"])
                     for k in range(depth)],
                    tensors.get("gcn.input_proj"), gates_enabled)


def init_gcn_stack(stack: GcnStack, rng: np.random.Generator) -> None:
    """Uniform [-0.05, 0.05] input projection, then per layer the weights and
    gate weights in direction order; label biases keep the store's zeros."""
    proj = stack.input_projection
    tensors = [] if proj is None else [proj]
    for layer in stack.layers:
        tensors += [*layer.weights, *layer.gate_weights]
    for t in tensors:
        nm.fill_uniform(t.data, 0.05, rng)


def gcn_layer(h: nm.Tensor, graph: SyntacticGraph, params: GcnLayerParams,
              gates_enabled: bool = True) -> nm.Tensor:
    """One gated convolution over [n x m] states: one ``nm.graph_conv`` op
    over all three directions, on the graph's index arrays.

    Nodes whose in-neighborhood is empty (possible after dropout) come out
    as ReLU(0) = 0. The op raises ``ShapeError`` for states that do not fit
    the graph or the weights, ``ContractError`` for label tables that do
    not fit the graph, and ``NumericsError`` if the gate logits or the
    pre-ReLU sums are not finite.
    """
    gates = ((params.gate_weights, params.gate_label_bias) if gates_enabled
             else (None, None))
    return nm.graph_conv(h, params.weights, params.label_bias, *gates, graph)


def gcn_stack_forward(h: nm.Tensor, graph: SyntacticGraph, stack: GcnStack,
                      beta: float = 0.0,
                      rng: np.random.Generator | None = None) -> nm.Tensor:
    """Apply all layers. Given ``rng`` (training), each layer draws its own
    edge dropout at rate ``beta`` from it; without one, nothing is drawn."""
    if stack.input_projection is not None:
        h = h @ stack.input_projection
    for layer in stack.layers:
        g = graph if rng is None else edge_dropout(graph, beta, rng)
        h = gcn_layer(h, g, layer, gates_enabled=stack.gates_enabled)
    return h
