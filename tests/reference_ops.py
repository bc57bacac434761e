"""Reference layers that no model path runs, kept as test oracles.

Each is built from the per-op tensor ops of ``syngcn.numerics``, so it
differentiates through the tape like any model layer.
"""

from syngcn import numerics as nm
from syngcn.syngraph import SyntacticGraph


def plain_gcn_layer(x: nm.Tensor, graph: SyntacticGraph, weight: nm.Tensor,
                    bias: nm.Tensor) -> nm.Tensor:
    """The untyped, ungated graph convolution: one weight and one bias shared
    by every in-edge, whatever its direction or label."""
    messages = nm.rows(x @ weight, graph.src) + bias
    return nm.relu(nm.segment_sum(messages, graph.dst, graph.n))
