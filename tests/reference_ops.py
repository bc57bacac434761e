"""Reference computations that no model path runs, kept as test oracles.

``plain_gcn_layer`` is built from the per-op tensor ops of
``syngcn.numerics``, so it differentiates through the tape like any model
layer. ``row_blocks`` and ``fused_in_row_blocks`` write out, apart from
the program's code, the row blocks in which a fused Adam step takes a
weight's gradient product.
"""

import contextlib
import re

import numpy as np
import pytest

from syngcn import numerics as nm
from syngcn.syngraph import SyntacticGraph


def plain_gcn_layer(x: nm.Tensor, graph: SyntacticGraph, weight: nm.Tensor,
                    bias: nm.Tensor) -> nm.Tensor:
    """The untyped, ungated graph convolution: one weight and one bias shared
    by every in-edge, whatever its direction or label."""
    messages = nm.rows(x @ weight, graph.src) + bias
    return nm.relu(nm.segment_sum(messages, graph.dst, graph.n))


def row_blocks(a: np.ndarray, b: np.ndarray, block: int) -> np.ndarray:
    """``a @ b`` as a fused Adam step with ``block``-element blocks computes
    it: row block by row block, each an even number of rows (at least two)
    of about ``block`` elements, with a shorter rest joined to the last."""
    rows, n = a.shape[0], b.shape[1]
    step = max(2, block // n // 2 * 2)
    edges = [*range(0, rows, step), rows]
    if len(edges) > 2 and edges[-1] - edges[-2] < step:
        edges.pop(-2)
    return np.concatenate([a[i:j] @ b for i, j in zip(edges, edges[1:])])


@contextlib.contextmanager
def fused_in_row_blocks(names: str):
    """Inside the block, a backward pass without a store computes the
    gradient product of each tensor whose name matches the regex ``names``
    in the row blocks of ``nm._ADAM_BLOCK`` elements that a fused step
    takes it in (``row_blocks``), and every other product as before."""
    fused, accumulate = re.compile(names), nm._accumulate_product

    def blocked(t, a, b):
        if t.name is not None and fused.fullmatch(t.name):
            nm._accumulate(t, row_blocks(a, b, nm._ADAM_BLOCK))
        else:
            accumulate(t, a, b)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(nm, "_accumulate_product", blocked)
        yield
