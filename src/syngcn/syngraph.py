"""Labeled directed graphs over dependency trees.

Each dependency arc head->dependent becomes two edges: one running along the
arc (carrying the relation label) and one opposite twin from dependent back
to head (carrying the primed label). Every token additionally gets a
self-loop. Attachments to the virtual root contribute no edge, so an n-token
tree always yields 3n-2 edges. With R relation types in the lexicon the
extended label space has size 2R+1: the self label, R plain labels and R
primed ones.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .conll import Lexicon, Sentence
from .errors import ConfigError, ContractError

logger = logging.getLogger(__name__)


class Direction(enum.IntEnum):
    ALONG = 0
    OPPOSITE = 1
    SELF = 2


@dataclass(frozen=True)
class Edge:
    src: int            # 0-based token index the message comes from
    dst: int            # 0-based token index whose neighborhood it joins
    direction: Direction
    label_id: int       # id in the extended (self/plain/primed) label space
    deprel_id: int      # underlying relation id; -1 for SELF


def along_label_id(deprel_id):
    return 1 + deprel_id


def opposite_label_id(deprel_id, num_deprels: int):
    return 1 + num_deprels + deprel_id


def num_labels(num_deprels: int) -> int:
    return 2 * num_deprels + 1


def relation_ids(labels: np.ndarray, label_space: int) -> np.ndarray:
    """Each extended label's relation id: -1 for the self label."""
    r = (label_space - 1) // 2
    return np.where(labels == 0, -1, (labels - 1) % r)


def label_name(label_id: int, lexicon: Lexicon) -> str:
    """Human-readable label: "self", the relation, or the primed relation."""
    r = lexicon.num_deprels
    if label_id == 0:
        return "self"
    if label_id <= r:
        return lexicon.string("deprel", label_id - 1)
    return lexicon.string("deprel", label_id - 1 - r) + "'"


class SyntacticGraph:
    """One graph's edges as flat index arrays, the form ``nm.graph_conv``
    reads: ``src``, ``dst``, ``labels`` and ``direction`` per edge, grouped
    by direction (along, opposite, self) and, within a direction, in
    (destination, source) order, which pins the reduction order.

    Direction d's edges are ``[bounds[d], bounds[d + 1])``. ``gather`` is
    ``d*n + src`` and ``scatter`` is ``d*n + dst``: rows of the [3n x m]
    stack of the three directions' per-node arrays. ``scatter`` is thus
    non-decreasing, which ``nm.graph_conv``'s per-node sum relies on. The
    constructor checks the endpoints and sorts its input; graphs made from
    other graphs (union, dropout, relation removal) keep their order
    without sorting.
    """

    def __init__(self, n: int, src, dst, direction, labels, label_space: int):
        src, dst, direction, labels = (np.asarray(a, dtype=np.intp).reshape(-1)
                                       for a in (src, dst, direction, labels))
        if len(src) and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= n):
            raise ContractError(f"edge endpoint outside the {n}-node graph")
        if len(src) and not 0 <= direction.min() <= direction.max() <= 2:
            raise ContractError("edge direction outside along/opposite/self")
        order = np.lexsort((src, dst, direction))
        self._fill(n, label_space, src[order], dst[order], direction[order],
                   labels[order])

    def _fill(self, n: int, label_space: int, src: np.ndarray, dst: np.ndarray,
              direction: np.ndarray, labels: np.ndarray) -> None:
        """Set the arrays from edges already in graph order."""
        self.n, self.num_labels = n, label_space
        self.src, self.dst, self.direction, self.labels = (src, dst, direction,
                                                           labels)
        self.gather = direction * n + src
        self.scatter = direction * n + dst
        self.bounds = tuple(direction.searchsorted(np.arange(4)).tolist())

    def __len__(self) -> int:
        return len(self.src)

    def _draw_order(self) -> np.ndarray:
        """The edges' places in (destination, direction, source) order."""
        return np.lexsort((self.src, self.direction, self.dst))

    def _masked(self, keep: np.ndarray) -> SyntacticGraph:
        """The graph of the edges with ``keep`` true, in the same order."""
        out = object.__new__(SyntacticGraph)
        out._fill(self.n, self.num_labels, self.src[keep], self.dst[keep],
                  self.direction[keep], self.labels[keep])
        return out

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges as ``Edge`` objects in (destination, direction, source)
        order: a read-only view, made on each call."""
        order = self._draw_order()
        columns = (self.src, self.dst, self.direction, self.labels,
                   relation_ids(self.labels, self.num_labels))
        return tuple(Edge(s, d, Direction(k), l, r) for s, d, k, l, r in
                     zip(*(c[order].tolist() for c in columns)))


def build_graph(sentence: Sentence, lexicon: Lexicon) -> SyntacticGraph:
    """Expand a sentence's dependency tree into the message-passing graph.

    Relations unseen at lexicon-build time map to the reserved UNK relation
    (own bias rows, shared direction matrices) with a warning.
    """
    r = lexicon.num_deprels
    arcs = []
    for tok in sentence.tokens:
        if tok.head == 0:
            continue
        if not lexicon.has("deprel", tok.deprel):
            logger.warning("unknown relation %r mapped to UNK", tok.deprel)
        arcs.append((tok.head - 1, tok.index - 1,
                     lexicon.lookup("deprel", tok.deprel)))
    head, dep, rel = np.array(arcs, dtype=np.intp).reshape(-1, 3).T
    nodes = np.arange(len(sentence))
    self_labels = np.zeros_like(nodes)
    return SyntacticGraph(
        len(nodes), np.concatenate([head, dep, nodes]),
        np.concatenate([dep, head, nodes]),
        np.repeat(tuple(Direction), [len(rel), len(rel), len(nodes)]),
        np.concatenate([along_label_id(rel), opposite_label_id(rel, r),
                        self_labels]), num_labels(r))


def disjoint_union(graphs: list[SyntacticGraph]) -> SyntacticGraph:
    """The graphs side by side as one graph: node v of ``graphs[k]`` becomes
    v plus the node count of ``graphs[:k]``. Each direction's edges are the
    graphs' edges of that direction one graph after another, so each node
    sums its messages in the same order as in its own graph.
    """
    if len(graphs) == 1:
        return graphs[0]
    offsets = np.cumsum([0] + [g.n for g in graphs])
    blocks = [(g, slice(g.bounds[d], g.bounds[d + 1]), off)
              for d in Direction for g, off in zip(graphs, offsets.tolist())]
    out = object.__new__(SyntacticGraph)
    out._fill(int(offsets[-1]), graphs[0].num_labels,
              np.concatenate([g.src[b] + off for g, b, off in blocks]),
              np.concatenate([g.dst[b] + off for g, b, off in blocks]),
              np.concatenate([g.direction[b] for g, b, _ in blocks]),
              np.concatenate([g.labels[b] for g, b, _ in blocks]))
    return out


def edge_dropout(graph: SyntacticGraph, beta: float,
                 rng: np.random.Generator) -> SyntacticGraph:
    """Drop each in-edge, self-loops included, independently with probability
    ``beta``. One draw per edge, taken in (destination, direction, source)
    order; the kept edges keep their order. Training callers resample per
    layer per forward pass.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"edge dropout probability {beta} outside [0, 1]")
    if beta == 0.0:
        return graph
    keep = np.empty(len(graph), dtype=bool)
    keep[graph._draw_order()] = rng.random(len(graph)) >= beta
    return graph._masked(keep)


def drop_relation(graph: SyntacticGraph, deprel_id: int) -> SyntacticGraph:
    """Remove every along/opposite edge whose relation is ``deprel_id``."""
    return graph._masked(relation_ids(graph.labels, graph.num_labels)
                         != deprel_id)
