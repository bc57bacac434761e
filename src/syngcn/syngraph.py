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
from typing import NamedTuple

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
    deprel_id: int      # underlying relation id; 0-size meaning for SELF


def self_label_id() -> int:
    return 0


def along_label_id(deprel_id: int, num_deprels: int) -> int:
    return 1 + deprel_id


def opposite_label_id(deprel_id: int, num_deprels: int) -> int:
    return 1 + num_deprels + deprel_id


def num_labels(num_deprels: int) -> int:
    return 2 * num_deprels + 1


def label_name(label_id: int, lexicon: Lexicon) -> str:
    """Human-readable label: "self", the relation, or the primed relation."""
    r = lexicon.num_deprels
    if label_id == 0:
        return "self"
    if label_id <= r:
        return lexicon.string("deprel", label_id - 1)
    return lexicon.string("deprel", label_id - 1 - r) + "'"


class EdgeIndex(NamedTuple):
    """A graph's edges as flat index arrays, grouped by direction (along,
    opposite, self) and, within a direction, in (destination, source) order.

    Direction d's edges are ``[bounds[d], bounds[d + 1])``. ``gather`` is
    ``d*n + src`` and ``scatter`` is ``d*n + dst``: rows of the [3n x m]
    stack of the three directions' per-node arrays.
    """

    src: np.ndarray
    dst: np.ndarray
    labels: np.ndarray
    gather: np.ndarray
    scatter: np.ndarray
    bounds: tuple[int, int, int, int]


class SyntacticGraph:
    """Immutable edge list for one sentence, grouped by destination node.

    ``index()`` gives the flat index arrays the GCN layer consumes, built
    once per graph; edge order within a direction is fixed (by destination,
    then source), which pins the gradient/reduction order.
    """

    def __init__(self, n: int, edges: list[Edge], label_space: int):
        self.n = n
        self._edges: list[Edge] | None = sorted(
            edges, key=lambda e: (e.dst, int(e.direction), e.src))
        self.num_labels = label_space
        self._index: EdgeIndex | None = None
        # each index row's place in ``edges``, set with ``_index``
        self._position: np.ndarray | None = None
        # for a graph made by ``subgraph``: the parent and the keep mask
        # over its edges, from which ``edges`` is made when first asked for
        self._kept: tuple[SyntacticGraph, np.ndarray] | None = None

    @property
    def edges(self) -> list[Edge]:
        """The edges, sorted by (destination, direction, source)."""
        if self._edges is None:
            parent, keep = self._kept
            self._edges = [e for e, k in zip(parent.edges, keep) if k]
        return self._edges

    def __len__(self) -> int:
        if self._edges is None:
            return len(self._index.src)
        return len(self._edges)

    def index(self) -> EdgeIndex:
        """The edges as flat index arrays, built on the first call."""
        if self._index is None:
            edges = self.edges
            position = sorted(range(len(edges)),
                              key=lambda i: int(edges[i].direction))
            grouped = [edges[i] for i in position]
            src = np.array([e.src for e in grouped], dtype=np.intp)
            dst = np.array([e.dst for e in grouped], dtype=np.intp)
            if grouped and (min(src.min(), dst.min()) < 0
                            or max(src.max(), dst.max()) >= self.n):
                raise ContractError(f"edge endpoint outside the {self.n}-node "
                                    f"graph")
            counts = [sum(e.direction == d for e in edges) for d in Direction]
            base = np.repeat(np.arange(3) * self.n, counts)
            self._index = EdgeIndex(
                src, dst, np.array([e.label_id for e in grouped], dtype=np.intp),
                base + src, base + dst,
                (0, counts[0], counts[0] + counts[1], len(edges)))
            self._position = np.array(position, dtype=np.intp)
        return self._index

    def subgraph(self, keep: np.ndarray) -> "SyntacticGraph":
        """The graph of the edges ``e`` of ``self.edges`` with ``keep[e]``
        true: its index is this graph's, masked in order, not rebuilt, and
        its edge list is only made if asked for."""
        idx = self.index()
        rows = np.flatnonzero(keep[self._position])
        out = SyntacticGraph.__new__(SyntacticGraph)
        out.n, out.num_labels = self.n, self.num_labels
        out._edges, out._kept = None, (self, keep)
        out._index = EdgeIndex(*(a[rows] for a in idx[:5]),
                               tuple(rows.searchsorted(idx.bounds).tolist()))
        out._position = (np.cumsum(keep) - 1)[self._position[rows]]
        return out


def build_graph(sentence: Sentence, lexicon: Lexicon) -> SyntacticGraph:
    """Expand a sentence's dependency tree into the message-passing graph.

    Relations unseen at lexicon-build time map to the reserved UNK relation
    (own bias rows, shared direction matrices) with a warning.
    """
    r = lexicon.num_deprels
    edges: list[Edge] = []
    for tok in sentence.tokens:
        v = tok.index - 1
        edges.append(Edge(v, v, Direction.SELF, self_label_id(), -1))
        if tok.head == 0:
            continue
        u = tok.head - 1
        rel = lexicon.lookup("deprel", tok.deprel)
        if not lexicon.has("deprel", tok.deprel):
            logger.warning("unknown relation %r mapped to UNK", tok.deprel)
        edges.append(Edge(u, v, Direction.ALONG, along_label_id(rel, r), rel))
        edges.append(Edge(v, u, Direction.OPPOSITE, opposite_label_id(rel, r), rel))
    return SyntacticGraph(len(sentence), edges, num_labels(r))


def disjoint_union(graphs: list[SyntacticGraph]) -> SyntacticGraph:
    """The graphs side by side as one graph: node v of ``graphs[k]`` becomes
    v plus the node count of ``graphs[:k]``. Edges keep their (destination,
    direction, source) order, so each node sums its messages in the same
    order as in its own graph.
    """
    if len(graphs) == 1:
        return graphs[0]
    edges: list[Edge] = []
    offset = 0
    for g in graphs:
        edges += [Edge(e.src + offset, e.dst + offset, e.direction, e.label_id,
                       e.deprel_id) for e in g.edges]
        offset += g.n
    return SyntacticGraph(offset, edges, graphs[0].num_labels)


def edge_dropout(graph: SyntacticGraph, beta: float,
                 rng: np.random.Generator) -> SyntacticGraph:
    """Drop each in-edge, self-loops included, independently with probability
    ``beta``, from one draw per edge in ``graph.edges`` order. The result is
    a ``subgraph``: the graph's index arrays masked, not a rebuilt graph.
    Training callers resample per layer per forward pass.
    """
    if not 0.0 <= beta <= 1.0:
        raise ConfigError(f"edge dropout probability {beta} outside [0, 1]")
    if beta == 0.0:
        return graph
    draws = rng.random(len(graph))
    return graph.subgraph(draws >= beta)


def drop_relation(graph: SyntacticGraph, deprel_id: int) -> SyntacticGraph:
    """Remove every along/opposite edge whose relation is ``deprel_id``."""
    kept = [e for e in graph.edges
            if e.direction == Direction.SELF or e.deprel_id != deprel_id]
    return SyntacticGraph(graph.n, kept, graph.num_labels)
