import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syngcn import fixtures, syngraph
from syngcn.conll import Sentence, Token, build_lexicon
from syngcn.errors import ConfigError, ContractError
from syngcn.syngraph import (Direction, SyntacticGraph, build_graph,
                             disjoint_union, drop_relation, edge_dropout,
                             label_name, num_labels)

from conftest import parse_text
from test_conll import make_sentence

# a graph's arrays, all of which ``nm.graph_conv`` or the edge view reads
FIELDS = ("src", "dst", "direction", "labels", "gather", "scatter", "bounds")


def by_direction(graph):
    """Direction -> (src, dst, label ids) of its edges."""
    b = graph.bounds
    return {d: tuple(a[b[d]:b[d + 1]]
                     for a in (graph.src, graph.dst, graph.labels))
            for d in Direction}


def graph_of(n, edges, label_space):
    """The graph of the given ``Edge`` objects, through the constructor."""
    return SyntacticGraph(n, [e.src for e in edges], [e.dst for e in edges],
                          [e.direction for e in edges],
                          [e.label_id for e in edges], label_space)


@pytest.fixture()
def two_token():
    # "Sequa makes": arc makes -> Sequa labeled subj
    text = make_sentence([
        ("Sequa", "sequa", "NNP", 2, "subj", "_", "_"),
        ("makes", "make", "VBZ", 0, "ROOT", "_", "_"),
    ])
    sents = parse_text(text)
    return sents[0], build_lexicon(sents)


class TestBuildGraph:
    def test_two_token_edges(self, two_token):
        sent, lex = two_token
        graph = build_graph(sent, lex)
        assert len(graph) == 4
        kinds = {(e.src, e.dst, e.direction) for e in graph.edges}
        assert (1, 0, Direction.ALONG) in kinds       # makes -> Sequa
        assert (0, 1, Direction.OPPOSITE) in kinds    # Sequa -> makes
        assert (0, 0, Direction.SELF) in kinds
        assert (1, 1, Direction.SELF) in kinds
        by_dir = {e.direction: e for e in graph.edges
                  if e.direction != Direction.SELF}
        assert label_name(by_dir[Direction.ALONG].label_id, lex) == "subj"
        assert label_name(by_dir[Direction.OPPOSITE].label_id, lex) == "subj'"

    def test_one_token_sentence(self):
        text = make_sentence([("hi", "hi", "UH", 0, "ROOT", "_", "_")])
        sents = parse_text(text)
        graph = build_graph(sents[0], build_lexicon(sents))
        assert len(graph) == 1
        assert graph.edges[0].direction == Direction.SELF
        assert label_name(graph.edges[0].label_id, build_lexicon(sents)) == "self"

    def test_six_token_tree_has_16_edges(self, figure_sentences):
        sents = figure_sentences
        graph = build_graph(sents[0], build_lexicon(sents))
        assert len(graph) == 16          # 3n - 2 for n = 6

    def test_edge_count_formula_over_corpora(self, overfit_sentences,
                                             structural_sentences):
        for sents in (overfit_sentences, structural_sentences):
            lex = build_lexicon(sents)
            for sent in sents:
                graph = build_graph(sent, lex)
                assert len(graph) == 3 * len(sent) - 2

    def test_along_opposite_twins(self, overfit_sentences):
        lex = build_lexicon(overfit_sentences)
        for sent in overfit_sentences:
            graph = build_graph(sent, lex)
            along = {(e.src, e.dst, e.deprel_id) for e in graph.edges
                     if e.direction == Direction.ALONG}
            opposite = {(e.dst, e.src, e.deprel_id) for e in graph.edges
                        if e.direction == Direction.OPPOSITE}
            assert along == opposite
            for e in graph.edges:
                if e.direction == Direction.OPPOSITE:
                    plain = label_name(
                        syngraph.along_label_id(e.deprel_id), lex)
                    assert label_name(e.label_id, lex) == plain + "'"

    def test_every_node_has_self_edge(self, overfit_sentences):
        lex = build_lexicon(overfit_sentences)
        for sent in overfit_sentences:
            graph = build_graph(sent, lex)
            selfs = {e.dst for e in graph.edges if e.direction == Direction.SELF}
            assert selfs == set(range(len(sent)))

    def test_label_space_size(self, overfit_sentences):
        lex = build_lexicon(overfit_sentences)
        graph = build_graph(overfit_sentences[0], lex)
        assert graph.num_labels == 2 * lex.num_deprels + 1
        assert num_labels(48) == 97

    def test_unknown_relation_maps_to_unk(self, two_token, caplog):
        sent, lex = two_token
        import logging
        sent.tokens[0].deprel = "never-seen"
        with caplog.at_level(logging.WARNING):
            graph = build_graph(sent, lex)
        assert "never-seen" in caplog.text
        along = [e for e in graph.edges if e.direction == Direction.ALONG][0]
        assert along.deprel_id == lex.lookup("deprel", "never-seen") == 0

    def test_arrays_grouped_by_destination(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        graph = build_graph(figure_sentences[0], lex)
        for direction, (src, dst, labels) in by_direction(graph).items():
            assert list(dst) == sorted(dst)
            assert len(src) == len(dst) == len(labels)
            block = slice(graph.bounds[direction], graph.bounds[direction + 1])
            assert np.array_equal(graph.gather[block], direction * graph.n + src)
            assert np.array_equal(graph.scatter[block], direction * graph.n + dst)


class TestEdgeDropout:
    def test_beta_zero_is_identity(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        graph = build_graph(figure_sentences[0], lex)
        out = edge_dropout(graph, 0.0, np.random.default_rng(0))
        assert out is graph

    def test_beta_one_empties_neighborhoods(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        graph = build_graph(figure_sentences[0], lex)
        out = edge_dropout(graph, 1.0, np.random.default_rng(0))
        assert len(out) == 0

    def test_invalid_beta(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        graph = build_graph(figure_sentences[0], lex)
        for bad in (-0.1, 1.5):
            with pytest.raises(ConfigError):
                edge_dropout(graph, bad, np.random.default_rng(0))

    def test_keep_rate_binomial(self, figure_sentences):
        # 16-edge graph, beta=0.3 over 10000 trials: kept fraction within
        # 3 sigma of the binomial mean
        lex = build_lexicon(figure_sentences)
        graph = build_graph(figure_sentences[0], lex)
        rng = np.random.default_rng(123)
        trials = 10_000
        kept = sum(len(edge_dropout(graph, 0.3, rng)) for _ in range(trials))
        total = trials * len(graph)
        p = 0.7
        sigma = (p * (1 - p) / total) ** 0.5
        assert abs(kept / total - p) < 3 * sigma

    def test_reproducible_given_seed(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        graph = build_graph(figure_sentences[0], lex)
        a = edge_dropout(graph, 0.5, np.random.default_rng(7)).edges
        b = edge_dropout(graph, 0.5, np.random.default_rng(7)).edges
        assert a == b

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.0])
    def test_masked_index_equals_rebuilt_graph(self, overfit_sentences, seed,
                                               beta):
        # the kept edges' arrays, in order, equal those of a graph built
        # from the kept edges, and the generator is left as one draw per
        # edge leaves it
        lex = build_lexicon(overfit_sentences)
        graph = build_graph(overfit_sentences[seed], lex)
        rng = np.random.default_rng(seed)
        out = edge_dropout(graph, beta, rng)
        replay = np.random.default_rng(seed)
        draws = replay.random(len(graph.edges))
        assert rng.bit_generator.state == replay.bit_generator.state
        rebuilt = graph_of(graph.n, [e for e, u in zip(graph.edges, draws)
                                     if u >= beta], graph.num_labels)
        for field in FIELDS:
            assert np.array_equal(getattr(out, field), getattr(rebuilt, field)), \
                field
        assert out.edges == rebuilt.edges
        assert len(out) == len(rebuilt)
        # dropping again from the dropped graph masks its own arrays
        again = edge_dropout(out, 0.5, np.random.default_rng(seed))
        kept = np.random.default_rng(seed).random(len(out)) >= 0.5
        rebuilt_again = graph_of(
            graph.n, [e for e, k in zip(rebuilt.edges, kept) if k],
            graph.num_labels)
        for field in FIELDS:
            assert np.array_equal(getattr(again, field),
                                  getattr(rebuilt_again, field)), field


class TestDropRelation:
    def test_drop_only_relation_leaves_self_loops(self, two_token):
        sent, lex = two_token
        graph = build_graph(sent, lex)
        out = drop_relation(graph, lex.lookup("deprel", "subj"))
        assert len(out) == 2
        assert all(e.direction == Direction.SELF for e in out.edges)

    def test_drop_absent_relation_is_noop(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        graph = build_graph(figure_sentences[0], lex)
        out = drop_relation(graph, 999)
        assert out.edges == graph.edges

    def test_idempotent(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        graph = build_graph(figure_sentences[0], lex)
        rel = lex.lookup("deprel", "OBJ")
        once = drop_relation(graph, rel)
        twice = drop_relation(once, rel)
        assert once.edges == twice.edges


class TestDisjointUnion:
    def test_offsets_and_in_edge_order(self, overfit_sentences):
        lex = build_lexicon(overfit_sentences)
        graphs = [build_graph(s, lex) for s in overfit_sentences[:3]]
        union = disjoint_union(graphs)
        assert union.n == sum(g.n for g in graphs)
        assert union.num_labels == graphs[0].num_labels
        offset = 0
        for g in graphs:
            for d in Direction:
                src, dst, labels = by_direction(g)[d]
                u_src, u_dst, u_labels = by_direction(union)[d]
                mine = (u_dst >= offset) & (u_dst < offset + g.n)
                # each node's in-edges, in order, shifted by the offset
                assert np.array_equal(u_src[mine], src + offset)
                assert np.array_equal(u_dst[mine], dst + offset)
                assert np.array_equal(u_labels[mine], labels)
            offset += g.n

    def test_one_graph_is_itself(self, figure_sentences):
        graph = build_graph(figure_sentences[0], build_lexicon(figure_sentences))
        assert disjoint_union([graph]) is graph


# ---------------------------------------------------------------------------
# the array operations against a per-edge Python reference
# ---------------------------------------------------------------------------

REF_LEXICON = build_lexicon(parse_text(fixtures.figure_sentence()))
# known relations of REF_LEXICON and two it never saw (both UNK)
RELATIONS = ("SBJ", "OBJ", "NMOD", "ROOT", "NEW1", "NEW2")


@st.composite
def random_sentences(draw, max_tokens=9):
    """A sentence over a random head array: a forest (one or more roots) or
    a chain, over a random node order, one-token sentences included."""
    n = draw(st.integers(1, max_tokens))
    chain = draw(st.booleans())
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for k in range(1, n):
        parent = k - 1 if chain else draw(st.integers(-1, k - 1))
        heads[order[k]] = 0 if parent < 0 else order[parent] + 1
    tokens = [Token(i + 1, f"w{i}", f"w{i}", "N", heads[i],
                    draw(st.sampled_from(RELATIONS)) if heads[i] else "ROOT",
                    False) for i in range(n)]
    return Sentence(tokens, [], [])


# every way the program makes a graph
GRAPH_PATHS = ("constructor", "build_graph", "disjoint_union", "edge_dropout",
               "drop_relation")


@st.composite
def built_graphs(draw, path):
    """A graph made the way ``path`` names: the constructor over arbitrary
    edges (repeats and empty directions included), ``build_graph`` of a
    random sentence, or a union of up to four, with edge dropout or a
    relation removed."""
    if path == "constructor":
        n, size = draw(st.integers(1, 6)), draw(st.integers(0, 14))
        ends, kinds = (st.lists(st.integers(0, hi), min_size=size,
                                max_size=size) for hi in (n - 1, 2))
        return SyntacticGraph(n, draw(ends), draw(ends), draw(kinds),
                              draw(kinds), 3)
    graphs = [build_graph(s, REF_LEXICON) for s in
              draw(st.lists(random_sentences(), min_size=1, max_size=4))]
    if path == "build_graph":
        return graphs[0]
    union = disjoint_union(graphs)
    if path == "edge_dropout":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return edge_dropout(union, draw(st.floats(0.0, 1.0)), rng)
    if path == "drop_relation":
        return drop_relation(union, REF_LEXICON.lookup(
            "deprel", draw(st.sampled_from(RELATIONS))))
    return union


def reference_edges(sentence, lexicon):
    """(src, dst, direction, label, relation) per edge, token by token."""
    r = lexicon.num_deprels
    edges = []
    for tok in sentence.tokens:
        v = tok.index - 1
        edges.append((v, v, Direction.SELF, 0, -1))
        if tok.head:
            u, rel = tok.head - 1, lexicon.lookup("deprel", tok.deprel)
            edges.append((u, v, Direction.ALONG, 1 + rel, rel))
            edges.append((v, u, Direction.OPPOSITE, 1 + r + rel, rel))
    return edges


def reference_arrays(n, edges):
    """Field -> value for ``edges`` grouped by direction, then in
    (destination, source) order."""
    ordered = sorted(edges, key=lambda e: (e[2], e[1], e[0]))
    counts = [sum(e[2] == d for e in edges) for d in Direction]
    return {"src": [e[0] for e in ordered], "dst": [e[1] for e in ordered],
            "direction": [e[2] for e in ordered],
            "labels": [e[3] for e in ordered],
            "gather": [e[2] * n + e[0] for e in ordered],
            "scatter": [e[2] * n + e[1] for e in ordered],
            "bounds": (0, counts[0], counts[0] + counts[1], len(edges))}


def reference_dropout(edges, beta, rng):
    """The edges kept by one draw each, drawn in (destination, direction,
    source) order."""
    if beta == 0.0:
        return list(edges)
    in_draw_order = sorted(edges, key=lambda e: (e[1], e[2], e[0]))
    draws = rng.random(len(edges))
    return [e for e, u in zip(in_draw_order, draws) if u >= beta]


def assert_matches(graph, n, edges):
    assert graph.n == n
    for field, want in reference_arrays(n, edges).items():
        got = getattr(graph, field)
        assert np.array_equal(got, want), field
        if field != "bounds":
            assert got.dtype == np.intp, field
    view = [syngraph.Edge(*e) for e in
            sorted(edges, key=lambda e: (e[1], e[2], e[0]))]
    assert list(graph.edges) == view


class TestAgainstPerEdgeReference:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(random_sentences(), min_size=1, max_size=4),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
           st.sampled_from(RELATIONS))
    def test_build_union_dropout_and_removal(self, sents, beta, seed,
                                             dropped):
        lex = REF_LEXICON
        graphs = [build_graph(s, lex) for s in sents]
        union_edges, offset = [], 0
        for sent, graph in zip(sents, graphs):
            edges = reference_edges(sent, lex)
            assert_matches(graph, len(sent), edges)
            union_edges += [(u + offset, v + offset, d, label, rel)
                            for u, v, d, label, rel in edges]
            offset += len(sent)
        union = disjoint_union(graphs)
        assert_matches(union, offset, union_edges)

        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        once = edge_dropout(union, beta, rng)
        kept = reference_dropout(union_edges, beta, replay)
        assert_matches(once, offset, kept)
        twice = edge_dropout(once, beta, rng)
        assert_matches(twice, offset, reference_dropout(kept, beta, replay))
        assert rng.bit_generator.state == replay.bit_generator.state

        rel = lex.lookup("deprel", dropped)
        assert_matches(drop_relation(union, rel), offset,
                       [e for e in union_edges
                        if e[2] == Direction.SELF or e[4] != rel])
        assert_matches(drop_relation(once, rel), offset,
                       [e for e in kept
                        if e[2] == Direction.SELF or e[4] != rel])

    @pytest.mark.parametrize("path", GRAPH_PATHS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_scatter_is_non_decreasing(self, path, data):
        # nm.graph_conv sums each row's messages in rounds, which needs the
        # scatter rows sorted
        graph = data.draw(built_graphs(path))
        assert (np.diff(graph.scatter) >= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_endpoint_outside_the_graph_is_refused(self, n, data):
        size = data.draw(st.integers(1, 5))
        ends = [data.draw(st.lists(st.integers(0, n - 1), min_size=size,
                                   max_size=size)) for _ in range(2)]
        bad = data.draw(st.one_of(st.integers(-3, -1), st.integers(n, n + 3)))
        ends[data.draw(st.integers(0, 1))][data.draw(
            st.integers(0, size - 1))] = bad
        with pytest.raises(ContractError, match="outside"):
            SyntacticGraph(n, ends[0], ends[1], [Direction.SELF] * size,
                           [0] * size, 3)
