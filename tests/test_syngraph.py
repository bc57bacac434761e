import numpy as np
import pytest

from syngcn import fixtures, syngraph
from syngcn.conll import build_lexicon
from syngcn.errors import ConfigError
from syngcn.syngraph import (Direction, SyntacticGraph, build_graph,
                             disjoint_union, drop_relation, edge_dropout,
                             label_name, num_labels)

from conftest import parse_text
from test_conll import make_sentence


def by_direction(graph):
    """Direction -> (src, dst, label ids) of its edges, from ``index()``."""
    idx = graph.index()
    return {d: tuple(a[idx.bounds[d]:idx.bounds[d + 1]]
                     for a in (idx.src, idx.dst, idx.labels))
            for d in Direction}


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
                        syngraph.along_label_id(e.deprel_id, lex.num_deprels), lex)
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
        idx = graph.index()
        for direction, (src, dst, labels) in by_direction(graph).items():
            assert list(dst) == sorted(dst)
            assert len(src) == len(dst) == len(labels)
            block = slice(idx.bounds[direction], idx.bounds[direction + 1])
            assert np.array_equal(idx.gather[block], direction * graph.n + src)
            assert np.array_equal(idx.scatter[block], direction * graph.n + dst)


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
        # the kept edges' index arrays, in order, equal those of a graph
        # built from the kept Edge objects, and the generator is left as
        # one draw per edge leaves it
        lex = build_lexicon(overfit_sentences)
        graph = build_graph(overfit_sentences[seed], lex)
        rng = np.random.default_rng(seed)
        out = edge_dropout(graph, beta, rng)
        replay = np.random.default_rng(seed)
        draws = replay.random(len(graph.edges))
        assert rng.bit_generator.state == replay.bit_generator.state
        rebuilt = SyntacticGraph(graph.n, [e for e, u in zip(graph.edges, draws)
                                           if u >= beta], graph.num_labels)
        got, want = out.index(), rebuilt.index()
        for field in got._fields:
            assert np.array_equal(getattr(got, field), getattr(want, field)), \
                field
        assert out.edges == rebuilt.edges
        assert len(out) == len(rebuilt)
        # dropping again from the dropped graph masks its own index
        again = edge_dropout(out, 0.5, np.random.default_rng(seed))
        kept = np.random.default_rng(seed).random(len(out)) >= 0.5
        rebuilt_again = SyntacticGraph(
            graph.n, [e for e, k in zip(rebuilt.edges, kept) if k],
            graph.num_labels)
        for field in got._fields:
            assert np.array_equal(getattr(again.index(), field),
                                  getattr(rebuilt_again.index(), field)), field


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
