import logging

import numpy as np
import pytest

from syngcn import numerics as nm
from syngcn.conll import build_lexicon
from syngcn.embedder import EmbeddingTables, embed_sentence, load_pretrained
from syngcn.errors import FormatError

from conftest import parse_text
from test_conll import make_sentence


@pytest.fixture()
def two_word_lexicon():
    text = make_sentence([
        ("aa", "aa", "N", 2, "R", "_", "_"),
        ("bb", "bb", "V", 0, "ROOT", "_", "_"),
    ])
    return build_lexicon(parse_text(text))


class TestLoadPretrained:
    def test_partial_coverage(self, tmp_path, two_word_lexicon):
        path = tmp_path / "emb.txt"
        path.write_text("aa 0.1 0.2 0.3\ncc 0.4 0.5 0.6\n")
        table, report = load_pretrained(path, two_word_lexicon)
        assert report.hit_rate == 0.5
        aa_row = table[two_word_lexicon.lookup("word", "aa")]
        bb_row = table[two_word_lexicon.lookup("word", "bb")]
        assert np.allclose(aa_row, [0.1, 0.2, 0.3])
        assert np.array_equal(bb_row, np.zeros(3))   # the one zero row

    def test_empty_file(self, tmp_path, two_word_lexicon):
        path = tmp_path / "empty.txt"
        path.write_text("")
        table, report = load_pretrained(path, two_word_lexicon, expected_dim=3)
        assert report.hit_rate == 0.0
        assert np.array_equal(table, np.zeros_like(table))

    def test_duplicate_last_wins(self, tmp_path, two_word_lexicon, caplog):
        path = tmp_path / "dup.txt"
        path.write_text("aa 1 1 1\naa 2 2 2\n")
        with caplog.at_level(logging.WARNING):
            table, report = load_pretrained(path, two_word_lexicon)
        assert "duplicate" in caplog.text
        aa = two_word_lexicon.lookup("word", "aa")
        assert np.allclose(table[aa], [2, 2, 2])
        assert report.duplicates == 1

    def test_dimension_mismatch_names_line(self, tmp_path, two_word_lexicon):
        path = tmp_path / "bad.txt"
        path.write_text("aa 1 2 3\nbb 1 2\n")
        with pytest.raises(FormatError, match=":2"):
            load_pretrained(path, two_word_lexicon)

    def test_lowercased_matching(self, tmp_path):
        text = make_sentence([("Paris", "paris", "NNP", 0, "ROOT", "_", "_")])
        lex = build_lexicon(parse_text(text))
        path = tmp_path / "emb.txt"
        path.write_text("paris 1 2\n")
        table, report = load_pretrained(path, lex)
        assert report.hit_rate == 1.0
        assert np.allclose(table[lex.lookup("word", "Paris")], [1, 2])


def tables_for(lexicon, d_w=4, d_pos=3, d_l=5, seed=0, pretrained=None):
    return EmbeddingTables(lexicon, d_w, d_pos, d_l,
                           np.random.default_rng(seed), pretrained=pretrained)


class TestEmbedSentence:
    def test_paper_width(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        tables = tables_for(lex, d_w=100, d_pos=16, d_l=100)
        assert tables.width == 316
        out = embed_sentence(figure_sentences[0], 1, tables, lex)
        assert out.shape == (6, 316)

    def test_zero_tables_give_zero_rows(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        tables = tables_for(lex)
        for t in (tables.word, tables.pos, tables.lemma):
            t.data[:] = 0.0
        out = embed_sentence(figure_sentences[0], 1, tables, lex)
        assert np.array_equal(out.data, np.zeros_like(out.data))

    def test_lemma_slice_only_on_predicate_row(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        tables = tables_for(lex)
        out = embed_sentence(figure_sentences[0], 1, tables, lex).data
        lemma_slice = out[:, -tables.d_l:]
        nonzero_rows = np.flatnonzero(np.abs(lemma_slice).sum(axis=1))
        assert list(nonzero_rows) == [1]

    def test_two_predicates_differ_only_in_lemma_slice(self, overfit_sentences):
        lex = build_lexicon(overfit_sentences)
        tables = tables_for(lex)
        sent = next(s for s in overfit_sentences if len(s.predicates) == 2)
        a = embed_sentence(sent, sent.predicates[0] - 1, tables, lex).data
        b = embed_sentence(sent, sent.predicates[1] - 1, tables, lex).data
        d_l = tables.d_l
        assert np.array_equal(a[:, :-d_l], b[:, :-d_l])
        assert not np.array_equal(a[:, -d_l:], b[:, -d_l:])

    def test_pretrained_slice_gets_no_gradient(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        pre = np.full((lex.size("word"), 4), 0.25)
        tables = tables_for(lex, pretrained=pre)
        before = tables.word_pretrained.data.copy()
        with nm.Tape() as tape:
            out = embed_sentence(figure_sentences[0], 1, tables, lex)
            loss = nm.sum_all(out)
        grads = tape.gradients(loss)
        assert "embed.word_pretrained" not in grads
        assert "embed.word" in grads
        assert np.array_equal(tables.word_pretrained.data, before)
        assert tables.word_pretrained.grad is None

    def test_unk_mask_reroutes_trainable_lookup_only(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        pre = np.arange(lex.size("word") * 4, dtype=np.float64).reshape(-1, 4)
        tables = tables_for(lex, pretrained=pre)
        mask = np.zeros(6, dtype=bool)
        mask[0] = True
        masked = embed_sentence(figure_sentences[0], 1, tables, lex,
                                word_unk_mask=mask).data
        plain = embed_sentence(figure_sentences[0], 1, tables, lex).data
        d_w = tables.d_w
        unk_row = tables.word.data[lex.lookup("word", "<unk>")]
        assert np.array_equal(masked[0, :d_w], unk_row)
        # the frozen slice still sees the true word
        assert np.array_equal(masked[0, d_w:2 * d_w], plain[0, d_w:2 * d_w])

    def test_oov_words_fall_back_to_unk(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        tables = tables_for(lex)
        sent = parse_text(make_sentence([
            ("unseenword", "unseenlemma", "XX", 0, "ROOT", "_", "_")]))[0]
        sent.predicates = [1]
        sent.roles = [["_"]]
        out = embed_sentence(sent, 0, tables, lex).data
        unk = lex.lookup("word", "<unk>")
        assert np.array_equal(out[0, :tables.d_w], tables.word.data[unk])
