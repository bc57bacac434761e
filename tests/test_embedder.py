import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syngcn import numerics as nm
from syngcn.conll import build_lexicon
from syngcn.embedder import (embed_sentence, embedding_tables, init_tables,
                             load_pretrained, tables_layout)
from syngcn.errors import FormatError

from conftest import parse_text
from test_conll import make_sentence
from test_numerics import flat_of, grads_or_zeros


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
        table, report = load_pretrained(path, two_word_lexicon, 3)
        assert report.hit_rate == 0.5
        aa_row = table[two_word_lexicon.lookup("word", "aa")]
        bb_row = table[two_word_lexicon.lookup("word", "bb")]
        assert np.allclose(aa_row, [0.1, 0.2, 0.3])
        assert np.array_equal(bb_row, np.zeros(3))   # the one zero row

    def test_empty_file(self, tmp_path, two_word_lexicon):
        path = tmp_path / "empty.txt"
        path.write_text("")
        table, report = load_pretrained(path, two_word_lexicon, 3)
        assert report.hit_rate == 0.0
        assert table.shape == (two_word_lexicon.size("word"), 3)
        assert np.array_equal(table, np.zeros_like(table))

    def test_duplicate_last_wins(self, tmp_path, two_word_lexicon, caplog):
        path = tmp_path / "dup.txt"
        path.write_text("aa 1 1 1\naa 2 2 2\n")
        with caplog.at_level(logging.WARNING):
            table, report = load_pretrained(path, two_word_lexicon, 3)
        assert "duplicate" in caplog.text
        aa = two_word_lexicon.lookup("word", "aa")
        assert np.allclose(table[aa], [2, 2, 2])
        assert report.duplicates == 1

    def test_dimension_mismatch_names_line(self, tmp_path, two_word_lexicon):
        path = tmp_path / "bad.txt"
        path.write_text("aa 1 2 3\nbb 1 2\n")
        with pytest.raises(FormatError, match=":2: embedding of dim 2, "
                                              "expected 3"):
            load_pretrained(path, two_word_lexicon, 3)
        with pytest.raises(FormatError, match=":1: embedding of dim 3, "
                                              "expected 2"):
            load_pretrained(path, two_word_lexicon, 2)

    def test_non_utf8_names_line(self, tmp_path, two_word_lexicon):
        path = tmp_path / "latin1.txt"
        path.write_bytes("aa 1 2\ncaf\u00e9 3 4\n".encode("latin-1"))
        with pytest.raises(FormatError, match=r"latin1\.txt:2: not UTF-8"):
            load_pretrained(path, two_word_lexicon, 2)

    @pytest.mark.parametrize("value", ["nan", "-inf", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, two_word_lexicon,
                                         value):
        # a token outside the vocabulary too: the file is wrong either way
        path = tmp_path / "emb.txt"
        path.write_text(f"aa 1 2\nzz 3 {value}\n")
        with pytest.raises(FormatError, match=r"emb\.txt:2: non-finite"):
            load_pretrained(path, two_word_lexicon, 2)

    def test_value_beyond_the_table_dtype_rejected(self, two_word_lexicon):
        pre = np.zeros((two_word_lexicon.size("word"), 4))
        pre[two_word_lexicon.lookup("word", "bb"), 2] = -1e39
        tables_for(two_word_lexicon, pretrained=pre, dtype=np.float64)
        with pytest.raises(FormatError, match="'bb' has a value outside the "
                                              "float32 range"):
            tables_for(two_word_lexicon, pretrained=pre)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=120),
        st.lists(st.lists(st.sampled_from(
            ["aa", "bb", "AA", "1", "-2.5", "1e400", "nan", "x", "0x1",
             "\u00e9", "\t", ""]), max_size=5).map(" ".join), max_size=5)
        .map(lambda lines: "\n".join(lines).encode("utf-8"))),
        st.sampled_from([1, 2]))
    def test_fuzzed_file_parses_or_raises_format_error(self, tmp_path_factory,
                                                       data, dim):
        lexicon = build_lexicon(parse_text(make_sentence([
            ("aa", "aa", "N", 2, "R", "_", "_"),
            ("bb", "bb", "V", 0, "ROOT", "_", "_")])))
        path = tmp_path_factory.mktemp("fuzz") / "emb.txt"
        path.write_bytes(data)
        try:
            table, _ = load_pretrained(path, lexicon, dim)
        except FormatError:
            return
        assert table.shape == (lexicon.size("word"), dim)
        assert np.isfinite(table).all()

    def test_lowercased_matching(self, tmp_path):
        text = make_sentence([("Paris", "paris", "NNP", 0, "ROOT", "_", "_")])
        lex = build_lexicon(parse_text(text))
        path = tmp_path / "emb.txt"
        path.write_text("paris 1 2\n")
        table, report = load_pretrained(path, lex, 2)
        assert report.hit_rate == 1.0
        assert np.allclose(table[lex.lookup("word", "Paris")], [1, 2])


def tables_for(lexicon, d_w=4, d_pos=3, d_l=5, seed=0, pretrained=None,
               dtype=np.float32):
    """Freshly drawn tables in a store laid out by ``tables_layout``."""
    store = nm.ParamStore(tables_layout(lexicon, d_w, d_pos, d_l), dtype)
    tables = embedding_tables(store, lexicon, pretrained)
    init_tables(tables, np.random.default_rng(seed))
    return tables


class TestEmbedSentence:
    def test_paper_width(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        tables = tables_for(lex, d_w=100, d_pos=16, d_l=100)
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
        lemma_slice = out[:, -tables.lemma.shape[1]:]
        nonzero_rows = np.flatnonzero(np.abs(lemma_slice).sum(axis=1))
        assert list(nonzero_rows) == [1]

    def test_two_predicates_differ_only_in_lemma_slice(self, overfit_sentences):
        lex = build_lexicon(overfit_sentences)
        tables = tables_for(lex)
        sent = next(s for s in overfit_sentences if len(s.predicates) == 2)
        a = embed_sentence(sent, sent.predicates[0] - 1, tables, lex).data
        b = embed_sentence(sent, sent.predicates[1] - 1, tables, lex).data
        d_l = tables.lemma.shape[1]
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
        tape.gradients(loss)
        assert tables.word.grad is not None
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
        d_w = tables.word.shape[1]
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
        assert np.array_equal(out[0, :tables.word.shape[1]], tables.word.data[unk])


FUSED_EMBED = nm.embed


def per_op_embed(gathers, lemma, lemma_id, predicate_row):
    """``nm.embed`` as the per-op chain it replaced: a ``rows`` gather per
    table, the lemma row placed by a one-hot ``matmul``, one ``concat``."""
    parts = [nm.rows(table, ids) for table, ids in gathers]
    onehot = np.zeros((len(gathers[0][1]), 1), dtype=lemma.dtype)
    onehot[predicate_row, 0] = 1.0
    parts.append(nm.matmul(nm.Tensor(onehot), nm.rows(lemma, [lemma_id])))
    return nm.concat(parts, axis=1)


class TestFusedEmbed:
    """``nm.embed`` against ``per_op_embed``, byte for byte."""

    def run(self, op, sentence, lex, dtype, mask, monkeypatch):
        """Rows with the predicate in the first and in the last row, each
        pass's gradients added into one store: (rows, gradients, the frozen
        table's gradient)."""
        monkeypatch.setattr(nm, "embed", op)
        rng = np.random.default_rng(5)
        pre = rng.standard_normal((lex.size("word"), 4))
        store = nm.ParamStore(tables_layout(lex, 4, 3, 5), dtype)
        tables = embedding_tables(store, lex, pre)
        init_tables(tables, rng)
        # a -0.0 lemma entry comes out of the one-hot product as +0.0
        tables.lemma.data[:, 0] = -0.0
        outs = []
        for p_row in (0, len(sentence) - 1):
            upstream = nm.Tensor(rng.standard_normal((len(sentence), 16)),
                                 dtype=dtype)
            with nm.Tape() as tape:
                out = embed_sentence(sentence, p_row, tables, lex, mask)
                loss = nm.sum_all(nm.mul(out, upstream))
            tape.gradients(loss, store)
            outs.append(out.data.tobytes())
        return (outs, flat_of(grads_or_zeros(store)).tobytes(),
                tables.word_pretrained.grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("masked", [False, True],
                             ids=["no mask", "unk mask"])
    def test_matches_per_op_chain(self, figure_sentences, dtype, masked,
                                  monkeypatch):
        sentence = figure_sentences[0]
        lex = build_lexicon(figure_sentences)
        mask = np.arange(len(sentence)) % 2 == 1 if masked else None
        got = self.run(FUSED_EMBED, sentence, lex, dtype, mask, monkeypatch)
        want = self.run(per_op_embed, sentence, lex, dtype, mask, monkeypatch)
        assert got == want
        assert got[2] is None

    def test_one_tape_node(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        tables = tables_for(lex)
        with nm.Tape() as tape:
            embed_sentence(figure_sentences[0], 1, tables, lex)
        assert len(tape._nodes) == 1
