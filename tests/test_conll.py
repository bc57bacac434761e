import logging

import pytest
from hypothesis import given, settings, strategies as st

from syngcn import fixtures
from syngcn.conll import (LEXICON_MAGIC, Lexicon, NULL_ROLE, PAD, UNK,
                          build_lexicon, parse_conll, parse_conll_file,
                          write_conll)
from syngcn.errors import ContractError, FormatError, ParseError

from conftest import parse_text


def make_sentence(rows_spec, apreds_per_row=None):
    """rows_spec: (form, lemma, pos, head, deprel, fillpred, sense)."""
    lines = []
    for i, (form, lemma, pos, head, deprel, fillpred, sense) in \
            enumerate(rows_spec, start=1):
        cols = [str(i), form, lemma, lemma, pos, pos, "_", "_", str(head),
                str(head), deprel, deprel, fillpred, sense]
        if apreds_per_row:
            cols += apreds_per_row[i - 1]
        lines.append("\t".join(cols))
    return "\n".join(lines) + "\n\n"


class TestParse:
    def test_figure_sentence(self, figure_sentences):
        sent = figure_sentences[0]
        assert [t.form for t in sent.tokens] == \
            ["Sequa", "makes", "and", "repairs", "jet", "engines"]
        assert sent.predicates == [2]
        assert sent.roles == [["A0", "_", "_", "_", "_", "A1"]]
        assert sent.tokens[1].sense == "make.01"
        assert sent.tokens[0].head == 2 and sent.tokens[0].deprel == "SBJ"

    def test_empty_input(self):
        assert parse_conll([]) == []
        assert parse_conll(["\n", "\n"]) == []

    def test_no_predicate_sentence(self):
        text = make_sentence([
            ("a", "a", "DT", 2, "NMOD", "_", "_"),
            ("cat", "cat", "NN", 0, "ROOT", "_", "_"),
            ("naps", "nap", "VB", 2, "ADV", "_", "_"),
        ])
        sent = parse_conll(text.splitlines(keepends=True))[0]
        assert sent.predicates == []
        assert sent.roles == []
        assert len(sent) == 3

    def test_ragged_apred_is_parse_error_with_line(self):
        lines = ["1\ta\ta\ta\tN\tN\t_\t_\t0\t0\tR\tR\tY\ta.01\tA0",
                 "2\tb\tb\tb\tN\tN\t_\t_\t1\t1\tR\tR\t_\t_", ""]
        with pytest.raises(ParseError, match="line 2"):
            parse_conll(line + "\n" for line in lines)

    def test_apred_count_must_match_predicates(self):
        # one APRED column but no FILLPRED=Y row
        lines = ["1\ta\ta\ta\tN\tN\t_\t_\t0\t0\tR\tR\t_\t_\tA0", ""]
        with pytest.raises(ParseError, match="1 APRED"):
            parse_conll(line + "\n" for line in lines)

    def test_non_integer_head(self):
        lines = ["1\ta\ta\ta\tN\tN\t_\t_\tx\tx\tR\tR\t_\t_", ""]
        with pytest.raises(ParseError, match="non-integer HEAD"):
            parse_conll(line + "\n" for line in lines)

    def test_row_id_not_its_position_is_parse_error(self):
        # HEAD refers to IDs, so a row whose ID is not its position would
        # give its dependents another head
        lines = ["7\ta\ta\ta\tN\tN\t_\t_\t0\t0\tR\tR\t_\t_",
                 "7\tb\tb\tb\tN\tN\t_\t_\t1\t1\tR\tR\t_\t_", ""]
        with pytest.raises(ParseError, match="line 1: ID '7', expected 1"):
            parse_conll(line + "\n" for line in lines)

    def test_too_few_columns(self):
        with pytest.raises(ParseError, match="columns"):
            parse_conll(["1\ta\tb\n"])

    def test_predicted_columns_preferred(self):
        # gold HEAD=2/DEPREL=GOLD, predicted PHEAD=0/PDEPREL=PRED
        line = "1\tw\tw\tw\tGP\tPP\t_\t_\t2\t0\tGOLD\tPRED\t_\t_"
        line2 = "2\tv\tv\tv\tGP\tPP\t_\t_\t0\t1\tR\tS\t_\t_"
        sent = parse_conll([line + "\n", line2 + "\n", "\n"])[0]
        assert sent.tokens[0].head == 0
        assert sent.tokens[0].deprel == "PRED"
        assert sent.tokens[0].pos == "PP"
        gold = parse_conll([line + "\n", line2 + "\n", "\n"],
                           use_gold_syntax=True)[0]
        assert gold.tokens[0].head == 2
        assert gold.tokens[0].deprel == "GOLD"
        assert gold.tokens[0].pos == "GP"

    def test_cycle_repaired_with_warning(self, caplog):
        text = make_sentence([
            ("a", "a", "N", 2, "R", "_", "_"),
            ("b", "b", "N", 1, "R", "_", "_"),   # 1 <-> 2 cycle
            ("c", "c", "N", 0, "ROOT", "_", "_"),
        ])
        with caplog.at_level(logging.WARNING):
            sent = parse_conll(text.splitlines(keepends=True))[0]
        assert "cycle" in caplog.text
        heads = [t.head for t in sent.tokens]
        assert heads[0] == 0          # smallest cycle member reattached
        assert heads[1] == 1
        # all tokens now reach the root
        for i in range(3):
            node, hops = i, 0
            while heads[node] != 0:
                node = heads[node] - 1
                hops += 1
                assert hops <= 3

    @pytest.mark.parametrize("heads, repaired, token", [
        ([2, 3, 2], [2, 0, 2], 2),          # 1 walks into the 2 <-> 3 cycle
        ([0, 3, 4, 3], [0, 3, 0, 3], 3),    # 2 walks into the 3 <-> 4 cycle
    ])
    def test_cycle_reached_by_a_walk_reattaches_its_own_member(
            self, caplog, heads, repaired, token):
        # the token reattached is the cycle's smallest, not the smallest
        # of the walk that reached it
        text = make_sentence([(f"t{i}", "t", "N", h, "R", "_", "_")
                              for i, h in enumerate(heads)])
        with caplog.at_level(logging.WARNING):
            sent = parse_conll(text.splitlines(keepends=True))[0]
        assert [t.head for t in sent.tokens] == repaired
        assert [r.getMessage() for r in caplog.records
                if "cycle" in r.getMessage()] == [
            f"sentence at line 1: head cycle at token {token}, reattached "
            f"to root"]

    def test_self_head_repaired(self, caplog):
        text = make_sentence([
            ("a", "a", "N", 1, "R", "_", "_"),
            ("b", "b", "N", 0, "ROOT", "_", "_"),
        ])
        with caplog.at_level(logging.WARNING):
            sent = parse_conll(text.splitlines(keepends=True))[0]
        assert sent.tokens[0].head == 0

    def test_multi_root_warns_but_loads(self, caplog):
        text = make_sentence([
            ("a", "a", "N", 0, "ROOT", "_", "_"),
            ("b", "b", "N", 0, "ROOT", "_", "_"),
        ])
        with caplog.at_level(logging.WARNING):
            sent = parse_conll(text.splitlines(keepends=True))[0]
        assert "root" in caplog.text.lower()
        assert [t.head for t in sent.tokens] == [0, 0]


class _RolePatch:
    """Minimal prediction mapping for write_conll tests."""

    def __init__(self, sentences, override=None):
        self._roles = {}
        for sid, sent in enumerate(sentences):
            for p in range(len(sent.predicates)):
                for i in range(len(sent)):
                    role = sent.roles[p][i]
                    if override is not None:
                        role = override.get((sid, p, i), role)
                    self._roles[(sid, p, i)] = role

    def role_string(self, sid, p, i):
        return self._roles.get((sid, p, i))


class TestWrite:
    def test_round_trip_bytes(self, overfit_sentences, figure_sentences):
        for text in (fixtures.overfit_corpus(), fixtures.figure_sentence(),
                     fixtures.structural_corpus()):
            sents = parse_text(text)
            assert write_conll(sents) == text

    def test_gold_as_prediction_round_trips(self, figure_sentences):
        preds = _RolePatch(figure_sentences)
        assert write_conll(figure_sentences, preds) == fixtures.figure_sentence()

    def test_parse_write_parse_fixpoint(self, overfit_sentences):
        again = parse_text(write_conll(overfit_sentences))
        assert again == overfit_sentences

    def test_all_null_prediction(self, figure_sentences):
        override = {(0, 0, i): NULL_ROLE for i in range(6)}
        out = write_conll(figure_sentences, _RolePatch(figure_sentences, override))
        for line in out.strip("\n").split("\n"):
            assert line.split("\t")[14] == "_"

    def test_single_changed_role_changes_one_cell(self, figure_sentences):
        # oracle: splice the one expected cell into the original text
        original = fixtures.figure_sentence()
        override = {(0, 0, 4): "A2"}   # token 5 (jet) gets a role
        out = write_conll(figure_sentences, _RolePatch(figure_sentences, override))
        orig_lines = original.split("\n")
        new_lines = out.split("\n")
        assert len(orig_lines) == len(new_lines)
        diffs = [(a, b) for a, b in zip(orig_lines, new_lines) if a != b]
        assert len(diffs) == 1
        before, after = diffs[0]
        cols_b, cols_a = before.split("\t"), after.split("\t")
        assert cols_b[:14] == cols_a[:14]
        assert (cols_b[14], cols_a[14]) == ("_", "A2")

    def test_missing_prediction_is_contract_error(self, figure_sentences):
        class Missing:
            def role_string(self, sid, p, i):
                return None

        with pytest.raises(ContractError, match="missing prediction"):
            write_conll(figure_sentences, Missing())


class TestLexicon:
    def test_min_freq_cutoff(self):
        text = "".join(make_sentence([(w, w, "N", 0, "ROOT", "_", "_")])
                       for w in ["a", "a", "a", "b"])
        sents = parse_text(text)
        lex = build_lexicon(sents, min_freq=2)
        assert lex.has("word", "a")
        assert not lex.has("word", "b")
        assert lex.size("word") == 3      # PAD, UNK, a
        assert lex.lookup("word", "b") == lex.lookup("word", UNK)

    def test_role_inventory(self, overfit_lexicon):
        assert overfit_lexicon.strings("role") == [NULL_ROLE, "A0", "A1"]
        assert overfit_lexicon.lookup("role", NULL_ROLE) == 0

    def test_unknown_role_raises(self, overfit_lexicon):
        with pytest.raises(KeyError):
            overfit_lexicon.lookup("role", "A9")

    def test_many_relation_inventory_size(self):
        sents = parse_text(fixtures.many_relation_corpus())
        lex = build_lexicon(sents)
        # 47 distinct relations plus the reserved UNK slot
        assert lex.num_deprels == 48

    def test_oov_lookup_never_errors(self, overfit_lexicon):
        for kind in ("word", "lemma", "pos", "deprel", "plemma"):
            assert overfit_lexicon.lookup(kind, "zzz-never-seen") == \
                overfit_lexicon.lookup(kind, UNK)

    def test_reserved_ids(self, overfit_lexicon):
        assert overfit_lexicon.lookup("word", PAD) == 0
        assert overfit_lexicon.lookup("word", UNK) == 1
        assert overfit_lexicon.lookup("deprel", UNK) == 0

    def test_every_deprel_interned(self, overfit_sentences, overfit_lexicon):
        for sent in overfit_sentences:
            for tok in sent.tokens:
                assert overfit_lexicon.has("deprel", tok.deprel)

    def test_plemma_covers_only_predicates(self, overfit_sentences,
                                           overfit_lexicon):
        predicate_lemmas = {s.tokens[p - 1].lemma for s in overfit_sentences
                            for p in s.predicates}
        others = {t.lemma for s in overfit_sentences for t in s.tokens
                  if not t.is_predicate}
        for lemma in predicate_lemmas:
            assert overfit_lexicon.has("plemma", lemma)
        for lemma in others - predicate_lemmas:
            assert not overfit_lexicon.has("plemma", lemma)

    def test_save_load_stable(self, overfit_lexicon, tmp_path):
        path = tmp_path / "lexicon.txt"
        overfit_lexicon.save(path)
        loaded = Lexicon.load(path)
        for kind in Lexicon.KINDS:
            assert loaded.strings(kind) == overfit_lexicon.strings(kind)
            for i in range(loaded.size(kind)):
                assert loaded.count(kind, i) == overfit_lexicon.count(kind, i)
        # saving again produces identical bytes
        path2 = tmp_path / "again.txt"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_non_utf8_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(f"{LEXICON_MAGIC}\nword\t2\tcat\t1\n".encode()
                         + "word\t3\tcaf\u00e9\t1\n".encode("latin-1"))
        with pytest.raises(FormatError, match=r"latin1\.txt:3: not UTF-8"):
            Lexicon.load(path)

    def test_negative_id_rejected(self, tmp_path):
        # id -1 would index the last reserved entry and overwrite its count
        path = tmp_path / "lexicon.txt"
        path.write_text(f"{LEXICON_MAGIC}\nword\t-1\t{UNK}\t5\n")
        with pytest.raises(FormatError, match=r"lexicon\.txt:2: negative id"):
            Lexicon.load(path)

    @pytest.mark.parametrize("line", [f"word\t0\t{PAD}\t-3",
                                      "word\t2\tfoo\t-7"])
    def test_negative_count_rejected(self, tmp_path, line):
        # counts decide which words are singletons for word dropout
        path = tmp_path / "lexicon.txt"
        path.write_text(f"{LEXICON_MAGIC}\n{line}\n")
        with pytest.raises(FormatError,
                           match=r"lexicon\.txt:2: negative count -\d"):
            Lexicon.load(path)

    def test_string_under_two_ids_rejected(self, tmp_path):
        # the second id would shadow the first, which no lookup could reach
        path = tmp_path / "lexicon.txt"
        path.write_text(f"{LEXICON_MAGIC}\nword\t2\ta\t1\nword\t3\ta\t1\n")
        with pytest.raises(FormatError,
                           match=r"lexicon\.txt:3: word 'a' already has id 2"):
            Lexicon.load(path)

    def test_reserved_string_under_a_new_id_rejected(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_text(f"{LEXICON_MAGIC}\nword\t2\t{UNK}\t1\n")
        with pytest.raises(FormatError, match=r"lexicon\.txt:2: .*already has id 1"):
            Lexicon.load(path)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.binary(max_size=120),
        st.lists(st.lists(st.sampled_from(
            ["word", "role", "verb", "0", "1", "2", "-1", "x", PAD, UNK,
             NULL_ROLE, "\u00e9", ""]), max_size=5).map("\t".join), max_size=6)
        .map(lambda lines: "\n".join(lines).encode("utf-8"))))
    def test_fuzzed_file_loads_or_raises_format_error(self, tmp_path_factory,
                                                      data):
        path = tmp_path_factory.mktemp("fuzz") / "lexicon.txt"
        path.write_bytes(LEXICON_MAGIC.encode() + b"\n" + data)
        try:
            Lexicon.load(path)
        except FormatError:
            pass

    def test_counts(self, overfit_sentences, overfit_lexicon):
        the_count = sum(1 for s in overfit_sentences for t in s.tokens
                        if t.form == "the")
        wid = overfit_lexicon.lookup("word", "the")
        assert overfit_lexicon.count("word", wid) == the_count


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from(["cat", "dog", "runs", "sees"]),
                min_size=1, max_size=6))
def test_structural_round_trip_any_chain(forms):
    rows = []
    for i, form in enumerate(forms, start=1):
        rows.append((form, form, "N", i - 1, f"R{i % 3}", "_", "_"))
    text = make_sentence(rows)
    sents = parse_text(text)
    assert write_conll(sents) == text
    assert parse_text(write_conll(sents)) == sents


_CONLL_CELLS = ["0", "1", "2", "3", "-1", "x", "_", "Y", "A0", "a.01", ""]


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(
        st.just(""),
        st.lists(st.sampled_from(_CONLL_CELLS), min_size=12, max_size=17)
        .map("\t".join)), max_size=8)
    .map(lambda lines: "\n".join(lines).encode("utf-8"))))
def test_fuzzed_file_parses_or_raises_parse_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "f.conll"
    path.write_bytes(data)
    try:
        parse_conll_file(path)
    except ParseError:
        pass
