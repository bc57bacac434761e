import contextlib
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syngcn import (bilstm, classifier, embedder, evaluator, fixtures, gcn,
                    trainer)
from syngcn import numerics as nm
from syngcn.conll import build_lexicon
from syngcn.errors import ConfigError, ContractError, FormatError
from syngcn.evaluator import predict_corpus
from syngcn.syngraph import build_graph, edge_dropout
from syngcn.trainer import (SrlModel, TrainConfig, load_config, make_instances,
                            parse_config_text, save_config, train)

from conftest import parse_text, small_config
from test_conll import make_sentence
from test_numerics import (flat_of, fuses, grads_or_zeros, named, step_on,
                          textbook_adam)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestInstances:
    def test_one_instance_per_predicate(self, overfit_sentences,
                                        overfit_lexicon):
        instances = make_instances(overfit_sentences, overfit_lexicon)
        expected = sum(len(s.predicates) for s in overfit_sentences)
        assert len(instances) == expected
        two = [s for s in overfit_sentences if len(s.predicates) == 2][0]
        ours = [i for i in instances if i.sentence is two]
        assert len(ours) == 2
        assert [i.predicate_ord for i in ours] == [0, 1]

    def test_figure_sentence_gold(self, figure_sentences):
        lex = build_lexicon(figure_sentences)
        inst = make_instances(figure_sentences, lex)[0]
        assert inst.predicate_row == 1
        gold = [lex.string("role", r) for r in inst.gold_role_ids]
        assert gold == ["A0", "_", "_", "_", "_", "A1"]

    def test_predicate_free_sentence_yields_none(self):
        text = make_sentence([("x", "x", "N", 0, "ROOT", "_", "_")])
        sents = parse_text(text)
        assert make_instances(sents, build_lexicon(sents)) == []

    def test_unknown_role_is_contract_error(self, figure_sentences):
        other = parse_text(make_sentence(
            [("y", "y", "N", 0, "ROOT", "Y", "y.01")], [["A7"]]))
        lex = build_lexicon(figure_sentences)   # no A7 here
        with pytest.raises(ContractError, match="^sentence 0: role 'A7'$"):
            make_instances(other, lex)

    def test_prediction_mode_needs_no_gold(self, figure_sentences):
        other = parse_text(make_sentence(
            [("y", "y", "N", 0, "ROOT", "Y", "y.01")], [["A7"]]))
        lex = build_lexicon(figure_sentences)
        inst = make_instances(other, lex, require_gold=False)[0]
        assert inst.gold_role_ids is None


class TestConfig:
    def test_parse_and_aliases(self):
        cfg = parse_config_text(
            "J = 2\nK = 3\nbeta = 0.25\nlr = 0.005\n"
            "d_h = 64\ngates_enabled = false\n")
        assert cfg.lstm_layers == 2
        assert cfg.gcn_layers == 3
        assert cfg.edge_dropout == 0.25
        assert cfg.learning_rate == 0.005
        assert cfg.d_h == 64
        assert cfg.gates_enabled is False

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# a comment\n\nd_w = 7  # trailing\n")
        assert cfg.d_w == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="nope"):
            parse_config_text("nope = 1\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("beta = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config_text("d_h = -4\n")
        with pytest.raises(ConfigError, match="no encoder"):
            parse_config_text("J = 0\nK = 0\n")
        for key in ("unk_replace_rate", "early_stop_f1"):
            for value in ("nan", "inf", "-0.1", "1.5"):
                with pytest.raises(ConfigError, match=key):
                    parse_config_text(f"{key} = {value}\n")
        for value in ("-3", "0"):
            with pytest.raises(ConfigError, match="min_freq"):
                parse_config_text(f"min_freq = {value}\n")

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.text(max_size=80),
        st.lists(st.tuples(
            st.sampled_from(["J", "K", "beta", "lr", "d_h", "seed", "epochs",
                             "gates_enabled", "dtype", "nope", ""]),
            st.sampled_from(["=", " = ", "", "=="]),
            st.sampled_from(["0", "1", "-1", "0.5", "nan", "inf", "true",
                             "x", "float64", "# c", ""]))
        .map("".join), max_size=6).map("\n".join)))
    def test_fuzzed_text_parses_or_raises_config_error(self, text):
        try:
            parse_config_text(text)
        except ConfigError:
            pass

    def test_save_load_round_trip(self, tmp_path):
        cfg = small_config(epochs=7, lstm_layers=0)
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_saved_config_must_list_every_field(self, tmp_path):
        cfg = small_config(gates_enabled=False)
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        assert load_config(path, complete=True) == cfg
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(line for line in lines
                                if not line.startswith("gates_enabled")))
        # a hand-written file may leave fields at their defaults
        assert load_config(path).gates_enabled is True
        with pytest.raises(ConfigError, match=r"config\.txt: no line for "
                           r"gates_enabled$"):
            load_config(path, complete=True)
        path.write_text("")
        with pytest.raises(ConfigError, match=r"config\.txt: no line for "
                           r"d_w, d_pos, .*, dtype$"):
            load_config(path, complete=True)

    @pytest.mark.parametrize("text, error", [
        ("d_h = 4\nnope = 1\n", "line 2: unknown key 'nope'"),
        ("d_h\n", "line 1: expected key = value"),
        ("d_h = x\n", "d_h: expected int, got 'x'"),
        ("d_h = -4\n", "d_h must be positive"),
    ])
    def test_config_errors_name_the_file(self, tmp_path, text, error):
        path = tmp_path / "hand.conf"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"{path}: {error}"

    def test_non_utf8_config_is_config_error(self, tmp_path):
        path = tmp_path / "latin1.conf"
        path.write_bytes("# caf\u00e9\nepochs = 2\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=r"latin1\.conf: not UTF-8 text"):
            load_config(path)

    def test_shipped_configs_load(self):
        # the benchmark loads desk_overfit.conf and conll2009_english.conf by
        # name, so a stale key there breaks it before any training test runs
        paths = sorted((Path(__file__).parents[1] / "configs").glob("*.conf"))
        names = {path.name for path in paths}
        assert {"desk_overfit.conf", "conll2009_english.conf"} <= names
        for path in paths:
            load_config(path)

    def test_shipped_configs_build_within_the_parameter_cap(
            self, overfit_sentences, overfit_lexicon):
        # the store refuses a model above nm.MAX_PARAMETERS; the model's
        # store is laid out by param_layout, in its order
        for path in sorted(CONFIGS.glob("*.conf")):
            cfg = load_config(path)
            layout = list(trainer.param_layout(cfg, overfit_lexicon))
            size = sum(math.prod(shape) for _, shape in layout)
            assert size <= nm.MAX_PARAMETERS
            model = SrlModel(cfg, overfit_lexicon, np.random.default_rng(0))
            assert [(name, shape) for name, (_, shape)
                    in model.store.layout.items()] == layout
            assert model.store.size == size

    @pytest.mark.parametrize("deep", ["lstm_layers", "gcn_layers"])
    def test_deep_narrow_model_refused(self, overfit_lexicon, deep):
        # 10^5 one-unit layers: far under the parameter cap, but their
        # hundreds of thousands of tensors pass the tensor cap
        cfg = small_config(d_h=1, **{deep: 10 ** 5})
        with pytest.raises(ConfigError, match="65,536 trainable tensors"):
            SrlModel(cfg, overfit_lexicon, np.random.default_rng(0))

    def test_param_layout_pinned(self, figure_sentences):
        # every trainable tensor of a J = K = 1 model: name, store offset
        # and shape. 8 words, 7 POS tags, 8 lemmas, 2 predicate lemmas,
        # 3 roles and 7 dependency relations (15 extended labels)
        lexicon = build_lexicon(figure_sentences)
        cfg = small_config(d_w=3, d_pos=2, d_l=3, d_h=2, d_r=2, d_l_out=2)
        store = nm.ParamStore(trainer.param_layout(cfg, lexicon), np.float32)
        assert [(name, lo, shape) for name, (lo, shape)
                in store.layout.items()] == [
            ("embed.word", 0, (8, 3)),
            ("embed.pos", 24, (7, 2)),
            ("embed.lemma", 38, (8, 3)),
            ("lstm.0.fw.w", 62, (11, 8)),
            ("lstm.0.fw.u", 150, (2, 8)),
            ("lstm.0.fw.b", 166, (1, 8)),
            ("lstm.0.bw.w", 174, (11, 8)),
            ("lstm.0.bw.u", 262, (2, 8)),
            ("lstm.0.bw.b", 278, (1, 8)),
            ("gcn.0.w_along", 286, (4, 4)),
            ("gcn.0.w_opposite", 302, (4, 4)),
            ("gcn.0.w_self", 318, (4, 4)),
            ("gcn.0.label_bias", 334, (15, 4)),
            ("gcn.0.gate_w_along", 394, (1, 4)),
            ("gcn.0.gate_w_opposite", 398, (1, 4)),
            ("gcn.0.gate_w_self", 402, (1, 4)),
            ("gcn.0.gate_label_bias", 406, (15, 1)),
            ("cls.pair_transform", 421, (4, 8)),
            ("cls.lemma", 453, (2, 2)),
            ("cls.role", 457, (3, 2))]
        assert store.size == 463

    def test_paper_defaults(self):
        cfg = TrainConfig()
        assert (cfg.d_w, cfg.d_pos, cfg.d_l, cfg.d_h) == (100, 16, 100, 512)
        assert (cfg.d_r, cfg.d_l_out) == (128, 128)
        assert (cfg.lstm_layers, cfg.gcn_layers) == (3, 1)
        assert cfg.edge_dropout == 0.3
        assert cfg.learning_rate == 0.01


def tiny_model(sentences, lexicon=None, **overrides):
    lexicon = lexicon or build_lexicon(sentences)
    cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                       **overrides)
    return SrlModel(cfg, lexicon, np.random.default_rng(cfg.seed)), lexicon


def instance_tape_size(config_name, sentences):
    """Tape nodes one training instance records under a bundled config."""
    cfg = load_config(CONFIGS / config_name)
    lex = build_lexicon(sentences)
    model = SrlModel(cfg, lex, np.random.default_rng(cfg.seed))
    inst = make_instances(sentences, lex)[0]
    with nm.Tape() as tape:
        model.instance_loss(inst, build_graph(inst.sentence, lex),
                            np.random.default_rng(0))
    return len(tape._nodes)


class TestModel:
    def test_uniform_loss_with_zero_scorer(self, overfit_sentences):
        model, lex = tiny_model(overfit_sentences)
        model.classifier.pair_transform.data[:] = 0.0
        inst = make_instances(overfit_sentences, lex)[0]
        loss = model.instance_loss(inst)
        n = len(inst.sentence)
        assert float(loss.data) == pytest.approx(n * math.log(lex.size("role")),
                                                 rel=1e-6)

    def test_fresh_init_loss_near_uniform(self, overfit_sentences):
        model, lex = tiny_model(overfit_sentences)
        inst = make_instances(overfit_sentences, lex)[0]
        loss = float(model.instance_loss(inst).data)
        n = len(inst.sentence)
        assert loss == pytest.approx(n * math.log(lex.size("role")), rel=0.02)

    def test_loss_nonnegative(self, overfit_sentences):
        model, lex = tiny_model(overfit_sentences)
        for inst in make_instances(overfit_sentences, lex)[:5]:
            assert float(model.instance_loss(inst).data) >= 0.0

    def test_loss_decreases_over_first_steps(self, overfit_sentences):
        # fixed instance, dropout off: ten optimizer steps, each lowering it
        model, lex = tiny_model(overfit_sentences, edge_dropout=0.0,
                                learning_rate=0.005)
        inst = make_instances(overfit_sentences, lex)[0]
        losses = []
        for _ in range(11):
            with nm.Tape() as tape:
                loss = model.instance_loss(inst)
            losses.append(float(loss.data))
            tape.gradients(loss, model.store, 0.005)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("layers,want", [
        ((1, 1), ["embed.word", "embed.word_pretrained", "embed.pos",
                  "embed.lemma",
                  "lstm.0.fw.w", "lstm.0.fw.u", "lstm.0.fw.b",
                  "lstm.0.bw.w", "lstm.0.bw.u", "lstm.0.bw.b",
                  "gcn.0.w_along", "gcn.0.w_opposite", "gcn.0.w_self",
                  "gcn.0.label_bias", "gcn.0.gate_w_along",
                  "gcn.0.gate_w_opposite", "gcn.0.gate_w_self",
                  "gcn.0.gate_label_bias",
                  "cls.pair_transform", "cls.lemma", "cls.role"]),
        ((0, 1), ["embed.word", "embed.word_pretrained", "embed.pos",
                  "embed.lemma", "gcn.input_proj",
                  "gcn.0.w_along", "gcn.0.w_opposite", "gcn.0.w_self",
                  "gcn.0.label_bias", "gcn.0.gate_w_along",
                  "gcn.0.gate_w_opposite", "gcn.0.gate_w_self",
                  "gcn.0.gate_label_bias",
                  "cls.pair_transform", "cls.lemma", "cls.role"]),
        ((1, 2), ["embed.word", "embed.word_pretrained", "embed.pos",
                  "embed.lemma",
                  "lstm.0.fw.w", "lstm.0.fw.u", "lstm.0.fw.b",
                  "lstm.0.bw.w", "lstm.0.bw.u", "lstm.0.bw.b",
                  "gcn.0.w_along", "gcn.0.w_opposite", "gcn.0.w_self",
                  "gcn.0.label_bias", "gcn.0.gate_w_along",
                  "gcn.0.gate_w_opposite", "gcn.0.gate_w_self",
                  "gcn.0.gate_label_bias",
                  "gcn.1.w_along", "gcn.1.w_opposite", "gcn.1.w_self",
                  "gcn.1.label_bias", "gcn.1.gate_w_along",
                  "gcn.1.gate_w_opposite", "gcn.1.gate_w_self",
                  "gcn.1.gate_label_bias",
                  "cls.pair_transform", "cls.lemma", "cls.role"]),
    ], ids=["J1K1", "J0K1", "J1K2"])
    def test_parameter_names_in_checkpoint_order(self, overfit_sentences,
                                                 layers, want):
        # the store's tensors in layout order, the frozen table after
        # embed.word: the order tensors take in a checkpoint file
        j, k = layers
        model, _ = tiny_model(overfit_sentences, lstm_layers=j, gcn_layers=k)
        assert list(model.parameters()) == want
        assert [n for n in want if n != "embed.word_pretrained"] == \
            list(model.store)
        assert not model.parameters()["embed.word_pretrained"].trainable

    def test_modes_produce_expected_encoders(self, overfit_sentences):
        lex = build_lexicon(overfit_sentences)
        lstm_only, _ = tiny_model(overfit_sentences, lex, gcn_layers=0)
        assert lstm_only.gcn is None and lstm_only.lstm is not None
        gcn_only, _ = tiny_model(overfit_sentences, lex, lstm_layers=0)
        assert gcn_only.lstm is None and gcn_only.gcn is not None
        assert gcn_only.gcn.input_projection is not None
        both, _ = tiny_model(overfit_sentences, lex)
        assert both.lstm is not None and both.gcn is not None
        assert both.gcn.input_projection is None

    def test_desk_training_instance_tape_size(self, overfit_sentences):
        # one node per layer and one for the loss: J + K + 3
        assert instance_tape_size("desk_overfit.conf", overfit_sentences) == 5

    def test_english_training_instance_tape_size(self, overfit_sentences):
        # J = 3, K = 1, at the full-scale widths
        assert instance_tape_size("conll2009_english.conf",
                                  overfit_sentences) == 7

    def test_training_draw_order(self, overfit_sentences, monkeypatch):
        # one word-dropout draw per singleton token, then one edge-dropout
        # draw per GCN layer: each layer's dropout starts where the twin is
        model, lex = tiny_model(overfit_sentences, unk_replace_rate=0.5,
                                edge_dropout=0.3, gcn_layers=2)
        singletons = {lex.string("word", i) for i in range(lex.size("word"))
                      if lex.count("word", i) == 1}
        inst = next(i for i in make_instances(overfit_sentences, lex)
                    if any(t.form in singletons for t in i.sentence.tokens))
        graph = build_graph(inst.sentence, lex)
        at_dropout = []

        def recording_dropout(graph, beta, rng):
            at_dropout.append(rng.bit_generator.state)
            return edge_dropout(graph, beta, rng)

        monkeypatch.setattr(gcn, "edge_dropout", recording_dropout)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        model.instance_loss(inst, graph, rng)
        for tok in inst.sentence.tokens:
            if tok.form in singletons:
                twin.random()
        twin_at_dropout = []
        for _ in range(2):
            twin_at_dropout.append(twin.bit_generator.state)
            twin.random(len(graph))
        assert at_dropout == twin_at_dropout
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_gates_disabled_mode(self, overfit_sentences):
        model, lex = tiny_model(overfit_sentences, gates_enabled=False)
        assert model.gcn.gates_enabled is False
        inst = make_instances(overfit_sentences, lex)[0]
        assert np.isfinite(float(model.instance_loss(inst).data))

    def test_checkpoint_round_trip(self, overfit_sentences, tmp_path):
        model, lex = tiny_model(overfit_sentences)
        p1 = tmp_path / "m.ckpt"
        model.save(p1)
        clone = SrlModel.from_checkpoint(p1, model.config, lex)
        p2 = tmp_path / "m2.ckpt"
        clone.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loading_draws_nothing(self, overfit_sentences, tmp_path,
                                   monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("initializer or random draw while loading")

        # with and without a BiLSTM; the second has a GCN input projection
        for j, k in [(1, 1), (0, 2)]:
            model, lex = tiny_model(overfit_sentences, lstm_layers=j,
                                    gcn_layers=k)
            path = tmp_path / f"J{j}K{k}.ckpt"
            model.save(path)
            for module, name in [(embedder, "init_tables"),
                                 (bilstm, "init_lstm"),
                                 (bilstm, "init_lstm_direction"),
                                 (gcn, "init_gcn_stack"),
                                 (classifier, "init_classifier"),
                                 (np.random, "default_rng")]:
                monkeypatch.setattr(module, name, refuse)
            clone = SrlModel.from_checkpoint(path, model.config, lex)
            monkeypatch.undo()
            want = model.parameters()
            got = clone.parameters()
            assert list(got) == list(want)
            for name, t in got.items():
                assert t.data.dtype == want[name].data.dtype
                assert t.data.tobytes() == want[name].data.tobytes(), name

    def test_checkpoint_mismatch_rejected(self, overfit_sentences, tmp_path):
        # the first tensor that differs: a K = 1 file read by a K = 0 model
        model, lex = tiny_model(overfit_sentences)
        path = tmp_path / "m.ckpt"
        model.save(path)
        other, _ = tiny_model(overfit_sentences, lex, gcn_layers=0)
        with pytest.raises(FormatError, match=r"tensor 11 is \('gcn.0.w_along', "
                           r"'float32', \(16, 16\)\), expected "
                           r"\('cls.pair_transform', 'float32', \(16, 32\)\)"):
            SrlModel.from_checkpoint(path, other.config, lex)


def reference_run(sentences, cfg: TrainConfig):
    """``train``'s updates on per-tensor copies of the weights, off the
    store: fresh gradient arrays in each tensor's ``grad`` per instance,
    summed per batch, and the textbook Adam. The model, and the names that
    got no gradient in some instance."""
    lexicon = build_lexicon(sentences, min_freq=cfg.min_freq)
    rng = np.random.default_rng(cfg.seed)
    model = SrlModel(cfg, lexicon, rng)
    params = dict(model.store)
    for t in params.values():
        t.data = t.data.copy()
    m = {k: np.zeros_like(t.data) for k, t in params.items()}
    v = {k: np.zeros_like(t.data) for k, t in params.items()}
    instances = make_instances(sentences, lexicon)
    graphs = [build_graph(s, lexicon) for s in sentences]
    step, unreached, batch = 0, set(), []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(instances))
        for pos, idx in enumerate(order):
            inst = instances[idx]
            for t in params.values():
                t.grad = None
            with nm.Tape() as tape:
                loss = model.instance_loss(inst, graphs[inst.sentence_id], rng)
            tape.gradients(loss)
            unreached |= {k for k, t in params.items() if t.grad is None}
            batch.append(grads_or_zeros(params))
            if len(batch) == cfg.batch_size or pos == len(order) - 1:
                total = batch[0]
                for g in batch[1:]:
                    total = {k: total[k] + g[k] for k in total}
                step += 1
                textbook_adam({k: t.data for k, t in params.items()}, total,
                              m, v, step, cfg.learning_rate)
                batch = []
    return model, unreached


class TestFlatStore:
    # a block far below the tiny model's store: at batch size 1 each step
    # goes through a window with room for one module's tensors only
    SMALL_BLOCK = 64

    @pytest.mark.parametrize("overrides, block", [
        (dict(dtype="float32"), None),
        (dict(dtype="float64"), None),
        (dict(dtype="float32", batch_size=2), None),
        (dict(dtype="float32", batch_size=2, gcn_layers=2), None),
        (dict(dtype="float32", batch_size=2, lstm_layers=0), None),
        (dict(dtype="float32", edge_dropout=1.0, batch_size=3), None),
        (dict(dtype="float32", edge_dropout=0.9), None),
        (dict(dtype="float32", gates_enabled=False), None),
        (dict(dtype="float32"), SMALL_BLOCK),
        (dict(dtype="float64"), SMALL_BLOCK),
        (dict(dtype="float32", edge_dropout=1.0, batch_size=3), SMALL_BLOCK),
        (dict(dtype="float32", edge_dropout=0.9), SMALL_BLOCK),
        (dict(dtype="float32", gates_enabled=False), SMALL_BLOCK),
    ], ids=["float32", "float64", "batch2", "batch2 K2", "batch2 J0",
            "no edges", "few edges", "ungated", "float32 small block",
            "float64 small block", "no edges small block",
            "few edges small block", "ungated small block"])
    def test_run_matches_per_tensor_reference(self, overfit_sentences,
                                              tmp_path, monkeypatch,
                                              overrides, block):
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2, unk_replace_rate=0.2, **overrides)
        sentences = overfit_sentences[:8]
        if block is not None:
            monkeypatch.setattr(nm, "_ADAM_BLOCK", block)
        spans, adam_step = [], nm.adam_step

        def recording_step(store, lr, span, product=None):
            spans.append(span)
            adam_step(store, lr, span, product)

        monkeypatch.setattr(nm, "adam_step", recording_step)
        result = train(sentences, None, cfg, tmp_path / "run")
        ref, unreached = reference_run(sentences, cfg)
        if not cfg.gates_enabled:
            # no pass reaches the gate tensors, so a zero gradient stands in
            # for theirs
            assert {"gcn.0.gate_w_along", "gcn.0.gate_label_bias"} <= unreached
        saved = nm.load_checkpoint(result.best_checkpoint)
        for name, t in ref.parameters().items():
            assert saved[name].tobytes() == t.data.tobytes(), name
        per_epoch = len(make_instances(sentences, build_lexicon(sentences)))
        steps = cfg.epochs * -(-per_epoch // cfg.batch_size)
        if cfg.batch_size > 1 or block is None:
            # a batch's first pass makes the window cover the store, and
            # without a small block the store fits in one block, and so the
            # window: one span over the store per step
            assert spans == [(0, ref.store.size)] * steps
        else:
            # every step flushes the window more than once
            assert len(spans) >= 3 * steps

    @pytest.mark.parametrize("overrides, want", [
        ({}, ["cls", "embed", "gcn.0", "lstm.0"]),
        (dict(lstm_layers=0), ["cls", "embed", "gcn", "gcn.0"]),
        (dict(gcn_layers=0), ["cls", "embed", "lstm.0"]),
        (dict(gcn_layers=2), ["cls", "embed", "gcn.0", "gcn.1", "lstm.0"]),
        (dict(gates_enabled=False), ["cls", "embed", "gcn.0", "lstm.0"]),
        (dict(dtype="float64"), ["cls", "embed", "gcn.0", "lstm.0"]),
    ], ids=["J1 K1", "J0", "K0", "K2", "ungated", "float64"])
    def test_batch_size_one_keeps_no_store_sized_gradient(
            self, overfit_sentences, tmp_path, monkeypatch, overrides, want):
        # every model tape goes down the store, so no step takes the whole
        # store as one chunk: the window has room for the widest unfused
        # stage's chunk, less than the widest module and the store, and is
        # the same array at every step. A stage's chunk is one tensor of a
        # BiLSTM layer, one direction's GCN weights or the input projection,
        # a GCN layer's label and gate tensors, the embedder's tables, the
        # role head's transform, or its lemma and role tables. Where steps
        # fuse (float32 on an exact core), a BiLSTM layer's u and w, a GCN
        # layer's weights and the transform take no room in the window:
        # Adam takes their gradients from the products
        monkeypatch.setattr(nm, "_ADAM_BLOCK", self.SMALL_BLOCK)
        seen, adam_step = [], nm.adam_step

        def recording_step(store, lr, span, product=None):
            seen.append((store, store.window))
            adam_step(store, lr, span, product)

        monkeypatch.setattr(nm, "adam_step", recording_step)
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2, **overrides)
        train(overfit_sentences[:8], None, cfg, tmp_path / "run")
        store, window = seen[0]
        modules = {}
        for name, (lo, shape) in store.layout.items():
            parts = name.split(".")
            module = ".".join(parts[:2] if parts[1].isdigit() else parts[:1])
            modules[module] = modules.get(module, 0) + math.prod(shape)
        assert sorted(modules) == want
        # tensors in the chunk of the tensor before them
        joined = ("gate", "embed.pos", "embed.lemma", "cls.role")
        fused = re.compile(r"lstm\.\d+\.\w+\.[wu]|gcn\.\d+\.w_|cls\.pair"
                           if fuses(cfg.dtype) else "$^")
        starts = [(lo, name) for name, (lo, _) in store.layout.items()
                  if not any(part in name for part in joined)]
        chunks = [b - a for (a, name), (b, _) in zip(
            starts, starts[1:] + [(store.size, "")])
            if not fused.match(name)]
        assert window.size == max(self.SMALL_BLOCK, *chunks)
        assert window.size < max(modules.values()) < store.size
        assert all(s is store and w is window for s, w in seen)

    # widths at which no stage's chunk fits in the window beside the next
    # stage's (a BiLSTM layer's input is as wide as d_h), so that with a
    # one-element block the sweep flushes before every stage of a staged
    # rule: a rule that read a parameter after its stage would change the
    # bytes
    STAGE_WIDTHS = dict(d_w=4, d_pos=4, d_l=4, d_h=16, d_r=4, d_l_out=4)

    @pytest.mark.parametrize("overrides, spans_per_step", [
        ({}, (12, 13)),
        (dict(lstm_layers=0), (6, 8)),
        (dict(gcn_layers=0), (7, 9)),
        (dict(gcn_layers=2), (16, 17)),
        (dict(gates_enabled=False), (12, 13)),
        (dict(dtype="float64"), (12, 12)),
    ], ids=["J1 K1", "J0", "K0", "K2", "ungated", "float64"])
    def test_flush_before_every_stage_matches_reference(
            self, overfit_sentences, tmp_path, monkeypatch, overrides,
            spans_per_step):
        monkeypatch.setattr(nm, "_ADAM_BLOCK", 1)
        spans, adam_step = [], nm.adam_step

        def recording_step(store, lr, span, product=None):
            spans.append(span)
            adam_step(store, lr, span, product)

        monkeypatch.setattr(nm, "adam_step", recording_step)
        cfg = small_config(**self.STAGE_WIDTHS, epochs=1,
                           unk_replace_rate=0.2, **overrides)
        sentences = overfit_sentences[:4]
        result = train(sentences, None, cfg, tmp_path / "run")
        ref, _ = reference_run(sentences, cfg)
        saved = nm.load_checkpoint(result.best_checkpoint)
        for name, t in ref.parameters().items():
            assert saved[name].tobytes() == t.data.tobytes(), name
        # (unfused, fused) spans per step. Fused, one per stage that owns a
        # chunk: the embedder, each BiLSTM layer's 6, the GCN projection,
        # each GCN layer's 4 and the role head's 2. Unfused, the role head's
        # two share one, and so do, under J0, the projection and the
        # embedder, and under K0 the role head and the top BiLSTM stage
        steps = cfg.epochs * len(make_instances(sentences,
                                                build_lexicon(sentences)))
        assert len(spans) == spans_per_step[fuses(cfg.dtype)] * steps

    def test_real_block_splits_the_window(self, overfit_sentences):
        # English widths at d_h = 128: a BiLSTM layer's w, and others, are
        # wider than one Adam block, and the window holds the widest tensor;
        # where they are fused, one Adam block, more than any other chunk
        cfg = dataclasses.replace(
            load_config(CONFIGS / "conll2009_english.conf"), d_h=128)
        lexicon = build_lexicon(overfit_sentences[:8])
        fused, ref = (SrlModel(cfg, lexicon, np.random.default_rng(3))
                      for _ in range(2))
        params = dict(ref.store)
        for t in params.values():
            t.data = t.data.copy()
        m = {k: np.zeros_like(t.data) for k, t in params.items()}
        v = {k: np.zeros_like(t.data) for k, t in params.items()}
        insts = make_instances(overfit_sentences[:8], lexicon)[:2]
        for step, inst in enumerate(insts, start=1):
            graph = build_graph(inst.sentence, lexicon)
            with nm.Tape() as tape:
                loss = fused.instance_loss(inst, graph,
                                           np.random.default_rng(0))
            tape.gradients(loss, fused.store, cfg.learning_rate)
            for t in params.values():
                t.grad = None
            with nm.Tape() as tape:
                loss = ref.instance_loss(inst, graph, np.random.default_rng(0))
            tape.gradients(loss)
            textbook_adam({k: t.data for k, t in params.items()},
                          grads_or_zeros(params), m, v, step,
                          cfg.learning_rate)
            fused_m, fused_v = (named(fused.store, a)
                                for a in (fused.store.m, fused.store.v))
            for k, t in params.items():
                assert fused.store[k].data.tobytes() == t.data.tobytes(), k
                assert fused_m[k].tobytes() == m[k].tobytes(), k
                assert fused_v[k].tobytes() == v[k].tobytes(), k
        widest = max(math.prod(shape) for _, shape in
                     fused.store.layout.values())
        assert fused.store.window.size == (nm._ADAM_BLOCK if fuses(
            cfg.dtype) else widest) and widest > nm._ADAM_BLOCK

    def test_gradcheck_model_steps_match_reference(self):
        model, instance = fixtures.gradcheck_model()
        ref, _ = fixtures.gradcheck_model()
        params = dict(ref.store)
        for t in params.values():
            t.data = t.data.copy()
        m = {k: np.zeros_like(t.data) for k, t in params.items()}
        v = {k: np.zeros_like(t.data) for k, t in params.items()}
        for step in range(1, 4):
            with nm.Tape() as tape:
                loss = model.instance_loss(instance)
            tape.gradients(loss, model.store, 0.01)
            for t in params.values():
                t.grad = None
            with nm.Tape() as tape:
                loss = ref.instance_loss(instance)
            tape.gradients(loss)
            textbook_adam({k: t.data for k, t in params.items()},
                          grads_or_zeros(params), m, v, step, 0.01)
            for k, t in params.items():
                assert model.store[k].data.tobytes() == t.data.tobytes(), k
        assert model.store.window.dtype == model.store.m.dtype == np.float64

    def test_gradcheck_reads_what_a_pass_without_the_store_leaves(self):
        # grad_check sums its pass in the store's window and reads it there,
        # zeros for a tensor the pass does not reach; a pass without the
        # store leaves the same gradients in the tensors' own grads
        model, instance = fixtures.gradcheck_model()
        store = model.store
        result = nm.grad_check(lambda: model.instance_loss(instance), store)
        assert (result.checked, result.skipped) == (819, 33)
        assert all(t.grad is None for t in store.values())
        analytic = store.window.copy()
        with nm.Tape() as tape:
            loss = model.instance_loss(instance)
        tape.gradients(loss)
        assert not any(np.shares_memory(t.grad, store.window)
                       for t in store.values() if t.grad is not None)
        assert flat_of(grads_or_zeros(store)).tobytes() == analytic.tobytes()

    def test_desk_batch_of_two_matches_reference(self, overfit_sentences,
                                                 tmp_path):
        cfg = load_config(CONFIGS / "desk_overfit.conf")
        cfg.epochs, cfg.batch_size, cfg.early_stop_f1 = 2, 2, 0.0
        result = train(overfit_sentences, None, cfg, tmp_path / "run")
        ref, _ = reference_run(overfit_sentences, cfg)
        saved = nm.load_checkpoint(result.best_checkpoint)
        for name, t in ref.parameters().items():
            assert saved[name].tobytes() == t.data.tobytes(), name

    def test_loaded_model_is_store_backed(self, overfit_sentences, tmp_path):
        model, lex = tiny_model(overfit_sentences)
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = SrlModel.from_checkpoint(path, model.config, lex)
        for name, t in loaded.parameters().items():
            assert np.shares_memory(t.data, loaded.store.flat) == t.trainable
            assert loaded.store.get(name) is (t if t.trainable else None)
        want = predict_corpus(model, overfit_sentences)
        got = predict_corpus(loaded, overfit_sentences)
        for inst in make_instances(overfit_sentences, lex):
            key = (inst.sentence_id, inst.predicate_ord)
            for a, b in zip(want.get(*key), got.get(*key)):
                assert a.tobytes() == b.tobytes()
        # prediction leaves the store without gradients or Adam moments
        assert (loaded.store.window, loaded.store.m, loaded.store.v) == \
            (None, None, None)
        # an update of the store moves the model's own tensors
        before = {k: t.data.copy() for k, t in loaded.parameters().items()}
        step_on(loaded.store, {k: np.ones(t.shape)
                               for k, t in loaded.store.items()})
        for name, t in loaded.parameters().items():
            assert np.array_equal(t.data, before[name]) != t.trainable, name


class TestTrainLoop:
    def test_overfit_model_reproduces_gold_roles(self, overfit_sentences,
                                                 tmp_path):
        # train to exact memorization, then per-token argmax equals gold
        from syngcn.conll import Lexicon
        from syngcn.trainer import SrlModel, load_config

        cfg = small_config(edge_dropout=0.3, epochs=60, seed=11,
                           early_stop_f1=1.0)
        result = train(overfit_sentences, overfit_sentences, cfg,
                       tmp_path / "run")
        assert result.best_f1 == 1.0
        lex = Lexicon.load(result.lexicon_path)
        model = SrlModel.from_checkpoint(result.best_checkpoint,
                                         load_config(result.config_path), lex)
        preds = predict_corpus(model, overfit_sentences)
        for inst in make_instances(overfit_sentences, lex):
            role_ids, _ = preds.get(inst.sentence_id, inst.predicate_ord)
            assert np.array_equal(role_ids, inst.gold_role_ids)

    @pytest.mark.parametrize("layers", [0, 1])
    def test_graphs_built_only_for_a_gcn(self, overfit_sentences, tmp_path,
                                         monkeypatch, layers):
        # a BiLSTM-only model (K = 0) reads no graph, so neither training
        # nor its dev prediction builds one
        built = []

        def counting_build(sentence, lexicon):
            built.append(sentence)
            return build_graph(sentence, lexicon)

        monkeypatch.setattr(trainer, "build_graph", counting_build)
        monkeypatch.setattr(evaluator, "build_graph", counting_build)
        sentences = overfit_sentences[:4]
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=1, gcn_layers=layers)
        result = train(sentences, sentences, cfg, tmp_path / "run")
        model = SrlModel.from_checkpoint(result.best_checkpoint, cfg,
                                         build_lexicon(sentences))
        predict_corpus(model, sentences)
        assert len(built) == (0 if layers == 0 else 3 * len(sentences))

    def test_deterministic_given_seed(self, overfit_sentences, tmp_path):
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=3)
        outs = []
        for name in ("one", "two"):
            result = train(overfit_sentences, overfit_sentences, cfg,
                           tmp_path / name)
            outs.append(result.best_checkpoint.read_bytes())
        assert outs[0] == outs[1]

    def test_run_directory_contents(self, overfit_sentences, tmp_path):
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2)
        result = train(overfit_sentences, overfit_sentences, cfg,
                       tmp_path / "run")
        run = tmp_path / "run"
        assert sorted(p.name for p in run.iterdir()) == [
            "best.ckpt", "config.txt", "lexicon.txt", "metrics.tsv"]
        assert result.best_checkpoint == run / "best.ckpt"
        lines = (run / "metrics.tsv").read_text().strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            cols = line.split("\t")
            assert len(cols) == 5
            int(cols[0])
            for v in cols[1:]:
                float(v)
        assert len(result.history) == 2
        assert result.best_epoch in (1, 2)

    def test_frozen_embeddings_survive_training(self, overfit_sentences,
                                                tmp_path):
        lex = build_lexicon(overfit_sentences)
        rng = np.random.default_rng(0)
        pretrained = rng.uniform(-1, 1, (lex.size("word"), 8))
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2)
        result = train(overfit_sentences, overfit_sentences, cfg,
                       tmp_path / "run", lexicon=lex, pretrained=pretrained)
        saved = nm.load_checkpoint(result.best_checkpoint)
        assert np.array_equal(saved["embed.word_pretrained"],
                              pretrained.astype(np.float32))

    @pytest.mark.parametrize("held", ["config.txt", "lexicon.txt",
                                      "metrics.tsv", "epoch_004.ckpt"])
    def test_reused_run_directory_rejected(self, overfit_sentences, tmp_path,
                                           held):
        run = tmp_path / "run"
        run.mkdir()
        (run / held).write_text("an earlier run")
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=1)
        with pytest.raises(ConfigError, match=f"already holds a run \\({held}"):
            train(overfit_sentences, None, cfg, run)
        assert [p.name for p in run.iterdir()] == [held]
        assert (run / held).read_text() == "an earlier run"

    def test_out_dir_that_is_a_file_rejected(self, overfit_sentences,
                                             tmp_path, monkeypatch):
        # refused before the model is built, so nothing is drawn or written
        out = tmp_path / "run"
        out.write_text("a file")
        monkeypatch.setattr(trainer, "SrlModel", None)
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=1)
        with pytest.raises(ConfigError, match="exists and is not a directory"):
            train(overfit_sentences, None, cfg, out)
        assert out.read_text() == "a file"

    def test_out_dir_below_a_file_rejected(self, overfit_sentences,
                                           tmp_path, monkeypatch):
        # refused before the model is built, as a file out_dir is
        blocker = tmp_path / "afile"
        blocker.write_text("a file")
        monkeypatch.setattr(trainer, "SrlModel", None)
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=1)
        with pytest.raises(ConfigError,
                           match="afile exists and is not a directory"):
            train(overfit_sentences, None, cfg, blocker / "run" / "sub")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
        assert blocker.read_text() == "a file"

    @pytest.mark.parametrize("dev, kill", [(True, "update"), (False, "update"),
                                           (False, "write")],
                             ids=["dev, update", "no dev, update",
                                  "no dev, write"])
    def test_killed_run_keeps_best_of_finished_epochs(
            self, overfit_sentences, tmp_path, monkeypatch, dev, kill):
        # a run that dies during epoch k + 1, in an Adam update or while
        # best.ckpt is written, leaves the best.ckpt of an uninterrupted
        # same-seed k-epoch run and no partial file
        k = 2
        dev_sentences = overfit_sentences if dev else None
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=k)
        whole = train(overfit_sentences, dev_sentences, cfg, tmp_path / "whole")

        class Killed(Exception):
            pass

        per_epoch = len(make_instances(overfit_sentences,
                                       build_lexicon(overfit_sentences)))
        calls = 0
        if kill == "update":
            adam_step = nm.adam_step

            def dying_step(store, lr, span, product=None):
                # the store fits in one Adam block: one call per step
                nonlocal calls
                calls += 1
                if calls == k * per_epoch + 2:
                    raise Killed
                adam_step(store, lr, span, product)

            monkeypatch.setattr(nm, "adam_step", dying_step)
        else:
            replacing = nm.replacing

            @contextlib.contextmanager
            def dying_replacing(path):
                # without dev data every epoch is saved, once
                nonlocal calls
                calls += 1
                with replacing(path) as fh:
                    if calls == k + 1:
                        fh.write(b"SYNGCN1\t")
                        raise Killed
                    yield fh

            monkeypatch.setattr(nm, "replacing", dying_replacing)
        killed = tmp_path / "killed"
        with pytest.raises(Killed):
            train(overfit_sentences, dev_sentences,
                  dataclasses.replace(cfg, epochs=k + 1), killed)
        assert calls == (k * per_epoch + 2 if kill == "update" else k + 1)
        assert sorted(p.name for p in killed.iterdir()) == [
            "best.ckpt", "config.txt", "lexicon.txt", "metrics.tsv"]
        assert ((killed / "best.ckpt").read_bytes()
                == whole.best_checkpoint.read_bytes())
        # the metrics line of epoch k + 1 comes after its checkpoint, so a
        # run killed in either place has the k-epoch run's lines and no more
        assert ((killed / "metrics.tsv").read_bytes()
                == (tmp_path / "whole" / "metrics.tsv").read_bytes())

    def test_missing_dev_runs_loss_only(self, overfit_sentences, tmp_path,
                                        caplog):
        import logging
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2)
        with caplog.at_level(logging.WARNING):
            result = train(overfit_sentences, None, cfg, tmp_path / "run")
        assert "dev" in caplog.text
        assert math.isnan(result.history[0].dev_f1)
        assert result.best_epoch == 2     # falls back to last epoch

    @pytest.mark.parametrize("dev", ["empty", "all roles null"])
    def test_dev_without_gold_argument_rejected(self, overfit_sentences,
                                                tmp_path, dev):
        # as dev data, F1 would read 0 every epoch and pick epoch 1 as the
        # best; as training data, the loss would read 0 whatever the weights
        bad = [] if dev == "empty" else [
            dataclasses.replace(s, roles=[["_"] * len(s) for _ in s.roles])
            for s in overfit_sentences]
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2)
        for role, train_sentences, dev_sentences in (
                ("dev", overfit_sentences, bad),
                ("training", bad, overfit_sentences)):
            with pytest.raises(ConfigError,
                               match=f"the {role} data has no gold argument"):
                train(train_sentences, dev_sentences, cfg, tmp_path / "run")
            assert not (tmp_path / "run").exists()

    def test_dev_scored_in_batches(self, overfit_sentences, tmp_path,
                                   monkeypatch):
        # the dev pass batches as prediction does, and the run's files are
        # those of a run that scores one instance at a time
        sizes = []
        batched_predict = SrlModel.predict

        def recording_predict(model, instances, graphs):
            sizes.append(len(instances))
            return batched_predict(model, instances, graphs)

        monkeypatch.setattr(SrlModel, "predict", recording_predict)
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2)
        train(overfit_sentences, overfit_sentences, cfg, tmp_path / "run")
        instances = make_instances(overfit_sentences,
                                   build_lexicon(overfit_sentences))
        batches = [len(b) for b in evaluator._batches(
            instances, evaluator.PREDICT_TOKEN_BUDGET)]
        assert sizes == batches * 2 and max(sizes) > 1
        monkeypatch.setattr(evaluator, "PREDICT_TOKEN_BUDGET", 1)
        train(overfit_sentences, overfit_sentences, cfg, tmp_path / "alone")
        assert sizes[len(batches) * 2:] == [1] * (2 * len(instances))
        for name in ("best.ckpt", "metrics.tsv"):
            assert ((tmp_path / "run" / name).read_bytes()
                    == (tmp_path / "alone" / name).read_bytes()), name

    def test_batch_accumulation_runs(self, overfit_sentences, tmp_path):
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=1, batch_size=4)
        result = train(overfit_sentences, overfit_sentences, cfg,
                       tmp_path / "run")
        assert len(result.history) == 1

    def test_hook_validation(self):
        # a config file naming a removed training hook or knob is rejected,
        # not silently trained without it
        for line in ("grad_clip = 1.0", "lr_decay = 0.1", "lstm_dropout = 0.2",
                     "lemma_nonpred_vector = true", "gcn_width = 64",
                     "dropout_self_loops = false", "encoder_mode = lstm",
                     "use_gold_syntax = true"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config_text(line + "\n")

    def test_unk_replacement_draws_consume_stream(self, tmp_path):
        # a corpus with singletons: training still deterministic and green
        text = "".join(make_sentence(
            [(f"solo{i}", f"solo{i}", "N", 2, "SBJ", "_", "_"),
             ("acts", "act", "VB", 0, "ROOT", "Y", "act.01")],
            apreds_per_row=[["A0"], ["_"]]) for i in range(6))
        sents = parse_text(text)
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2, unk_replace_rate=0.5)
        a = train(sents, sents, cfg, tmp_path / "a").best_checkpoint.read_bytes()
        b = train(sents, sents, cfg, tmp_path / "b").best_checkpoint.read_bytes()
        assert a == b
