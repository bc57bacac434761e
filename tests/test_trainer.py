import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syngcn import fixtures, trainer
from syngcn import numerics as nm
from syngcn.conll import build_lexicon
from syngcn.errors import ConfigError, ContractError
from syngcn.evaluator import predict_corpus
from syngcn.syngraph import build_graph
from syngcn.trainer import (Instance, SrlModel, TrainConfig, load_config,
                            make_instances, parse_config_text, save_config,
                            train)

from conftest import parse_text, small_config
from test_conll import make_sentence
from test_numerics import textbook_adam

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
        with pytest.raises(ContractError, match="A7"):
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
        # the store refuses a model above nm.MAX_PARAMETERS, and checks
        # that the tensors fill exactly trainable_size
        for path in sorted(CONFIGS.glob("*.conf")):
            cfg = load_config(path)
            size = trainer.trainable_size(cfg, overfit_lexicon)
            assert size <= nm.MAX_PARAMETERS
            model = SrlModel(cfg, overfit_lexicon, np.random.default_rng(0))
            assert model.store.size == size == sum(
                t.data.size for t in model.store.values())

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


class TestModel:
    def test_uniform_loss_with_zero_scorer(self, overfit_sentences):
        model, lex = tiny_model(overfit_sentences)
        model.classifier.pair_transform.data[:] = 0.0
        inst = make_instances(overfit_sentences, lex)[0]
        loss = model.instance_loss(inst)
        n = len(inst.sentence)
        assert float(loss.data) == pytest.approx(n * math.log(lex.num_roles),
                                                 rel=1e-6)

    def test_fresh_init_loss_near_uniform(self, overfit_sentences):
        model, lex = tiny_model(overfit_sentences)
        inst = make_instances(overfit_sentences, lex)[0]
        loss = float(model.instance_loss(inst).data)
        n = len(inst.sentence)
        assert loss == pytest.approx(n * math.log(lex.num_roles), rel=0.02)

    def test_loss_nonnegative(self, overfit_sentences):
        model, lex = tiny_model(overfit_sentences)
        for inst in make_instances(overfit_sentences, lex)[:5]:
            assert float(model.instance_loss(inst).data) >= 0.0

    def test_loss_decreases_over_first_steps(self, overfit_sentences):
        # fixed instance, dropout off: ten optimizer steps, each lowering it
        model, lex = tiny_model(overfit_sentences, edge_dropout=0.0,
                                learning_rate=0.005)
        inst = make_instances(overfit_sentences, lex)[0]
        trainable = model.store
        state = nm.AdamState(learning_rate=0.005)
        losses = []
        for _ in range(11):
            nm.zero_grads(trainable.values())
            with nm.Tape() as tape:
                loss = model.instance_loss(inst)
            losses.append(float(loss.data))
            grads = tape.gradients(loss)
            full = {k: grads.get(k, np.zeros_like(t.data))
                    for k, t in trainable.items()}
            nm.adam_step(trainable, full, state)
        assert all(b < a for a, b in zip(losses, losses[1:]))

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
        # the GCN layer is one node; built per op it took 39 of 58
        cfg = load_config(CONFIGS / "desk_overfit.conf")
        lex = build_lexicon(overfit_sentences)
        model = SrlModel(cfg, lex, np.random.default_rng(cfg.seed))
        inst = make_instances(overfit_sentences, lex)[0]
        with nm.Tape() as tape:
            model.instance_loss(inst, build_graph(inst.sentence, lex),
                                training=True, rng=np.random.default_rng(0))
        assert len(tape._nodes) == 20

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
        model, lex = tiny_model(overfit_sentences)
        path = tmp_path / "m.ckpt"
        model.save(path)

        class NoUniform:
            def __init__(self, *args):
                pass

            def uniform(self, *args, **kwargs):
                raise AssertionError("random draw while loading")

        monkeypatch.setattr(np.random, "default_rng", NoUniform)
        clone = SrlModel.from_checkpoint(path, model.config, lex)
        monkeypatch.undo()
        want = model.parameters()
        got = clone.parameters()
        assert list(got) == list(want)
        for name, t in got.items():
            assert t.data.dtype == want[name].data.dtype
            assert t.data.tobytes() == want[name].data.tobytes(), name

    def test_checkpoint_mismatch_rejected(self, overfit_sentences, tmp_path):
        model, lex = tiny_model(overfit_sentences)
        path = tmp_path / "m.ckpt"
        model.save(path)
        other, _ = tiny_model(overfit_sentences, lex, gcn_layers=0)
        with pytest.raises(ContractError, match="checkpoint"):
            SrlModel.from_checkpoint(path, other.config, lex)


def reference_run(sentences, cfg: TrainConfig):
    """``train``'s updates on per-tensor copies of the weights, off the
    store: fresh gradient arrays from a tape per instance, summed per batch,
    and the textbook Adam. The model, and the names that got no gradient in
    some instance."""
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
            mask = trainer._word_unk_mask(inst, lexicon, cfg.unk_replace_rate,
                                          rng)
            nm.zero_grads(params)
            with nm.Tape() as tape:
                loss = model.instance_loss(inst, graphs[inst.sentence_id],
                                           training=True, rng=rng,
                                           word_unk_mask=mask)
            fresh = tape.gradients(loss)
            unreached |= set(params) - set(fresh)
            batch.append({k: fresh.get(k, np.zeros_like(t.data))
                          for k, t in params.items()})
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
    @pytest.mark.parametrize("overrides", [
        dict(dtype="float32"),
        dict(dtype="float64"),
        dict(dtype="float32", batch_size=2),
        dict(dtype="float32", edge_dropout=1.0, batch_size=3),
        dict(dtype="float32", edge_dropout=0.9),
    ], ids=["float32", "float64", "batch2", "no edges", "few edges"])
    def test_run_matches_per_tensor_reference(self, overfit_sentences,
                                              tmp_path, overrides):
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2, unk_replace_rate=0.2, **overrides)
        sentences = overfit_sentences[:8]
        result = train(sentences, None, cfg, tmp_path / "run")
        ref, unreached = reference_run(sentences, cfg)
        if cfg.edge_dropout > 0.5:
            # no gradient for some GCN tensors in some instances
            assert "gcn.0.w_along" in unreached
        saved = nm.load_checkpoint(result.best_checkpoint)
        for name, t in ref.parameters().items():
            assert saved[name].tobytes() == t.data.tobytes(), name

    def test_gradcheck_model_steps_match_reference(self):
        model, instance = fixtures.gradcheck_model()
        ref, _ = fixtures.gradcheck_model()
        params = dict(ref.store)
        for t in params.values():
            t.data = t.data.copy()
        m = {k: np.zeros_like(t.data) for k, t in params.items()}
        v = {k: np.zeros_like(t.data) for k, t in params.items()}
        grads = model.store.enable_grad()
        state = nm.AdamState(learning_rate=0.01)
        for step in range(1, 4):
            nm.zero_grads(model.store)
            with nm.Tape() as tape:
                loss = model.instance_loss(instance)
            tape.gradients(loss)
            nm.adam_step(model.store, model.store.gradients(), state)
            nm.zero_grads(params)
            with nm.Tape() as tape:
                loss = ref.instance_loss(instance)
            fresh = tape.gradients(loss)
            textbook_adam({k: t.data for k, t in params.items()},
                          {k: fresh.get(k, np.zeros_like(t.data))
                           for k, t in params.items()}, m, v, step, 0.01)
            for k, t in params.items():
                assert model.store[k].data.tobytes() == t.data.tobytes(), k
                assert grads[k].dtype == np.float64

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
        # an update of the store moves the model's own tensors
        before = {k: t.data.copy() for k, t in loaded.parameters().items()}
        grads = loaded.store.enable_grad()
        grads.flat.fill(1.0)
        nm.adam_step(loaded.store, grads, nm.AdamState())
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
        assert (run / "best.ckpt").exists()
        assert (run / "lexicon.txt").exists()
        assert (run / "config.txt").exists()
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

    def test_dev_scored_one_instance_at_a_time(self, overfit_sentences,
                                               tmp_path, monkeypatch):
        sizes = []
        batched_predict = SrlModel.predict

        def recording_predict(model, instances, graphs):
            sizes.append(len(instances))
            return batched_predict(model, instances, graphs)

        monkeypatch.setattr(SrlModel, "predict", recording_predict)
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=2)
        train(overfit_sentences, overfit_sentences, cfg, tmp_path / "run")
        per_epoch = len(make_instances(overfit_sentences,
                                       build_lexicon(overfit_sentences)))
        assert sizes == [1] * (2 * per_epoch)

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
