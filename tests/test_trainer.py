import math

import numpy as np
import pytest

from syngcn import numerics as nm
from syngcn.conll import build_lexicon
from syngcn.errors import ConfigError, ContractError
from syngcn.trainer import (Instance, SrlModel, TrainConfig, load_config,
                            make_instances, parse_config_text, save_config,
                            train)

from conftest import parse_text, small_config
from test_conll import make_sentence


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
            "d_h = 64\nencoder_mode = lstm+gcn\ngates_enabled = false\n")
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
        with pytest.raises(ConfigError):
            parse_config_text("encoder_mode = transformer\n")
        with pytest.raises(ConfigError):
            # J=0 outside gcn-only mode
            parse_config_text("J = 0\nencoder_mode = lstm+gcn\n")

    def test_save_load_round_trip(self, tmp_path):
        cfg = small_config(epochs=7, encoder_mode="gcn", lstm_layers=0)
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

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
        trainable = model.trainable_parameters()
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
        lstm_only, _ = tiny_model(overfit_sentences, lex,
                                  encoder_mode="lstm")
        assert lstm_only.gcn is None and lstm_only.lstm is not None
        gcn_only, _ = tiny_model(overfit_sentences, lex, encoder_mode="gcn",
                                 lstm_layers=0)
        assert gcn_only.lstm is None and gcn_only.gcn is not None
        assert gcn_only.gcn.input_projection is not None
        both, _ = tiny_model(overfit_sentences, lex)
        assert both.lstm is not None and both.gcn is not None
        assert both.gcn.input_projection is None

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

    def test_checkpoint_mismatch_rejected(self, overfit_sentences, tmp_path):
        model, lex = tiny_model(overfit_sentences)
        path = tmp_path / "m.ckpt"
        model.save(path)
        other, _ = tiny_model(overfit_sentences, lex, encoder_mode="lstm")
        with pytest.raises(ContractError, match="checkpoint"):
            other.load_tensors(nm.load_checkpoint(path))


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
        for inst in make_instances(overfit_sentences, lex):
            role_ids, _ = model.predict_instance(inst)
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

    def test_batch_accumulation_runs(self, overfit_sentences, tmp_path):
        cfg = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                           epochs=1, batch_size=4)
        result = train(overfit_sentences, overfit_sentences, cfg,
                       tmp_path / "run")
        assert len(result.history) == 1

    def test_hook_validation(self):
        # a config file naming a removed training hook is rejected, not
        # silently trained without it
        for line in ("grad_clip = 1.0", "lr_decay = 0.1", "lstm_dropout = 0.2",
                     "lemma_nonpred_vector = true", "gcn_width = 64",
                     "dropout_self_loops = false"):
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
