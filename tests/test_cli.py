import logging

import numpy as np
import pytest

from syngcn import fixtures
from syngcn import numerics as nm
from syngcn.cli import run
from syngcn.conll import Lexicon, parse_conll_file
from syngcn.errors import FormatError

from conftest import small_config
from syngcn.trainer import save_config


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    fixtures.write_all(d)
    return d


@pytest.fixture(scope="module")
def tiny_run(data_dir, tmp_path_factory):
    """A 3-epoch CLI training run shared by the predict/evaluate tests."""
    out = tmp_path_factory.mktemp("run")
    cfg_path = out / "train.conf"
    save_config(small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                             epochs=3), cfg_path)
    code = run(["train", "--config", str(cfg_path),
                "--train", str(data_dir / "overfit.conll"),
                "--dev", str(data_dir / "overfit.conll"),
                "--out", str(out / "model")])
    assert code == 0
    return out / "model"


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        assert run(["train", "--nonsense"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_exits_one(self):
        assert run(["train"]) == 1

    def test_validation_error_exits_one(self, data_dir, tmp_path):
        code = run(["train", "--train", str(data_dir / "overfit.conll"),
                    "--out", str(tmp_path / "x"), "--edge-dropout", "1.5"])
        assert code == 1

    def test_flags_a_subcommand_ignores_are_rejected(self, tiny_run, data_dir,
                                                      tmp_path, capsys):
        test = str(data_dir / "overfit.conll")
        ckpt = str(tiny_run / "best.ckpt")
        for argv in (["predict", "--test", test, "--checkpoint", ckpt,
                      "--out", str(tmp_path / "p.conll"), "--mode", "gcn"],
                     ["evaluate", "--test", test, "--checkpoint", ckpt,
                      "--threads", "2"],
                     ["gradcheck", "--use-gold-syntax"]):
            assert run(argv) == 1
            assert "usage" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        code = run(["evaluate", "--test", str(tmp_path / "absent.conll"),
                    "--pred", str(tmp_path / "absent.conll")])
        assert code == 2


class TestTrain:
    def test_resolved_config_is_logged(self, data_dir, tmp_path, caplog):
        # the shipped full-scale configuration, epochs=0 resolves and echoes
        conf = tmp_path / "full.conf"
        conf.write_text("d_h = 512\nJ = 3\nK = 1\nbeta = 0.3\nlr = 0.01\n"
                        "epochs = 0\n")
        with caplog.at_level(logging.INFO, logger="syngcn"):
            code = run(["train", "--config", str(conf),
                        "--train", str(data_dir / "overfit.conll"),
                        "--out", str(tmp_path / "run")])
        assert code == 0
        text = caplog.text
        assert "config d_h = 512" in text
        assert "config lstm_layers = 3" in text
        assert "config gcn_layers = 1" in text
        assert "config edge_dropout = 0.3" in text
        assert "config learning_rate = 0.01" in text

    def test_artifacts_written(self, tiny_run):
        for name in ("best.ckpt", "lexicon.txt", "config.txt", "metrics.tsv"):
            assert (tiny_run / name).exists()

    def test_cli_overrides(self, data_dir, tmp_path, caplog):
        conf = tmp_path / "c.conf"
        conf.write_text("epochs = 0\nd_h = 8\nd_w = 8\n")
        with caplog.at_level(logging.INFO, logger="syngcn"):
            code = run(["train", "--config", str(conf), "--mode", "lstm",
                        "--no-gates", "--seed", "99", "--edge-dropout", "0.2",
                        "--set", "d_r=32",
                        "--train", str(data_dir / "overfit.conll"),
                        "--out", str(tmp_path / "run")])
        assert code == 0
        assert "config encoder_mode = lstm" in caplog.text
        assert "config gates_enabled = False" in caplog.text
        assert "config seed = 99" in caplog.text
        assert "config edge_dropout = 0.2" in caplog.text
        assert "config d_r = 32" in caplog.text

    def test_embeddings_flag(self, data_dir, tmp_path):
        conf = tmp_path / "c.conf"
        save_config(small_config(d_w=4, d_pos=4, d_l=4, d_h=4, d_r=4,
                                 d_l_out=4, epochs=1), conf)
        code = run(["train", "--config", str(conf),
                    "--train", str(data_dir / "overfit.conll"),
                    "--embeddings", str(data_dir / "embeddings.txt"),
                    "--out", str(tmp_path / "run")])
        assert code == 0


class TestPredictEvaluate:
    def test_predict_output_reparses(self, tiny_run, data_dir, tmp_path):
        out = tmp_path / "pred.conll"
        code = run(["predict", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", str(tiny_run / "best.ckpt"),
                    "--out", str(out)])
        assert code == 0
        sents = parse_conll_file(out)
        originals = parse_conll_file(data_dir / "overfit.conll")
        assert len(sents) == len(originals)
        for a, b in zip(sents, originals):
            assert [t.form for t in a.tokens] == [t.form for t in b.tokens]
            assert a.predicates == b.predicates

    def test_predict_deterministic(self, tiny_run, data_dir, tmp_path):
        outs = []
        for name in ("a.conll", "b.conll"):
            path = tmp_path / name
            assert run(["predict", "--test", str(data_dir / "overfit.conll"),
                        "--checkpoint", str(tiny_run / "best.ckpt"),
                        "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_evaluate_gold_vs_itself(self, data_dir, capsys):
        code = run(["evaluate", "--test", str(data_dir / "overfit.conll"),
                    "--pred", str(data_dir / "overfit.conll")])
        assert code == 0
        out = capsys.readouterr().out
        assert "1.0000" in out

    def test_evaluate_checkpoint_writes_reports(self, tiny_run, data_dir,
                                                tmp_path):
        out = tmp_path / "reports"
        code = run(["evaluate", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", str(tiny_run / "best.ckpt"),
                    "--out", str(out)])
        assert code == 0
        assert (out / "scores.txt").exists()
        tsv = (out / "scores.tsv").read_text().strip().split("\n")
        assert all(len(line.split("\t")) == 3 for line in tsv)

    def test_evaluate_needs_exactly_one_source(self, data_dir):
        assert run(["evaluate", "--test", str(data_dir / "overfit.conll")]) == 1

    def test_ensemble_predict(self, tiny_run, data_dir, tmp_path):
        single = tmp_path / "single.conll"
        double = tmp_path / "double.conll"
        ckpt = str(tiny_run / "best.ckpt")
        assert run(["predict", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", ckpt, "--out", str(single)]) == 0
        assert run(["predict", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", ckpt, "--checkpoint", ckpt,
                    "--out", str(double)]) == 0
        assert single.read_bytes() == double.read_bytes()


MALFORMED = {
    "count": (nm.load_checkpoint, b"SYNGCN1\tmany\n"),
    "short header": (nm.load_checkpoint, b"SYNGCN1\t1\nw\tfloat32\n"),
    "negative dim": (nm.load_checkpoint, b"SYNGCN1\t1\nw\tfloat32\t2,-3\n"),
    "not utf-8": (nm.load_checkpoint, b"SYNGCN1\t1\n\xff\xfe\tfloat32\t1\n"),
    "lexicon kind": (Lexicon.load, b"SYNGCNLEX1\nverb\t0\tx\t1\n"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_reader_raises_format_error(self, case, tmp_path):
        reader, content = MALFORMED[case]
        path = tmp_path / "bad"
        path.write_bytes(content)
        with pytest.raises(FormatError):
            reader(path)

    def test_predict_on_malformed_checkpoint_exits_one(self, tiny_run,
                                                       data_dir, tmp_path):
        run_dir = tmp_path / "model"
        run_dir.mkdir()
        for name in ("config.txt", "lexicon.txt"):
            (run_dir / name).write_bytes((tiny_run / name).read_bytes())
        (run_dir / "best.ckpt").write_bytes(MALFORMED["negative dim"][1])
        code = run(["predict", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", str(run_dir / "best.ckpt"),
                    "--out", str(tmp_path / "p.conll")])
        assert code == 1


class TestAnalyze:
    def test_teleport_only_needs_no_model(self, data_dir, tmp_path, capsys):
        out = tmp_path / "analysis"
        code = run(["analyze", "--test", str(data_dir / "structural.conll"),
                    "--teleport", "--out", str(out)])
        assert code == 0
        assert "teleport" in capsys.readouterr().out
        rows = (out / "analysis.tsv").read_text().strip().split("\n")
        assert any(r.startswith("teleport\ttoken_fraction") for r in rows)

    def test_buckets_and_ablation(self, tiny_run, data_dir, tmp_path, capsys):
        out = tmp_path / "analysis"
        code = run(["analyze", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", str(tiny_run / "best.ckpt"),
                    "--buckets", "--ablation", "--min-count", "1",
                    "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "bucket" in printed
        assert "drop" in printed
        rows = (out / "analysis.tsv").read_text()
        assert "bucket_f1" in rows
        assert "delta_f1" in rows

    def test_no_analysis_selected(self, data_dir):
        assert run(["analyze",
                    "--test", str(data_dir / "structural.conll")]) == 1


class TestGradcheck:
    def test_passes_and_prints(self, capsys):
        code = run(["gradcheck"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max rel err" in out
        assert "PASS" in out

    def test_seed_zero_is_honoured(self, caplog):
        with caplog.at_level(logging.INFO, logger="syngcn"):
            assert run(["gradcheck", "--seed", "0"]) == 0
        assert "config seed = 0" in caplog.text
