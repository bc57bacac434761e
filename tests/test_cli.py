import logging
import re
import time
from pathlib import Path

import numpy as np
import pytest

from syngcn import cli, fixtures
from syngcn import numerics as nm
from syngcn.cli import run
from syngcn.conll import Lexicon, parse_conll_file
from syngcn.errors import FormatError

from conftest import small_config
from test_conll import make_sentence
from syngcn.trainer import SrlModel, load_config, param_layout, save_config

DESK_CONF = Path(__file__).resolve().parents[1] / "configs" / "desk_overfit.conf"


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
                    "--out", str(tmp_path / "x"), "--set", "beta=1.5"])
        assert code == 1

    def test_flags_a_subcommand_ignores_are_rejected(self, tiny_run, data_dir,
                                                      tmp_path, capsys):
        test = str(data_dir / "overfit.conll")
        ckpt = str(tiny_run / "best.ckpt")
        train = ["train", "--train", test, "--out", str(tmp_path / "r")]
        for argv in (["predict", "--test", test, "--checkpoint", ckpt,
                      "--out", str(tmp_path / "p.conll"), "--mode", "gcn"],
                     ["evaluate", "--test", test, "--checkpoint", ckpt,
                      "--threads", "2"],
                     ["gradcheck", "--use-gold-syntax"],
                     # --set seed=, K=0 or J=0, gates_enabled=false and
                     # beta= replace these
                     train + ["--seed", "3"], train + ["--mode", "lstm"],
                     train + ["--gcn-layers", "0"], train + ["--no-gates"],
                     train + ["--edge-dropout", "0.2"]):
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
            code = run(["train", "--config", str(conf), "--set", "K=0",
                        "--set", "gates_enabled=false", "--set", "seed=99",
                        "--set", "beta=0.2", "--set", "d_r=32",
                        "--train", str(data_dir / "overfit.conll"),
                        "--out", str(tmp_path / "run")])
        assert code == 0
        assert "config gcn_layers = 0" in caplog.text
        assert "config gates_enabled = False" in caplog.text
        assert "config seed = 99" in caplog.text
        assert "config edge_dropout = 0.2" in caplog.text
        assert "config d_r = 32" in caplog.text

    @pytest.mark.parametrize("overrides,message", [
        (["seed=-1"], "seed must be >= 0"),
        (["learning_rate=nan"], "learning_rate must be finite"),
        (["epochs=-3"], "epochs must be >= 0"),
        (["J=0", "K=0"], "no encoder"),
    ], ids=["seed", "learning_rate", "epochs", "no encoder"])
    def test_out_of_range_value_exits_one(self, overrides, message, data_dir,
                                          tmp_path, caplog):
        argv = ["train", "--train", str(data_dir / "overfit.conll"),
                "--out", str(tmp_path / "run")]
        for item in overrides:
            argv += ["--set", item]
        assert run(argv) == 1
        assert message in caplog.text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dev", ["empty", "all roles null"])
    def test_dev_without_gold_argument_exits_one(self, dev, data_dir,
                                                 tmp_path, caplog):
        # such a file as --dev, and as --train, where it would train nothing
        # with a loss of 0 every epoch
        bad = tmp_path / "bad.conll"
        bad.write_text("" if dev == "empty" else make_sentence(
            [("a", "a", "N", 2, "SBJ", "_", "_"),
             ("v", "v", "V", 0, "ROOT", "Y", "v.01")],
            apreds_per_row=[["_"], ["_"]]))
        good = str(data_dir / "overfit.conll")
        for role, train_path, dev_path in (("dev", good, bad),
                                           ("training", bad, good)):
            caplog.clear()
            assert run(["train", "--config", str(DESK_CONF),
                        "--set", "epochs=3", "--train", str(train_path),
                        "--dev", str(dev_path),
                        "--out", str(tmp_path / "run")]) == 1
            assert f"the {role} data has no gold argument" in caplog.text
            assert not (tmp_path / "run").exists()

    def test_oversized_model_exits_one(self, data_dir, tmp_path, caplog):
        # refused from the config and lexicon, before any array is made, and
        # sized in closed form however deep the BiLSTM
        for setting in ("d_h=1000000000", f"J={10 ** 12}"):
            caplog.clear()
            start = time.perf_counter()
            assert run(["train", "--train", str(data_dir / "overfit.conll"),
                        "--out", str(tmp_path / "run"),
                        "--set", setting]) == 1
            assert time.perf_counter() - start < 1.0
            assert re.search(r"the model has [\d,]+ trainable parameters, "
                             r"more than the 268,435,456 allowed", caplog.text)
            assert not (tmp_path / "run").exists()

    def test_overrides_are_validated_together(self, data_dir, tmp_path,
                                              caplog):
        # from K = 0, the first override alone would leave no encoder
        conf = tmp_path / "c.conf"
        conf.write_text("K = 0\nepochs = 0\n")
        with caplog.at_level(logging.INFO, logger="syngcn"):
            code = run(["train", "--config", str(conf), "--set", "J=0",
                        "--set", "K=1",
                        "--train", str(data_dir / "overfit.conll"),
                        "--out", str(tmp_path / "run")])
        assert code == 0
        assert "config lstm_layers = 0" in caplog.text
        assert "config gcn_layers = 1" in caplog.text

    def test_reused_run_directory_exits_one(self, tiny_run, data_dir, caplog):
        # a second run would mix its files with the first run's checkpoints
        before = {p.name: p.read_bytes() for p in tiny_run.iterdir()}
        code = run(["train", "--config", str(DESK_CONF), "--set", "epochs=2",
                    "--set", "seed=5",
                    "--train", str(data_dir / "overfit.conll"),
                    "--out", str(tiny_run)])
        assert code == 1
        assert "already holds a run" in caplog.text
        assert {p.name: p.read_bytes() for p in tiny_run.iterdir()} == before

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

    # the gold file holds two copies of one 4-token sentence, its predicate
    # at token 2; each predicted file differs from it in sentence 2
    EVAL_ROWS = [("a", "a", "N", 2, "SBJ", "_", "_"),
                 ("v", "v", "V", 0, "ROOT", "Y", "v.01"),
                 ("b", "b", "N", 2, "OBJ", "_", "_"),
                 ("c", "c", "N", 3, "NMOD", "_", "_")]
    EVAL_ROLES = [["A0"], ["_"], ["A1"], ["_"]]

    @pytest.mark.parametrize("second,message", [
        ((EVAL_ROWS[:3], EVAL_ROLES[:3]), "sentence 2 has 3 tokens"),
        (([r[:5] + ("_", "_") for r in EVAL_ROWS], None),
         "sentence 2 has 4 tokens with predicates at []"),
        (None, "1 sentences"),
    ], ids=["shorter", "no predicate", "fewer sentences"])
    def test_evaluate_misaligned_prediction_exits_one(self, tmp_path, caplog,
                                                      second, message):
        sentence = make_sentence(self.EVAL_ROWS, self.EVAL_ROLES)
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text(sentence * 2)
        pred.write_text(sentence + (make_sentence(*second) if second else ""))
        code = run(["evaluate", "--test", str(gold), "--pred", str(pred)])
        assert code == 1
        assert f"{pred}: {message}" in caplog.text

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
    "negative count": (nm.load_checkpoint, b"SYNGCN1\t-3\n"),
    "short header": (nm.load_checkpoint, b"SYNGCN1\t1\nw\tfloat32\n"),
    "negative dim": (nm.load_checkpoint, b"SYNGCN1\t1\nw\tfloat32\t2,-3\n"),
    "not utf-8": (nm.load_checkpoint, b"SYNGCN1\t1\n\xff\xfe\tfloat32\t1\n"),
    "tensor twice": (nm.load_checkpoint, b"SYNGCN1\t2\nw\tfloat32\t1\n"
                     b"w\tfloat32\t1\n" + bytes(8)),
    "lexicon kind": (Lexicon.load, b"SYNGCNLEX1\nverb\t0\tx\t1\n"),
    "lexicon negative count": (Lexicon.load,
                               b"SYNGCNLEX1\nword\t2\tfoo\t-7\n"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_reader_raises_format_error(self, case, tmp_path):
        reader, content = MALFORMED[case]
        path = tmp_path / "bad"
        path.write_bytes(content)
        with pytest.raises(FormatError):
            reader(path)

    @staticmethod
    def _predict_with(tiny_run, data_dir, tmp_path, checkpoint: bytes,
                      config: str | None = None) -> int:
        """Exit code of predicting with ``tiny_run``'s sidecars beside
        ``checkpoint``, and ``config`` in place of its config.txt if given."""
        run_dir = tmp_path / "model"
        run_dir.mkdir(exist_ok=True)
        for name in ("config.txt", "lexicon.txt"):
            (run_dir / name).write_bytes((tiny_run / name).read_bytes())
        if config is not None:
            (run_dir / "config.txt").write_text(config)
        (run_dir / "best.ckpt").write_bytes(checkpoint)
        return run(["predict", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", str(run_dir / "best.ckpt"),
                    "--out", str(tmp_path / "p.conll")])

    def test_predict_on_malformed_checkpoint_exits_one(self, tiny_run,
                                                       data_dir, tmp_path):
        for case, (reader, content) in MALFORMED.items():
            if reader is nm.load_checkpoint:
                assert self._predict_with(tiny_run, data_dir, tmp_path,
                                          content) == 1, case

    def test_checkpoint_unlike_its_config_exits_one(self, tiny_run, data_dir,
                                                    tmp_path, caplog):
        config = (tiny_run / "config.txt").read_text()
        for saved, edited, message in [
                ("gcn_layers = 1", "gcn_layers = 2",
                 r"tensor 19 is \('cls.pair_transform', 'float32', "
                 r"\(16, 32\)\), expected \('gcn.1.w_along', 'float32', "
                 r"\(16, 16\)\)"),
                ("dtype = float32", "dtype = float64",
                 r"tensor 1 is \('embed.word', 'float32', \((\d+), 8\)\), "
                 r"expected \('embed.word', 'float64', \(\1, 8\)\)")]:
            assert saved + "\n" in config
            caplog.clear()
            code = self._predict_with(
                tiny_run, data_dir, tmp_path,
                (tiny_run / "best.ckpt").read_bytes(),
                config.replace(saved + "\n", edited + "\n"))
            assert code == 1, edited
            assert re.search(message, caplog.text), edited

    @pytest.mark.parametrize("where", ["config file", "--set"])
    def test_non_numeric_config_value_exits_one(self, where, data_dir,
                                                tmp_path, caplog):
        argv = ["train", "--train", str(data_dir / "overfit.conll"),
                "--out", str(tmp_path / "model")]
        if where == "--set":
            argv += ["--set", "lr=x"]
        else:
            conf = tmp_path / "bad.conf"
            conf.write_text("d_h = abc\n")
            argv += ["--config", str(conf)]
        assert run(argv) == 1
        assert "expected" in caplog.text

    @staticmethod
    def _train_with_embedding(value, data_dir, tmp_path):
        """Exit code of training on an embedding file whose second line
        holds ``value``, and that file's path."""
        cfg_path = tmp_path / "train.conf"
        save_config(small_config(d_w=2, epochs=1), cfg_path)
        emb = tmp_path / "emb.txt"
        emb.write_text(f"the 0.1 0.2\ncat 0.3 {value}\n")
        code = run(["train", "--config", str(cfg_path),
                    "--train", str(data_dir / "overfit.conll"),
                    "--embeddings", str(emb), "--out", str(tmp_path / "model")])
        return code, emb

    def test_non_numeric_embedding_exits_one(self, data_dir, tmp_path, caplog):
        code, emb = self._train_with_embedding("x", data_dir, tmp_path)
        assert code == 1
        assert f"{emb}:2:" in caplog.text
        assert not (tmp_path / "model").exists()

    # 1e39 is a finite float64, but beyond the float32 table's range
    @pytest.mark.parametrize("value,message", [
        ("nan", "{emb}:2: non-finite"), ("1e400", "{emb}:2: non-finite"),
        ("1e39", "'cat' has a value outside the float32 range")],
        ids=["nan", "1e400", "1e39"])
    def test_non_finite_embedding_exits_one(self, data_dir, tmp_path, caplog,
                                            value, message):
        code, emb = self._train_with_embedding(value, data_dir, tmp_path)
        assert code == 1
        assert message.format(emb=emb) in caplog.text
        assert not (tmp_path / "model").exists()

    def test_non_utf8_conll_exits_one(self, tiny_run, data_dir, tmp_path,
                                      caplog):
        test = tmp_path / "latin1.conll"
        text = (data_dir / "overfit.conll").read_text(encoding="utf-8")
        test.write_bytes(text.replace("\t", "\xe9\t", 1).encode("latin-1"))
        code = run(["predict", "--test", str(test),
                    "--checkpoint", str(tiny_run / "best.ckpt"),
                    "--out", str(tmp_path / "p.conll")])
        assert code == 1
        assert "not UTF-8" in caplog.text


def _taken(tmp_path, directory: bool) -> str:
    """An existing directory, or file, where the command wants the other
    kind: an --out, or a directory as an input file."""
    path = tmp_path / "taken"
    if directory:
        path.mkdir()
    else:
        path.write_text("kept\n")
    return str(path)


def _below_a_file(tmp_path) -> str:
    """A directory --out whose parent is an existing file."""
    return str(Path(_taken(tmp_path, directory=False)) / "out")


NOT_UTF8_CONFIG = b"epochs = 1 # \xff\n"


def _non_utf8_config(tmp_path) -> str:
    path = tmp_path / "bad.conf"
    path.write_bytes(NOT_UTF8_CONFIG)
    return str(path)


def _checkpoint_with(tmp_path, tiny_run, sidecar: str, data: bytes) -> str:
    """A copy of the trained run whose ``sidecar`` file holds ``data``."""
    run_dir = tmp_path / "model"
    run_dir.mkdir()
    for name in ("config.txt", "lexicon.txt", "best.ckpt"):
        (run_dir / name).write_bytes((tiny_run / name).read_bytes())
    (run_dir / sidecar).write_bytes(data)
    return str(run_dir / "best.ckpt")


def _config_without(tiny_run, key: str) -> bytes:
    """The trained run's config.txt with the line of ``key`` deleted."""
    lines = (tiny_run / "config.txt").read_bytes().splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(f"{key} =".encode())]
    assert len(kept) == len(lines) - 1
    return b"".join(kept)


def _cut(tmp_path, data) -> str:
    """A copy of the bundled overfit.conll cut short inside the row on its
    line 8, after 6 of the row's 15 columns."""
    lines = Path(data("overfit.conll")).read_text(encoding="utf-8").split("\n")
    cut = "\t".join(lines[7].split("\t")[:6])
    path = tmp_path / "cut.conll"
    path.write_text("\n".join(lines[:7] + [cut]), encoding="utf-8",
                    newline="")
    return str(path)


def _renumbered(tmp_path, data) -> str:
    """A copy of the bundled overfit.conll whose second row has ID 1, as its
    first has."""
    lines = Path(data("overfit.conll")).read_text(encoding="utf-8").split("\n")
    lines[1] = "1" + lines[1][lines[1].index("\t"):]
    path = tmp_path / "ids.conll"
    path.write_text("\n".join(lines), encoding="utf-8", newline="")
    return str(path)


# fault -> (exit code, argv from the test's directory, the bundled data and
# a trained run, then any names the error line must hold), with the
# fault put in place as the argv is built
CLI_FAULTS = {
    "truncated --train": (1, lambda tmp, data, run: [
        "train", "--config", str(DESK_CONF), "--train", _cut(tmp, data),
        "--dev", data("overfit.conll"), "--out", str(tmp / "model")],
        "cut.conll"),
    "truncated --dev": (1, lambda tmp, data, run: [
        "train", "--config", str(DESK_CONF), "--train", data("overfit.conll"),
        "--dev", _cut(tmp, data), "--out", str(tmp / "model")], "cut.conll"),
    "truncated --test": (1, lambda tmp, data, run: [
        "evaluate", "--test", _cut(tmp, data),
        "--pred", data("overfit.conll")], "cut.conll"),
    "truncated --pred": (1, lambda tmp, data, run: [
        "evaluate", "--test", data("overfit.conll"),
        "--pred", _cut(tmp, data)], "cut.conll"),
    "repeated row ID in --test": (1, lambda tmp, data, run: [
        "evaluate", "--test", _renumbered(tmp, data),
        "--pred", data("overfit.conll")], "ids.conll", "line 2", "ID '1'"),
    "train --out names a file": (1, lambda tmp, data, run: [
        "train", "--config", str(DESK_CONF), "--train", data("overfit.conll"),
        "--out", _taken(tmp, directory=False)]),
    "evaluate --out names a file": (1, lambda tmp, data, run: [
        "evaluate", "--test", data("overfit.conll"),
        "--pred", data("overfit.conll"), "--out", _taken(tmp, directory=False)]),
    "analyze --out names a file": (1, lambda tmp, data, run: [
        "analyze", "--test", data("structural.conll"), "--teleport",
        "--out", _taken(tmp, directory=False)]),
    "train --out below a file": (1, lambda tmp, data, run: [
        "train", "--config", str(DESK_CONF), "--train", data("overfit.conll"),
        "--out", _below_a_file(tmp)]),
    "evaluate --out below a file": (1, lambda tmp, data, run: [
        "evaluate", "--test", data("overfit.conll"),
        "--pred", data("overfit.conll"), "--out", _below_a_file(tmp)]),
    "analyze --out below a file": (1, lambda tmp, data, run: [
        "analyze", "--test", data("structural.conll"), "--teleport",
        "--out", _below_a_file(tmp)]),
    "predict --out names a directory": (1, lambda tmp, data, run: [
        "predict", "--test", data("overfit.conll"),
        "--checkpoint", str(run / "best.ckpt"),
        "--out", _taken(tmp, directory=True)]),
    "non-UTF-8 --config": (1, lambda tmp, data, run: [
        "train", "--config", _non_utf8_config(tmp),
        "--train", data("overfit.conll"), "--out", str(tmp / "model")]),
    "non-UTF-8 config.txt sidecar": (1, lambda tmp, data, run: [
        "predict", "--test", data("overfit.conll"),
        "--checkpoint", _checkpoint_with(tmp, run, "config.txt",
                                         NOT_UTF8_CONFIG),
        "--out", str(tmp / "p.conll")], "config.txt"),
    # the run wrote every field: a missing one is not read as its default
    "config.txt sidecar missing a line": (1, lambda tmp, data, run: [
        "predict", "--test", data("overfit.conll"),
        "--checkpoint", _checkpoint_with(
            tmp, run, "config.txt", _config_without(run, "gates_enabled")),
        "--out", str(tmp / "p.conll")], "config.txt", "gates_enabled"),
    "empty config.txt sidecar": (1, lambda tmp, data, run: [
        "predict", "--test", data("overfit.conll"),
        "--checkpoint", _checkpoint_with(tmp, run, "config.txt", b""),
        "--out", str(tmp / "p.conll")], "config.txt", "d_w"),
    # the checkpoint is whole: the error names the sidecars that set the
    # shapes it was checked against
    "lexicon.txt sidecar missing its last lines": (1, lambda tmp, data, run: [
        "predict", "--test", data("overfit.conll"),
        "--checkpoint", _checkpoint_with(
            tmp, run, "lexicon.txt", b"".join((run / "lexicon.txt")
                                              .read_bytes()
                                              .splitlines(keepends=True)[:-3])),
        "--out", str(tmp / "p.conll")], "best.ckpt", "config.txt",
        "lexicon.txt"),
    "gradcheck --seed -1": (1, lambda tmp, data, run: [
        "gradcheck", "--seed", "-1"], "--seed"),
    "analyze --min-count -1": (1, lambda tmp, data, run: [
        "analyze", "--test", data("overfit.conll"), "--ablation",
        "--checkpoint", str(run / "best.ckpt"), "--min-count", "-1"],
        "--min-count"),
    "gradcheck --tolerance nan": (1, lambda tmp, data, run: [
        "gradcheck", "--tolerance", "nan"], "--tolerance"),
    "gradcheck --tolerance -1": (1, lambda tmp, data, run: [
        "gradcheck", "--tolerance", "-1"], "--tolerance"),
    "predict --out in a missing directory": (1, lambda tmp, data, run: [
        "predict", "--test", data("overfit.conll"),
        "--checkpoint", str(run / "best.ckpt"),
        "--out", str(tmp / "absent" / "p.conll")]),
    # a file that cannot be opened is a runtime OSError
    "missing --test": (2, lambda tmp, data, run: [
        "predict", "--test", str(tmp / "absent.conll"),
        "--checkpoint", str(run / "best.ckpt"),
        "--out", str(tmp / "p.conll")]),
    "directory as --test": (2, lambda tmp, data, run: [
        "predict", "--test", _taken(tmp, directory=True),
        "--checkpoint", str(run / "best.ckpt"),
        "--out", str(tmp / "p.conll")]),
    "directory as --config": (2, lambda tmp, data, run: [
        "train", "--config", _taken(tmp, directory=True),
        "--train", data("overfit.conll"), "--out", str(tmp / "model")]),
    "directory as --embeddings": (2, lambda tmp, data, run: [
        "train", "--config", str(DESK_CONF), "--train", data("overfit.conll"),
        "--embeddings", _taken(tmp, directory=True),
        "--out", str(tmp / "model")]),
}


class TestCliFaults:
    @pytest.mark.parametrize("fault", list(CLI_FAULTS))
    def test_fault_exits_with_one_error_and_no_output(
            self, fault, tiny_run, data_dir, tmp_path, capsys, caplog):
        code, argv_for, *named = CLI_FAULTS[fault]
        argv = argv_for(tmp_path, lambda name: str(data_dir / name), tiny_run)
        before = {p: p.read_bytes() if p.is_file() else None
                  for p in tmp_path.rglob("*")}
        assert run(argv) == code
        captured = capsys.readouterr()
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [(r.name, r.levelno) for r in errors] == [("syngcn",
                                                          logging.ERROR)]
        assert all(name in errors[0].getMessage() for name in named), \
            errors[0].getMessage()
        assert "Traceback" not in captured.err + caplog.text
        assert captured.out == ""
        assert {p: p.read_bytes() if p.is_file() else None
                for p in tmp_path.rglob("*")} == before

    def test_non_finite_training_exits_two(self, data_dir, tmp_path, capsys,
                                           caplog):
        # at lr = 1e38 the first update overflows the LSTM: one error line
        # naming the epoch, the instance and the op, then every parameter's
        # largest magnitude, and no traceback or numpy warning (CI runs this
        # with warnings as errors); no epoch is recorded or saved
        out = tmp_path / "run"
        code = run(["train", "--config", str(DESK_CONF),
                    "--train", str(data_dir / "overfit.conll"),
                    "--set", "lr=1e38", "--set", "epochs=2",
                    "--out", str(out)])
        assert code == 2
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert [(r.name, r.levelno) for r in errors] == [("syngcn",
                                                          logging.ERROR)]
        head, *norms = errors[0].getMessage().split("\n")
        assert re.fullmatch(r"epoch 1, instance \d+: non-finite values "
                            r"produced by lstm", head), head
        names = list(SrlModel(load_config(DESK_CONF),
                              Lexicon.load(out / "lexicon.txt"),
                              np.random.default_rng(0)).parameters())
        assert norms[0] == "parameter norms:"
        assert [line.split(":")[0].strip() for line in norms[1:]] == names
        assert all(re.fullmatch(r"  [\w.]+: \|\.\|=\S+", line)
                   for line in norms[1:])
        assert "Traceback" not in capsys.readouterr().err + caplog.text
        assert (out / "metrics.tsv").read_text() == ""
        assert not (out / "best.ckpt").exists()


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

    def test_buckets_load_each_checkpoint_once(self, tiny_run, data_dir,
                                               monkeypatch):
        loaded = []

        def counting_load(checkpoint):
            loaded.append(checkpoint)
            return load_model(checkpoint)

        load_model = cli._load_model
        monkeypatch.setattr(cli, "_load_model", counting_load)
        ckpt = str(tiny_run / "best.ckpt")
        code = run(["analyze", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", ckpt, "--checkpoint", ckpt, "--buckets"])
        assert code == 0
        assert loaded == [ckpt, ckpt]

    def test_ablation_of_an_ensemble_exits_one(self, tiny_run, data_dir,
                                               monkeypatch, caplog):
        # the ablation scores one model; an ensemble is refused before any
        # checkpoint is loaded
        loaded = []
        monkeypatch.setattr(cli, "_load_model", loaded.append)
        ckpt = str(tiny_run / "best.ckpt")
        code = run(["analyze", "--test", str(data_dir / "overfit.conll"),
                    "--checkpoint", ckpt, "--checkpoint", ckpt,
                    "--buckets", "--ablation", "--min-count", "1"])
        assert code == 1
        assert loaded == []
        assert "one --checkpoint" in caplog.text

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

    def test_failure_names_the_worst_tensor(self, capsys):
        # no error is below a tolerance of 0
        assert run(["gradcheck", "--tolerance", "0"]) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        match = re.fullmatch(r"FAIL \(worst: (\S+)\)", last)
        assert match, last
        model, _ = fixtures.gradcheck_model(seed=7)
        assert match.group(1) in dict(param_layout(model.config,
                                                   model.lexicon))

    def test_seed_zero_is_honoured(self, caplog):
        with caplog.at_level(logging.INFO, logger="syngcn"):
            assert run(["gradcheck", "--seed", "0"]) == 0
        assert "config seed = 0" in caplog.text
