"""Command-line entry point: train / predict / evaluate / analyze / gradcheck.

Every run logs its fully resolved configuration before doing work. Exit
codes: 0 success, 1 validation failure (bad flags, bad or non-UTF-8 config,
bad input files, an --out of the wrong kind), 2 runtime error (a file that
cannot be opened among them). The SYNGCN_LOG environment variable (error,
info, debug) sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import numerics as nm
from . import evaluator, trainer
from .conll import build_lexicon, parse_conll_file, write_conll_file, Lexicon
from .embedder import load_pretrained
from .errors import ConfigError, FormatError, ParseError, SynGcnError

logger = logging.getLogger("syngcn")

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="syngcn", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def gold_syntax(p):
        p.add_argument("--use-gold-syntax", action="store_true",
                       help="read gold HEAD/DEPREL/POS columns instead of predicted")

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--config", help="key = value configuration file")
    gold_syntax(p_train)
    p_train.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                         help="config override, repeatable (e.g. K=0, seed=5)")
    p_train.add_argument("--train", required=True, help="training CoNLL file")
    p_train.add_argument("--dev", help="development CoNLL file")
    p_train.add_argument("--embeddings", help="pretrained embedding text file")
    p_train.add_argument("--out", required=True, help="run directory")

    p_predict = sub.add_parser("predict", help="label a CoNLL file")
    gold_syntax(p_predict)
    p_predict.add_argument("--test", required=True, help="input CoNLL file")
    p_predict.add_argument("--checkpoint", required=True, action="append",
                           help="model checkpoint; repeat for an ensemble")
    p_predict.add_argument("--out", required=True, help="output CoNLL file")

    p_eval = sub.add_parser("evaluate", help="score predictions against gold")
    gold_syntax(p_eval)
    p_eval.add_argument("--test", required=True, help="gold CoNLL file")
    p_eval.add_argument("--pred", help="predicted CoNLL file to score")
    p_eval.add_argument("--checkpoint", action="append",
                        help="score this model instead of a prediction file")
    p_eval.add_argument("--out", help="directory for report files")

    p_analyze = sub.add_parser("analyze", help="distance/ablation/teleport analyses")
    gold_syntax(p_analyze)
    p_analyze.add_argument("--test", required=True, help="CoNLL file to analyze")
    p_analyze.add_argument("--checkpoint", action="append",
                           help="model (needed for buckets and ablation)")
    p_analyze.add_argument("--teleport", action="store_true")
    p_analyze.add_argument("--buckets", action="store_true")
    p_analyze.add_argument("--ablation", action="store_true")
    p_analyze.add_argument("--min-count", type=int, default=300,
                           help="relation count threshold for the ablation")
    p_analyze.add_argument("--out", help="directory for report files")

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient check")
    p_grad.add_argument("--seed", type=int, default=7,
                        help="seed of the random model and instance")
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    return parser


def _resolve_config(args) -> trainer.TrainConfig:
    cfg = trainer.TrainConfig()
    if args.config:
        cfg = trainer.load_config(args.config, cfg)
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
    # one parse, validated after every override, so their order does not
    # matter: from K = 0, "--set J=0 --set K=1" passes through J = K = 0
    cfg = trainer.parse_config_text("\n".join(args.set), cfg)
    _log_config(cfg)
    return cfg


def _log_config(cfg: trainer.TrainConfig) -> None:
    for key, value in cfg.items():
        logger.info("config %s = %s", key, value)


def _load_model(checkpoint: str) -> trainer.SrlModel:
    """Load a checkpoint with its sidecar config.txt and lexicon.txt."""
    ckpt = Path(checkpoint)
    run_dir = ckpt.parent
    config_path = run_dir / "config.txt"
    lexicon_path = run_dir / "lexicon.txt"
    if not config_path.exists() or not lexicon_path.exists():
        raise ConfigError(f"{run_dir}: config.txt/lexicon.txt sidecars not "
                          f"found next to the checkpoint")
    cfg = trainer.load_config(config_path)
    _log_config(cfg)
    lexicon = Lexicon.load(lexicon_path)
    return trainer.SrlModel.from_checkpoint(ckpt, cfg, lexicon)


def _cmd_train(args) -> int:
    cfg = _resolve_config(args)
    train_sents = parse_conll_file(args.train,
                                   use_gold_syntax=args.use_gold_syntax)
    dev_sents = None
    if args.dev:
        dev_sents = parse_conll_file(args.dev,
                                     use_gold_syntax=args.use_gold_syntax)
    if cfg.epochs == 0:
        logger.info("epochs = 0: configuration resolved, nothing to train")
        return 0
    lexicon = build_lexicon(train_sents, min_freq=cfg.min_freq)
    pretrained = None
    if args.embeddings:
        pretrained, report = load_pretrained(args.embeddings, lexicon, cfg.d_w)
        logger.info("embeddings: hit rate %.3f", report.hit_rate)
    result = trainer.train(train_sents, dev_sents, cfg, args.out,
                           lexicon=lexicon, pretrained=pretrained)
    if result.best_checkpoint:
        logger.info("best epoch %d (dev F1 %.4f) -> %s", result.best_epoch,
                    result.best_f1, result.best_checkpoint)
    return 0


def _check_out(path: str | None, directory: bool) -> None:
    """Refuse, before any input is read, an ``--out`` that names an existing
    path of the other kind than ``directory`` says, or a file whose
    directory does not exist (a directory ``--out`` is made as needed)."""
    if path is None:
        return
    out = Path(path)
    if out.exists() and out.is_dir() != directory:
        raise ConfigError(f"--out {path} exists and is "
                          f"{'not ' if directory else ''}a directory")
    if not directory and not out.parent.is_dir():
        raise ConfigError(f"--out {path}: {out.parent} is not a directory")


def _predictions_for(models, sentences) -> evaluator.PredictionSet:
    if len(models) == 1:
        return evaluator.predict_corpus(models[0], sentences)
    return evaluator.ensemble_models(models, sentences)


def _cmd_predict(args) -> int:
    _check_out(args.out, directory=False)
    sentences = parse_conll_file(args.test,
                                 use_gold_syntax=args.use_gold_syntax)
    preds = _predictions_for([_load_model(c) for c in args.checkpoint], sentences)
    write_conll_file(args.out, sentences, preds)
    logger.info("wrote %s", args.out)
    return 0


def _check_same_sentences(gold, pred, gold_path, pred_path) -> None:
    """Refuse predictions for other sentences than the gold file's."""
    if len(pred) != len(gold):
        raise FormatError(f"{pred_path}: {len(pred)} sentences, {gold_path} "
                          f"has {len(gold)}")
    for i, (g, p) in enumerate(zip(gold, pred), start=1):
        if (len(p), p.predicates) != (len(g), g.predicates):
            raise FormatError(
                f"{pred_path}: sentence {i} has {len(p)} tokens with "
                f"predicates at {p.predicates}, {gold_path} has {len(g)} "
                f"tokens with predicates at {g.predicates}")


def _write_rows(path: Path, rows: list[tuple[str, str, str]]) -> None:
    """Write (metric, key, value) rows as tab-separated lines, creating the
    file's directory if needed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{metric}\t{key}\t{value}\n"
                      for metric, key, value in rows)


def _cmd_evaluate(args) -> int:
    _check_out(args.out, directory=True)
    if bool(args.pred) == bool(args.checkpoint):
        raise ConfigError("evaluate needs exactly one of --pred / --checkpoint")
    gold = parse_conll_file(args.test, use_gold_syntax=args.use_gold_syntax)
    if args.pred:
        pred_sents = parse_conll_file(args.pred)
        _check_same_sentences(gold, pred_sents, args.test, args.pred)
        preds = evaluator.PredictionSet.from_gold(pred_sents)
    else:
        preds = _predictions_for([_load_model(c) for c in args.checkpoint], gold)
    report = evaluator.score(gold, preds)
    text = evaluator.format_report(report)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        _write_rows(out / "scores.tsv", evaluator.report_rows(report))
        (out / "scores.txt").write_text(text, encoding="utf-8", newline="")
    return 0


def _cmd_analyze(args) -> int:
    _check_out(args.out, directory=True)
    sentences = parse_conll_file(args.test,
                                 use_gold_syntax=args.use_gold_syntax)
    if not (args.teleport or args.buckets or args.ablation):
        raise ConfigError("analyze: pick at least one of --teleport/--buckets/"
                          "--ablation")
    rows: list[tuple[str, str, str]] = []
    if args.teleport:
        stats = evaluator.teleport_stats(sentences)
        print(f"arguments {stats.arguments}")
        far = evaluator.TELEPORT_THRESHOLD
        print(f"token distance > {far}: {stats.token_fraction:.4f}")
        print(f"teleport distance > {far}: {stats.teleport_fraction:.4f}")
        rows += [("teleport", "arguments", str(stats.arguments)),
                 ("teleport", "token_fraction", f"{stats.token_fraction:.6f}"),
                 ("teleport", "teleport_fraction",
                  f"{stats.teleport_fraction:.6f}")]
    if args.buckets or args.ablation:
        if not args.checkpoint:
            raise ConfigError("analyze --buckets/--ablation needs --checkpoint")
        if args.ablation and len(args.checkpoint) > 1:
            raise ConfigError("analyze --ablation takes one --checkpoint, "
                              "not an ensemble")
        models = [_load_model(c) for c in args.checkpoint]
        if args.buckets:
            preds = _predictions_for(models, sentences)
            f1s, gold_counts = evaluator.distance_buckets(sentences, preds)
            for b in evaluator.BUCKETS:
                print(f"bucket {b}: F1 {f1s[b]:.4f} ({gold_counts[b]} gold)")
                rows.append(("bucket_f1", b, f"{f1s[b]:.6f}"))
        if args.ablation:
            deltas = evaluator.relation_ablation(models[0], sentences,
                                                 min_count=args.min_count)
            for rel, d in sorted(deltas.items(), key=lambda kv: kv[1]):
                print(f"drop {rel}: dF1 {d:+.4f}")
                rows.append(("delta_f1", rel, f"{d:.6f}"))
    if args.out:
        _write_rows(Path(args.out) / "analysis.tsv", rows)
    return 0


def _cmd_gradcheck(args) -> int:
    from .fixtures import gradcheck_model

    model, instance = gradcheck_model(seed=args.seed)
    _log_config(model.config)
    result = nm.grad_check(lambda: model.instance_loss(instance), model.store)
    print(f"max rel err {result.max_rel_err:.3e} over {result.checked} entries "
          f"({result.skipped} skipped near ReLU kinks)")
    ok = result.max_rel_err < args.tolerance
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


_COMMANDS = {"train": _cmd_train, "predict": _cmd_predict,
             "evaluate": _cmd_evaluate, "analyze": _cmd_analyze,
             "gradcheck": _cmd_gradcheck}


def run(argv: list[str] | None = None) -> int:
    level = os.environ.get("SYNGCN_LOG", "info").upper()
    if level not in ("ERROR", "INFO", "DEBUG"):
        level = "INFO"
    logging.basicConfig(level=getattr(logging, level),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError, FormatError) as err:
        logger.error("%s", err)
        return 1
    except SynGcnError as err:
        logger.error("%s", err)
        return 2
    except OSError as err:
        logger.error("%s", err)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
