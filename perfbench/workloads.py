"""The seeded workloads: inputs from ``syngcn.fixtures``, set-up, the timed call, checks.

Each workload draws its inputs from the seed alone (which slice of a larger
``overfit_corpus`` pool, how many fillers each structural-style sentence
has, the model seed) and hands the program only generated CoNLL and
embedding files. One operation is one (sentence, predicate) instance: per
epoch for training, per prediction pass for ``predict_long``.

All three are single-process, single-client closed loops: the next timed
call starts when the previous one and its checks are done.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from syngcn import conll, embedder, evaluator, fixtures, trainer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# overfit_corpus(i) cycles nouns every 12 sentences, verbs every 14, adverbs
# every 18 and its three sentence shapes every 3, so 252 sentences are all
# distinct and any later sentence repeats one of them.
POOL_SIZE = 252
SHAPES = 3

# widths the self-tests use to shrink the full-scale workloads
TINY_WIDTHS = {"d_w": 4, "d_pos": 2, "d_l": 4, "d_h": 4, "d_r": 4,
               "d_l_out": 4, "lstm_layers": 1}


def _chunks(text: str) -> list[str]:
    """Split CoNLL text into one string per sentence, blank line included."""
    return [chunk + "\n\n" for chunk in text.split("\n\n") if chunk.strip()]


def _instances_and_tokens(chunks: list[str]) -> tuple[int, int]:
    """Count (sentence, predicate) instances and their summed sentence lengths."""
    instances = tokens = 0
    for chunk in chunks:
        rows = [line.split("\t") for line in chunk.splitlines() if line]
        preds = sum(1 for cols in rows if cols[12] == "Y")
        instances += preds
        tokens += preds * len(rows)
    return instances, tokens


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Inputs:
    """Everything the seed decides, made before the program is called."""

    files: dict[str, str]     # file name -> text, written in every set-up
    model_seed: int
    operations: int           # instances processed by one timed call
    tokens: int               # sum of their sentence lengths


@dataclass
class Outcome:
    """What the checks found for one timed call."""

    failed: int
    digest: str
    quality: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class TrainWorkload:
    """``trainer.train()`` on a slice of the overfit pool, with a fixed epoch count."""

    config_file: str
    train_sentences: int
    dev_sentences: int            # 0: no dev corpus, train-loss-only mode
    epochs: int
    min_dev_f1: float = 0.0       # quality check on the best epoch's dev F1
    overrides: dict = field(default_factory=dict)

    def generate(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        pool = _chunks(fixtures.overfit_corpus(POOL_SIZE))
        # start on a shape boundary so every seed gets the same shape mix
        start = SHAPES * int(rng.integers(POOL_SIZE // SHAPES))
        picked = [pool[(start + i) % POOL_SIZE]
                  for i in range(self.train_sentences + self.dev_sentences)]
        train = picked[:self.train_sentences]
        files = {"train.conll": "".join(train)}
        if self.dev_sentences:
            files["dev.conll"] = "".join(picked[self.train_sentences:])
        instances, tokens = _instances_and_tokens(train)
        return Inputs(files, int(rng.integers(1, 2**31 - 1)),
                      self.epochs * instances, self.epochs * tokens)

    def setup(self, inputs: Inputs, workdir: Path):
        for name, text in inputs.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        cfg = dataclasses.replace(
            trainer.load_config(CONFIGS / self.config_file), epochs=self.epochs,
            early_stop_f1=0.0, seed=inputs.model_seed, **self.overrides)
        train = conll.parse_conll_file(workdir / "train.conll")
        dev = None
        if self.dev_sentences:
            dev = conll.parse_conll_file(workdir / "dev.conll")
        lexicon = conll.build_lexicon(train, min_freq=cfg.min_freq)
        embeddings = workdir / "embeddings.txt"
        embeddings.write_text(fixtures.tiny_embeddings(cfg.d_w), encoding="utf-8")
        pretrained, _ = embedder.load_pretrained(embeddings, lexicon, cfg.d_w)
        return cfg, train, dev, lexicon, pretrained

    def run(self, state, workdir: Path):
        cfg, train, dev, lexicon, pretrained = state
        return trainer.train(train, dev, cfg, workdir / "run", lexicon=lexicon,
                             pretrained=pretrained)

    def check(self, inputs: Inputs, state, result, workdir: Path) -> Outcome:
        losses = [h.train_loss for h in result.history]
        quality = {"final_train_loss": losses[-1] if losses else float("nan")}
        problems = []
        if len(losses) != self.epochs:
            problems.append(f"{len(losses)} epochs ran, expected {self.epochs}")
        if not np.isfinite(losses).all():
            problems.append(f"non-finite training loss in {losses}")
        if self.dev_sentences:
            # the last epoch is reported; the kept (best) epoch is checked, as a
            # converged run can still dip for one epoch under edge dropout
            quality["dev_f1"] = result.history[-1].dev_f1
            if not result.best_f1 >= self.min_dev_f1:
                problems.append(f"best dev F1 {result.best_f1:.4f} below "
                                f"{self.min_dev_f1}")
        if result.best_checkpoint is None:
            problems.append("no best.ckpt written")
            digest = ""
        else:
            digest = _sha256_file(result.best_checkpoint)
        failed = inputs.operations if problems else 0
        return Outcome(failed, digest, quality, problems)


@dataclass
class PredictWorkload:
    """Load a saved random model, then ``predict_corpus()`` plus the CoNLL write."""

    config_file: str
    sentences: int
    fillers: tuple[int, int]      # inclusive range of fillers per sentence
    overrides: dict = field(default_factory=dict)

    def generate(self, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        by_fillers: dict[int, list[str]] = {}
        picked = []
        for _ in range(self.sentences):
            k = int(rng.integers(self.fillers[0], self.fillers[1] + 1))
            if k not in by_fillers:
                by_fillers[k] = _chunks(fixtures.structural_corpus(k))
            picked.append(by_fillers[k][int(rng.integers(len(by_fillers[k])))])
        instances, tokens = _instances_and_tokens(picked)
        return Inputs({"test.conll": "".join(picked)},
                      int(rng.integers(1, 2**31 - 1)), instances, tokens)

    def setup(self, inputs: Inputs, workdir: Path):
        test = workdir / "test.conll"
        test.write_text(inputs.files["test.conll"], encoding="utf-8")
        cfg = dataclasses.replace(trainer.load_config(CONFIGS / self.config_file),
                                  seed=inputs.model_seed, **self.overrides)
        sentences = conll.parse_conll_file(test)
        lexicon = conll.build_lexicon(sentences, min_freq=cfg.min_freq)
        embeddings = workdir / "embeddings.txt"
        embeddings.write_text(fixtures.structural_embeddings(cfg.d_w),
                              encoding="utf-8")
        pretrained, _ = embedder.load_pretrained(embeddings, lexicon, cfg.d_w)
        model = trainer.SrlModel(cfg, lexicon,
                                 np.random.default_rng(inputs.model_seed), pretrained)
        model_dir = workdir / "model"
        model_dir.mkdir()
        model.save(model_dir / "model.ckpt")
        trainer.save_config(cfg, model_dir / "config.txt")
        lexicon.save(model_dir / "lexicon.txt")
        # reload the way `syngcn predict` does, from the checkpoint and its sidecars
        loaded = trainer.SrlModel.from_checkpoint(
            model_dir / "model.ckpt", trainer.load_config(model_dir / "config.txt"),
            conll.Lexicon.load(model_dir / "lexicon.txt"))
        return loaded, sentences

    def run(self, state, workdir: Path):
        model, sentences = state
        preds = evaluator.predict_corpus(model, sentences)
        conll.write_conll_file(workdir / "predicted.conll", sentences, preds)
        return preds

    def check(self, inputs: Inputs, state, preds, workdir: Path) -> Outcome:
        _, sentences = state
        try:
            evaluator.score(sentences, preds)   # raises on a missing instance
            reparsed = conll.parse_conll_file(workdir / "predicted.conll")
        except Exception as err:                # every instance is suspect
            return Outcome(inputs.operations, "", problems=[repr(err)])
        if len(reparsed) != len(sentences):
            return Outcome(inputs.operations, "", problems=[
                f"{len(reparsed)} sentences written, {len(sentences)} read"])
        digest = hashlib.sha256()
        problems = []
        for sid, sent in enumerate(sentences):
            for p in range(len(sent.predicates)):
                role_ids, dists = preds.get(sid, p)
                digest.update(np.asarray(role_ids, dtype=np.int64).tobytes())
                written = [preds.roles[int(i)] for i in role_ids]
                if not (dists.shape == (len(sent), len(preds.roles))
                        and np.isfinite(dists).all()
                        and np.allclose(dists.sum(axis=1), 1.0, atol=1e-4)
                        and (dists.argmax(axis=1) == role_ids).all()
                        and reparsed[sid].roles[p] == written):
                    problems.append(f"sentence {sid}, predicate {p}")
        return Outcome(len(problems), digest.hexdigest(), problems=problems)


def make(name: str, tiny: bool = False):
    """The named workload at benchmark size, or shrunk for the self-tests."""
    widths = TINY_WIDTHS if tiny else {}
    if name == "train_desk":
        return TrainWorkload("desk_overfit.conf",
                             train_sentences=6 if tiny else 42,
                             dev_sentences=3 if tiny else 21,
                             epochs=2 if tiny else 8,
                             min_dev_f1=0.0 if tiny else 0.95)
    if name == "train_full":
        return TrainWorkload("conll2009_english.conf",
                             train_sentences=3 if tiny else 6, dev_sentences=0,
                             epochs=1, overrides=widths)
    if name == "predict_long":
        return PredictWorkload("conll2009_english.conf",
                               sentences=2 if tiny else 16,
                               fillers=(2, 4) if tiny else (26, 36),
                               overrides=widths)
    raise KeyError(name)

