"""Training instances, the assembled model, and the optimization loop.

One training instance per (sentence, predicate) pair; batch size 1 by
default with an accumulation option. Runs are deterministic given the seed:
initialization, shuffling, edge dropout and word-dropout draws all come from
one seeded generator, so two runs with the same seed produce byte-identical
checkpoints.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bilstm, classifier, embedder, gcn
from . import numerics as nm
from .conll import Lexicon, Sentence, build_lexicon
from .errors import ConfigError, ContractError, NumericsError
from .syngraph import SyntacticGraph, build_graph, num_labels

logger = logging.getLogger(__name__)

MODES = ("lstm", "lstm+gcn", "gcn")


@dataclass
class TrainConfig:
    d_w: int = 100              # word embeddings
    d_pos: int = 16             # POS embeddings
    d_l: int = 100              # lemma embeddings
    d_h: int = 512              # LSTM hidden states
    d_r: int = 128              # role representation
    d_l_out: int = 128          # output lemma representation
    lstm_layers: int = 3        # BiLSTM depth
    gcn_layers: int = 1         # GCN depth
    edge_dropout: float = 0.3
    learning_rate: float = 0.01
    epochs: int = 20
    seed: int = 13
    batch_size: int = 1
    encoder_mode: str = "lstm+gcn"
    gates_enabled: bool = True
    min_freq: int = 1
    unk_replace_rate: float = 0.1
    use_gold_syntax: bool = False
    early_stop_f1: float = 0.0  # 0: never stop early
    dtype: str = "float32"

    # accepted in config files as shorthand for the full field names
    ALIASES = {"J": "lstm_layers", "K": "gcn_layers", "beta": "edge_dropout",
               "lr": "learning_rate"}

    def validate(self) -> None:
        for name in ("d_w", "d_pos", "d_l", "d_h", "d_r", "d_l_out"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not 0.0 <= self.edge_dropout <= 1.0:
            raise ConfigError("edge_dropout must be in [0, 1]")
        if self.gcn_layers < 0:
            raise ConfigError("gcn_layers must be >= 0")
        if self.lstm_layers < 0:
            raise ConfigError("lstm_layers must be >= 0")
        if self.lstm_layers == 0 and self.encoder_mode != "gcn":
            raise ConfigError("lstm_layers=0 is only valid in gcn mode")
        if self.encoder_mode not in MODES:
            raise ConfigError(f"encoder_mode must be one of {MODES}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def encoder_width(self) -> int:
        """Width of one encoder state as seen by the classifier."""
        return 2 * self.d_h

    def items(self):
        return dataclasses.asdict(self).items()


def parse_config_text(text: str, base: TrainConfig | None = None) -> TrainConfig:
    """Parse flat ``key = value`` lines (# comments) over ``base`` defaults."""
    cfg = dataclasses.replace(base) if base else TrainConfig()
    fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = TrainConfig.ALIASES.get(key, key)
        if key not in fields:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, value, getattr(cfg, key)))
    cfg.validate()
    return cfg


def _coerce(key: str, value: str, current):
    if isinstance(current, bool):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if isinstance(current, int):
        return int(value)
    if isinstance(current, float):
        return float(value)
    return value


def load_config(path, base: TrainConfig | None = None) -> TrainConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), base)


def save_config(cfg: TrainConfig, path) -> None:
    lines = [f"{k} = {v}" for k, v in cfg.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass
class Instance:
    sentence: Sentence
    sentence_id: int
    predicate_row: int            # 0-based token index of the predicate
    predicate_ord: int            # which of the sentence's predicates this is
    lemma_id: int                 # output-lemma id for the scorer
    gold_role_ids: np.ndarray | None   # [n], None outside training


def make_instances(sentences: list[Sentence], lexicon: Lexicon,
                   require_gold: bool = True) -> list[Instance]:
    """One instance per (sentence, predicate); tokens with no role get NULL.

    With ``require_gold`` a role string missing from the lexicon is a
    contract error (the lexicon must come from the training data); prediction
    paths pass False and get instances without gold ids.
    """
    instances = []
    for sent_id, sent in enumerate(sentences):
        for p_ord, p_index in enumerate(sent.predicates):
            row = p_index - 1
            lemma_id = lexicon.lookup("plemma", sent.tokens[row].lemma)
            gold = None
            if require_gold:
                try:
                    gold = np.array([lexicon.role_id(r) for r in sent.roles[p_ord]],
                                    dtype=np.intp)
                except KeyError as err:
                    raise ContractError(
                        f"sentence {sent_id}: role {err.args[0]!r}") from None
            instances.append(Instance(sent, sent_id, row, p_ord, lemma_id, gold))
    return instances


class SrlModel:
    """Embedder + (BiLSTM) + (gated GCN) + role classifier, with all
    parameters in one named registry backing the checkpoint container."""

    def __init__(self, config: TrainConfig, lexicon: Lexicon,
                 rng: np.random.Generator,
                 pretrained: np.ndarray | None = None):
        config.validate()
        self.config = config
        self.lexicon = lexicon
        dtype = config.np_dtype
        self.tables = embedder.EmbeddingTables(
            lexicon, config.d_w, config.d_pos, config.d_l, rng, dtype,
            pretrained)
        self.lstm = None
        encoder_input = self.tables.width
        if config.encoder_mode in ("lstm", "lstm+gcn"):
            self.lstm = bilstm.init_lstm(encoder_input, config.d_h,
                                         config.lstm_layers, rng, dtype)
            encoder_input = 2 * config.d_h
        self.gcn = None
        if config.encoder_mode in ("lstm+gcn", "gcn"):
            width = config.encoder_width()
            self.gcn = gcn.init_gcn_stack(
                config.gcn_layers, width, num_labels(lexicon.num_deprels),
                encoder_input, rng, dtype, config.gates_enabled)
        self.classifier = classifier.init_classifier(
            config.encoder_width(), config.d_l_out, config.d_r, lexicon, rng,
            dtype)

    def parameters(self) -> dict[str, nm.Tensor]:
        """All tensors, frozen ones included, in a stable order."""
        out: dict[str, nm.Tensor] = {}
        out.update(self.tables.parameters())
        if self.lstm is not None:
            out.update(self.lstm.tensors())
        if self.gcn is not None:
            out.update(self.gcn.tensors())
        out.update(self.classifier.tensors())
        return out

    def trainable_parameters(self) -> dict[str, nm.Tensor]:
        return {k: t for k, t in self.parameters().items() if t.trainable}

    def encode(self, instance: Instance, graph: SyntacticGraph | None,
               training: bool = False,
               rng: np.random.Generator | None = None,
               word_unk_mask: np.ndarray | None = None) -> nm.Tensor:
        cfg = self.config
        h = embedder.embed_sentence(instance.sentence, instance.predicate_row,
                                    self.tables, self.lexicon, word_unk_mask)
        if self.lstm is not None:
            h = bilstm.bilstm_encode(h, self.lstm)
        if self.gcn is not None:
            if graph is None:
                graph = build_graph(instance.sentence, self.lexicon)
            h = gcn.gcn_stack_forward(
                h, graph, self.gcn, training=training, beta=cfg.edge_dropout,
                rng=rng)
        return h

    def instance_logits(self, instance: Instance, graph=None, training=False,
                        rng=None, word_unk_mask=None) -> nm.Tensor:
        encoded = self.encode(instance, graph, training, rng, word_unk_mask)
        return classifier.role_logits(encoded, instance.predicate_row,
                                      instance.lemma_id, self.classifier)

    def instance_loss(self, instance: Instance, graph=None, training=False,
                      rng=None, word_unk_mask=None) -> nm.Tensor:
        """Summed per-token cross-entropy against the gold roles."""
        if instance.gold_role_ids is None:
            raise ContractError("instance has no gold roles")
        logits = self.instance_logits(instance, graph, training, rng,
                                      word_unk_mask)
        return nm.cross_entropy_rows(logits, instance.gold_role_ids)

    def predict_instance(self, instance: Instance, graph=None
                         ) -> tuple[np.ndarray, np.ndarray]:
        encoded = self.encode(instance, graph, training=False)
        return classifier.predict_arguments(
            encoded, instance.predicate_row, instance.lemma_id, self.classifier)

    def save(self, path) -> None:
        nm.save_checkpoint(self.parameters(), path)

    def load_tensors(self, tensors) -> None:
        params = self.parameters()
        missing = set(params) - set(tensors)
        extra = set(tensors) - set(params)
        if missing or extra:
            raise ContractError(f"checkpoint mismatch: missing {sorted(missing)}, "
                                f"unexpected {sorted(extra)}")
        for name, arr in tensors.items():
            p = params[name]
            if p.data.shape != arr.shape:
                raise ContractError(f"checkpoint tensor {name} has shape "
                                    f"{arr.shape}, expected {p.data.shape}")
            p.data = arr.astype(p.data.dtype, copy=True)

    @classmethod
    def from_checkpoint(cls, path, config: TrainConfig, lexicon: Lexicon
                        ) -> "SrlModel":
        model = cls(config, lexicon, np.random.default_rng(0))
        model.load_tensors(nm.load_checkpoint(path))
        return model


def _word_unk_mask(instance: Instance, lexicon: Lexicon, rate: float,
                   rng: np.random.Generator) -> np.ndarray | None:
    """Mark singleton-word rows for UNK replacement with the given rate."""
    if rate <= 0.0:
        return None
    mask = np.zeros(len(instance.sentence), dtype=bool)
    for i, tok in enumerate(instance.sentence.tokens):
        wid = lexicon.lookup("word", tok.form)
        if lexicon.count("word", wid) == 1 and rng.random() < rate:
            mask[i] = True
    return mask if mask.any() else None


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    dev_p: float
    dev_r: float
    dev_f1: float


@dataclass
class TrainResult:
    history: list[EpochMetrics]
    best_epoch: int
    best_f1: float
    best_checkpoint: Path | None
    lexicon_path: Path
    config_path: Path


def _dump_param_norms(model: SrlModel) -> str:
    lines = [f"  {name}: |.|={float(np.abs(t.data).max()):.4g}"
             for name, t in model.parameters().items()]
    return "\n".join(lines)


def train(train_sentences: list[Sentence], dev_sentences: list[Sentence] | None,
          config: TrainConfig, out_dir, lexicon: Lexicon | None = None,
          pretrained: np.ndarray | None = None) -> TrainResult:
    """Run the optimization loop and leave checkpoints/metrics in ``out_dir``.

    Per epoch: seeded shuffle, per-instance updates (grad accumulation when
    batch_size > 1), one checkpoint, one metrics line. The best epoch by dev
    F1 is copied to best.ckpt. Without dev data, runs in train-loss-only
    mode and best.ckpt tracks the last epoch.
    """
    from .evaluator import predict_corpus, score

    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if lexicon is None:
        lexicon = build_lexicon(train_sentences, min_freq=config.min_freq)
    lexicon_path = out_dir / "lexicon.txt"
    lexicon.save(lexicon_path)
    config_path = out_dir / "config.txt"
    save_config(config, config_path)

    rng = np.random.default_rng(config.seed)
    model = SrlModel(config, lexicon, rng, pretrained)
    instances = make_instances(train_sentences, lexicon)
    graphs = [build_graph(s, lexicon) for s in train_sentences]
    if dev_sentences is None:
        logger.warning("no dev data: train-loss-only mode, selecting last epoch")

    state = nm.AdamState(learning_rate=config.learning_rate)
    trainable = model.trainable_parameters()
    history: list[EpochMetrics] = []
    best_f1 = -1.0
    best_epoch = -1
    best_path: Path | None = None
    metrics_path = out_dir / "metrics.tsv"
    t0 = time.monotonic()
    with open(metrics_path, "w", encoding="utf-8", newline="") as metrics_fh:
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(instances))
            total_loss = 0.0
            pending = 0
            accum: dict[str, np.ndarray] = {}
            for pos, idx in enumerate(order):
                inst = instances[idx]
                mask = _word_unk_mask(inst, lexicon, config.unk_replace_rate, rng)
                nm.zero_grads(trainable.values())
                try:
                    with nm.Tape() as tape:
                        loss = model.instance_loss(
                            inst, graphs[inst.sentence_id], training=True,
                            rng=rng, word_unk_mask=mask)
                    grads = tape.gradients(loss)
                except NumericsError as err:
                    raise NumericsError(
                        f"epoch {epoch}, instance {idx}: {err}\nparameter "
                        f"norms:\n{_dump_param_norms(model)}") from err
                total_loss += float(loss.data)
                for name in trainable:
                    g = grads.get(name)
                    if g is None:
                        g = np.zeros_like(trainable[name].data)
                    if name in accum:
                        accum[name] += g
                    else:
                        accum[name] = g
                pending += 1
                if pending == config.batch_size or pos == len(order) - 1:
                    nm.adam_step(trainable, accum, state)
                    accum = {}
                    pending = 0
            dev_p = dev_r = dev_f1 = float("nan")
            if dev_sentences is not None:
                preds = predict_corpus(model, dev_sentences)
                report = score(dev_sentences, preds)
                dev_p, dev_r, dev_f1 = report.precision, report.recall, report.f1
            metrics = EpochMetrics(epoch, total_loss / max(len(instances), 1),
                                   dev_p, dev_r, dev_f1)
            history.append(metrics)
            metrics_fh.write(f"{epoch}\t{metrics.train_loss:.6f}\t{dev_p:.4f}"
                             f"\t{dev_r:.4f}\t{dev_f1:.4f}\n")
            metrics_fh.flush()
            ckpt = out_dir / f"epoch_{epoch:03d}.ckpt"
            model.save(ckpt)
            selector = dev_f1 if dev_sentences is not None else float(epoch)
            if selector > best_f1 or best_epoch < 0:
                best_f1 = selector
                best_epoch = epoch
                best_path = ckpt
            logger.info("epoch %d: loss %.4f dev F1 %.4f (%.1fs)", epoch,
                        metrics.train_loss, dev_f1, time.monotonic() - t0)
            if config.early_stop_f1 and dev_f1 >= config.early_stop_f1:
                logger.info("dev F1 reached %.4f, stopping", dev_f1)
                break
    if best_path is not None:
        (out_dir / "best.ckpt").write_bytes(best_path.read_bytes())
        best_path = out_dir / "best.ckpt"
    return TrainResult(history, best_epoch,
                       best_f1 if dev_sentences is not None else float("nan"),
                       best_path, lexicon_path, config_path)
