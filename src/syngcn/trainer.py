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
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bilstm, classifier, embedder, gcn, workers
from . import numerics as nm
from .conll import NULL_ROLE, Lexicon, Sentence, build_lexicon
from .errors import ConfigError, ContractError, NumericsError
from .syngraph import SyntacticGraph, build_graph, disjoint_union, num_labels

logger = logging.getLogger(__name__)


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
    gates_enabled: bool = True
    min_freq: int = 1
    unk_replace_rate: float = 0.1
    early_stop_f1: float = 0.0  # 0: never stop early
    dtype: str = "float32"

    # accepted in config files as shorthand for the full field names
    ALIASES = {"J": "lstm_layers", "K": "gcn_layers", "beta": "edge_dropout",
               "lr": "learning_rate"}

    def validate(self) -> None:
        for name in ("d_w", "d_pos", "d_l", "d_h", "d_r", "d_l_out"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("edge_dropout", "unk_replace_rate", "early_stop_f1"):
            if not 0.0 <= getattr(self, name) <= 1.0:     # NaN fails too
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.gcn_layers < 0:
            raise ConfigError("gcn_layers must be >= 0")
        if self.lstm_layers < 0:
            raise ConfigError("lstm_layers must be >= 0")
        if self.lstm_layers == 0 and self.gcn_layers == 0:
            raise ConfigError("no encoder: lstm_layers and gcn_layers are both 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.min_freq < 1:
            raise ConfigError("min_freq must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)

    def items(self):
        return dataclasses.asdict(self).items()


def parse_config_text(text: str, base: TrainConfig | None = None,
                      complete: bool = False) -> TrainConfig:
    """Parse flat ``key = value`` lines (# comments) over ``base`` defaults;
    with ``complete``, as for a run's saved config.txt, every field must
    have a line."""
    cfg = dataclasses.replace(base) if base else TrainConfig()
    fields = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = TrainConfig.ALIASES.get(key, key)
        if key not in fields:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, value, getattr(cfg, key)))
        seen.add(key)
    missing = [name for name in fields if name not in seen]
    if complete and missing:
        raise ConfigError(f"no line for {', '.join(missing)}")
    cfg.validate()
    return cfg


def _coerce(key: str, value: str, current):
    if isinstance(current, bool):
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if isinstance(current, (int, float)):
        try:
            return type(current)(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {type(current).__name__}, "
                              f"got {value!r}") from None
    return value


def load_config(path, base: TrainConfig | None = None,
                complete: bool = False) -> TrainConfig:
    """``parse_config_text`` of the file at ``path``; a ``ConfigError``
    names it."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    try:
        return parse_config_text(text, base, complete)
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


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
                    gold = np.array([lexicon.lookup("role", r)
                                     for r in sent.roles[p_ord]], dtype=np.intp)
                except KeyError as err:
                    raise ContractError(
                        f"sentence {sent_id}: role {err.args[0]!r}") from None
            instances.append(Instance(sent, sent_id, row, p_ord, lemma_id, gold))
    return instances


def param_layout(config: TrainConfig, lexicon: Lexicon) -> nm.Layout:
    """Every trainable tensor of an ``SrlModel``, ``(name, shape)`` in store
    order, yielded lazily: embedder, BiLSTM, GCN, classifier."""
    c = config
    width = 2 * c.d_w + c.d_pos + c.d_l       # the embedder's output
    yield from embedder.tables_layout(lexicon, c.d_w, c.d_pos, c.d_l)
    if c.lstm_layers > 0:
        yield from bilstm.lstm_layout(width, c.d_h, c.lstm_layers)
        width = 2 * c.d_h
    m = 2 * c.d_h                             # the encoder's output
    yield from gcn.gcn_layout(c.gcn_layers, m, num_labels(lexicon.num_deprels),
                              width)
    yield from classifier.classifier_layout(m, c.d_l_out, c.d_r, lexicon)


class SrlModel:
    """Embedder + (BiLSTM) + (gated GCN) + role classifier. Its trainable
    tensors live in one ``nm.ParamStore`` laid out by ``param_layout``, the
    registry that Adam updates and ``parameters()`` is read from."""

    def __init__(self, config: TrainConfig, lexicon: Lexicon,
                 rng: np.random.Generator,
                 pretrained: np.ndarray | None = None):
        """A model with freshly drawn weights. The draws run in store order
        inside ``workers.two_workers``, where ``nm.fill_uniform`` gives the
        worker half of each large tensor's pieces; the bytes, and the state
        ``rng`` is left in, are a serial build's."""
        self._allocate(config, lexicon, pretrained)
        with workers.two_workers():
            embedder.init_tables(self.tables, rng)
            if self.lstm is not None:
                bilstm.init_lstm(self.lstm, rng)
            if self.gcn is not None:
                gcn.init_gcn_stack(self.gcn, rng)
            classifier.init_classifier(self.classifier, rng)

    def _allocate(self, config: TrainConfig, lexicon: Lexicon,
                  pretrained: np.ndarray | None) -> None:
        """The zeroed store, each module's tensors looked up in it by name,
        and the frozen table: a model with nothing drawn or loaded yet."""
        config.validate()
        self.config, self.lexicon = config, lexicon
        self.store = store = nm.ParamStore(param_layout(config, lexicon),
                                           config.np_dtype)
        self.tables = embedder.embedding_tables(store, lexicon, pretrained)
        self.lstm = (bilstm.lstm_params(store, config.lstm_layers)
                     if config.lstm_layers > 0 else None)
        self.gcn = (gcn.gcn_stack_params(store, config.gcn_layers,
                                         config.gates_enabled)
                    if config.gcn_layers > 0 else None)
        self.classifier = classifier.classifier_params(store)

    def parameters(self) -> dict[str, nm.Tensor]:
        """All tensors in checkpoint order: the store's, in store order,
        with the frozen pretrained table right after ``embed.word``, the
        store's first tensor."""
        frozen = self.tables.word_pretrained
        return {"embed.word": self.store["embed.word"], frozen.name: frozen,
                **self.store}

    def encode(self, instances: list[Instance],
               graphs: list[SyntacticGraph | None],
               rng: np.random.Generator | None = None) -> nm.Tensor:
        """Encoder states of ``instances`` as one [total tokens x width]
        tensor, each instance's rows in order. The instances share every
        BiLSTM step and one GCN pass over the disjoint union of their graphs
        (``graphs[k]`` belongs to ``instances[k]``; None without a GCN).

        ``rng`` is given in training only. It draws each instance's word
        dropout in turn, then each GCN layer's edge dropout; without it the
        pass draws nothing.
        """
        cfg = self.config
        masks = [None] * len(instances) if rng is None else [
            _word_unk_mask(inst, self.lexicon, cfg.unk_replace_rate, rng)
            for inst in instances]
        parts = [embedder.embed_sentence(inst.sentence, inst.predicate_row,
                                         self.tables, self.lexicon, mask)
                 for inst, mask in zip(instances, masks)]
        h = parts[0] if len(parts) == 1 else nm.concat(parts, axis=0)
        if self.lstm is not None:
            h = bilstm.bilstm_encode(h, self.lstm,
                                     [len(inst.sentence) for inst in instances])
        if self.gcn is not None:
            h = gcn.gcn_stack_forward(h, disjoint_union(graphs), self.gcn,
                                      beta=cfg.edge_dropout, rng=rng)
        return h

    def instance_loss(self, instance: Instance, graph=None,
                      rng: np.random.Generator | None = None) -> nm.Tensor:
        """Summed per-token cross-entropy against the gold roles; ``rng``
        as in ``encode``."""
        if instance.gold_role_ids is None:
            raise ContractError("instance has no gold roles")
        if graph is None and self.gcn is not None:
            graph = build_graph(instance.sentence, self.lexicon)
        encoded = self.encode([instance], [graph], rng)
        logits = classifier.role_logits(encoded, instance.predicate_row,
                                        instance.lemma_id, self.classifier)
        return nm.cross_entropy_rows(logits, instance.gold_role_ids)

    def predict(self, instances: list[Instance],
                graphs: list[SyntacticGraph | None]
                ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Argmax role ids and [n x num_roles] distributions per instance,
        from one batched ``encode`` of them all."""
        encoded = self.encode(instances, graphs).data
        out = []
        lo = 0
        for inst in instances:
            hi = lo + len(inst.sentence)
            out.append(classifier.predict_arguments(
                nm.Tensor(encoded[lo:hi]), inst.predicate_row, inst.lemma_id,
                self.classifier))
            lo = hi
        return out

    def save(self, path) -> None:
        nm.save_checkpoint(self.parameters(), path)

    @classmethod
    def from_checkpoint(cls, path, config: TrainConfig, lexicon: Lexicon
                        ) -> "SrlModel":
        """The model saved at ``path``, read straight into its store and
        frozen table with no initializer run; ``FormatError`` on a file whose
        tensors differ from the model's. The allocation and the read run
        inside one ``workers.two_workers`` block, so the worker reads half
        of the checkpoint's bytes."""
        model = cls.__new__(cls)
        with workers.two_workers():
            model._allocate(config, lexicon, None)
            nm.load_checkpoint(path, into={k: p.data for k, p in
                                           model.parameters().items()})
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


def _has_gold_argument(sentences: list[Sentence]) -> bool:
    return any(role != NULL_ROLE for s in sentences for row in s.roles
               for role in row)


def check_out_dir(out_dir: Path) -> None:
    """Refuse an output directory that cannot be made: its nearest existing
    ancestor, ``out_dir`` itself when it exists, must be a directory."""
    found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not found.is_dir():
        raise ConfigError(f"{out_dir}: {found} exists and is not a directory")


def train(train_sentences: list[Sentence], dev_sentences: list[Sentence] | None,
          config: TrainConfig, out_dir, lexicon: Lexicon | None = None,
          pretrained: np.ndarray | None = None) -> TrainResult:
    """Run the optimization loop; leave best.ckpt, config.txt, lexicon.txt
    and metrics.tsv in ``out_dir``.

    Per epoch: seeded shuffle, one backward pass per instance and one Adam
    update per ``batch_size`` instances, made by the batch's last backward
    pass (``Tape.gradients`` given the store and the learning rate). The
    batch's earlier passes sum their gradients in a window that covers the
    store; at batch size 1 the store keeps only a window with room for its
    widest unfused chunk, and the backward pass updates the tensors in the
    window before it moves down the store, and each weight whose gradient
    is one product straight from it. The model's initial draws and the
    epochs, dev evaluation included, run inside ``workers.two_workers``. An
    epoch whose dev F1 beats all
    earlier ones is saved to best.ckpt at once, so a killed run keeps its
    best finished epoch; without dev data (train-loss-only mode) every epoch
    is. The epoch's metrics line comes after that save, so metrics.tsv
    never names an epoch the run did not finish. Training data with no gold argument has a loss
    of 0 whatever the weights, dev data with none would score F1 0 every
    epoch, and an ``out_dir`` that already holds a run's files would mix two
    runs, so each is a ``ConfigError`` raised before anything is written,
    as is an ``out_dir`` that ``check_out_dir`` refuses.
    """
    from .evaluator import predict_corpus, score

    config.validate()
    out_dir = Path(out_dir)
    check_out_dir(out_dir)
    held = sorted(p.name for p in out_dir.glob("*") if p.suffix == ".ckpt"
                  or p.name in ("config.txt", "lexicon.txt", "metrics.tsv"))
    if held:
        raise ConfigError(f"{out_dir} already holds a run ({', '.join(held)})")
    if not _has_gold_argument(train_sentences):
        raise ConfigError("the training data has no gold argument to learn "
                          "from")
    if dev_sentences is not None and not _has_gold_argument(dev_sentences):
        raise ConfigError("the dev data has no gold argument to select the "
                          "best epoch by")
    if lexicon is None:
        lexicon = build_lexicon(train_sentences, min_freq=config.min_freq)
    rng = np.random.default_rng(config.seed)
    with workers.two_workers():
        # built first: a model that cannot be built leaves no run directory
        model = SrlModel(config, lexicon, rng, pretrained)
        out_dir.mkdir(parents=True, exist_ok=True)
        lexicon_path = out_dir / "lexicon.txt"
        lexicon.save(lexicon_path)
        config_path = out_dir / "config.txt"
        save_config(config, config_path)
        instances = make_instances(train_sentences, lexicon)
        # a BiLSTM-only model (K = 0) reads no graph
        graphs = [build_graph(s, lexicon) if model.gcn is not None else None
                  for s in train_sentences]
        if dev_sentences is None:
            logger.warning("no dev data: train-loss-only mode, selecting "
                           "last epoch")

        store = model.store
        history: list[EpochMetrics] = []
        best_f1 = -1.0
        best_epoch = -1
        metrics_path = out_dir / "metrics.tsv"
        t0 = time.monotonic()
        with open(metrics_path, "w", encoding="utf-8",
                  newline="") as metrics_fh:
            for epoch in range(1, config.epochs + 1):
                order = rng.permutation(len(instances))
                total_loss = 0.0
                for pos, idx in enumerate(order):
                    inst = instances[idx]
                    update = ((pos + 1) % config.batch_size == 0
                              or pos == len(order) - 1)
                    try:
                        with nm.Tape() as tape:
                            loss = model.instance_loss(
                                inst, graphs[inst.sentence_id], rng)
                        tape.gradients(loss, store, config.learning_rate
                                       if update else None)
                    except NumericsError as err:
                        raise NumericsError(
                            f"epoch {epoch}, instance {idx}: {err}\n"
                            f"parameter norms:\n{_dump_param_norms(model)}"
                        ) from err
                    total_loss += float(loss.data)
                dev_p = dev_r = dev_f1 = float("nan")
                if dev_sentences is not None:
                    preds = predict_corpus(model, dev_sentences)
                    report = score(dev_sentences, preds)
                    dev_p, dev_r, dev_f1 = (report.precision, report.recall,
                                            report.f1)
                metrics = EpochMetrics(epoch,
                                       total_loss / max(len(instances), 1),
                                       dev_p, dev_r, dev_f1)
                history.append(metrics)
                selector = (dev_f1 if dev_sentences is not None
                            else float(epoch))
                if selector > best_f1 or best_epoch < 0:
                    best_f1 = selector
                    best_epoch = epoch
                    model.save(out_dir / "best.ckpt")
                # after the save: a run killed in it has no line for the epoch
                metrics_fh.write(f"{epoch}\t{metrics.train_loss:.6f}\t"
                                 f"{dev_p:.4f}\t{dev_r:.4f}\t{dev_f1:.4f}\n")
                metrics_fh.flush()
                logger.info("epoch %d: loss %.4f dev F1 %.4f (%.1fs)", epoch,
                            metrics.train_loss, dev_f1, time.monotonic() - t0)
                if config.early_stop_f1 and dev_f1 >= config.early_stop_f1:
                    logger.info("dev F1 reached %.4f, stopping", dev_f1)
                    break
    return TrainResult(history, best_epoch,
                       best_f1 if dev_sentences is not None else float("nan"),
                       out_dir / "best.ckpt" if history else None,
                       lexicon_path, config_path)
