"""Argument scoring and the analysis suite.

The primary scorer is labeled micro precision/recall/F1 over arguments,
predicate disambiguation excluded: a predicted (predicate, token, role)
triple is correct iff the gold data has the same triple with a non-NULL
role. Scores and the per-distance analysis count the same way, in one pass
over the tokens of every predicate.
"""

from __future__ import annotations

import collections
import logging
from dataclasses import dataclass

import numpy as np

from .conll import NULL_ROLE, Sentence
from .errors import ConfigError, ContractError
from .syngraph import build_graph, drop_relation
from .trainer import SrlModel, make_instances

logger = logging.getLogger(__name__)

BUCKETS = ("0", "1", "2", "3", "4", "5", "6+")


class PredictionSet:
    """Role decisions for every (sentence, predicate, token) of a corpus.

    Stores per-instance argmax role ids plus full distributions, with the
    role inventory that ids index into.
    """

    def __init__(self, roles: list[str]):
        self.roles = list(roles)
        self._by_key: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def add(self, sentence_id: int, predicate_ord: int,
            role_ids: np.ndarray, distributions: np.ndarray) -> None:
        self._by_key[(sentence_id, predicate_ord)] = (role_ids, distributions)

    def keys(self):
        return self._by_key.keys()

    def get(self, sentence_id: int, predicate_ord: int):
        return self._by_key.get((sentence_id, predicate_ord))

    def role_string(self, sentence_id: int, predicate_ord: int,
                    token_index: int) -> str | None:
        entry = self._by_key.get((sentence_id, predicate_ord))
        if entry is None:
            return None
        return self.roles[int(entry[0][token_index])]

    @classmethod
    def from_gold(cls, sentences: list[Sentence]) -> "PredictionSet":
        """Wrap a corpus's own roles (one-hot distributions) for scoring."""
        inventory = [NULL_ROLE]
        seen = {NULL_ROLE: 0}
        for sent in sentences:
            for row in sent.roles:
                for role in row:
                    if role not in seen:
                        seen[role] = len(inventory)
                        inventory.append(role)
        pred = cls(inventory)
        for sent_id, sent in enumerate(sentences):
            for p_ord in range(len(sent.predicates)):
                ids = np.array([seen[r] for r in sent.roles[p_ord]], dtype=np.intp)
                dists = np.zeros((len(sent), len(inventory)), dtype=np.float64)
                dists[np.arange(len(sent)), ids] = 1.0
                pred.add(sent_id, p_ord, ids, dists)
        return pred


# Most tokens one batched prediction pass encodes. It bounds the pass's
# transient arrays (about 35 KiB per token at the widths of
# configs/conll2009_english.conf) while keeping each BiLSTM step a product
# over many rows.
PREDICT_TOKEN_BUDGET = 1024


def _batches(instances: list, budget: int):
    """Consecutive runs of instances whose sentence lengths sum to at most
    ``budget``; a longer instance forms a run alone."""
    batch, tokens = [], 0
    for inst in instances:
        if batch and tokens + len(inst.sentence) > budget:
            yield batch
            batch, tokens = [], 0
        batch.append(inst)
        tokens += len(inst.sentence)
    if batch:
        yield batch


def predict_corpus(model: SrlModel, sentences: list[Sentence],
                   graph_transform=None) -> PredictionSet:
    """Run inference over every predicate instance of ``sentences``, in
    corpus-order batches of at most ``PREDICT_TOKEN_BUDGET`` tokens.

    ``graph_transform`` maps a built graph to the one actually used (the
    relation-ablation hook). A model without a GCN (K = 0) gets no graphs.
    """
    preds = PredictionSet(model.lexicon.strings("role"))
    instances = make_instances(sentences, model.lexicon, require_gold=False)
    graphs: dict[int, object] = {}
    for inst in instances:
        if model.gcn is not None and inst.sentence_id not in graphs:
            g = build_graph(inst.sentence, model.lexicon)
            if graph_transform is not None:
                g = graph_transform(g)
            graphs[inst.sentence_id] = g
    for batch in _batches(instances, PREDICT_TOKEN_BUDGET):
        results = model.predict(batch, [graphs.get(i.sentence_id)
                                        for i in batch])
        for inst, (role_ids, dists) in zip(batch, results):
            preds.add(inst.sentence_id, inst.predicate_ord, role_ids, dists)
    return preds


@dataclass
class ScoreReport:
    precision: float
    recall: float
    f1: float
    correct: int
    predicted: int
    gold: int


def _prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    p = correct / predicted if predicted else 0.0
    r = correct / gold if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
    return p, r, f1


def _check_alignment(sentences: list[Sentence], pred: PredictionSet) -> None:
    wanted = {(sid, p) for sid, s in enumerate(sentences)
              for p in range(len(s.predicates))}
    got = set(pred.keys())
    if wanted != got:
        missing = sorted(wanted - got)[:5]
        extra = sorted(got - wanted)[:5]
        raise ContractError(f"prediction/corpus mismatch: missing {missing}, "
                            f"unexpected {extra}")
    for sid, p_ord in sorted(wanted):
        got_len, want_len = len(pred.get(sid, p_ord)[0]), len(sentences[sid])
        if got_len != want_len:
            raise ContractError(f"prediction/corpus mismatch: {got_len} roles "
                                f"predicted for predicate {p_ord} of the "
                                f"{want_len}-token sentence {sid}")


def _counts(sentences: list[Sentence], pred: PredictionSet,
            last_bucket: int) -> list[list[int]]:
    """[correct, predicted, gold] argument counts per distance bucket: the
    bucket of a token is its distance from the predicate, capped at
    ``last_bucket`` (0 counts everything in one bucket)."""
    _check_alignment(sentences, pred)
    counts = [[0, 0, 0] for _ in range(last_bucket + 1)]
    for sid, sent in enumerate(sentences):
        for p_ord, p_index in enumerate(sent.predicates):
            predicted = [pred.roles[r] for r in pred.get(sid, p_ord)[0].tolist()]
            for i, (gold_role, pred_role) in enumerate(
                    zip(sent.roles[p_ord], predicted)):
                tally = counts[min(abs(i - p_index + 1), last_bucket)]
                if gold_role != NULL_ROLE:
                    tally[2] += 1
                if pred_role != NULL_ROLE:
                    tally[1] += 1
                    if pred_role == gold_role:
                        tally[0] += 1
    return counts


def score(sentences: list[Sentence], pred: PredictionSet) -> ScoreReport:
    """Labeled micro P/R/F1 over arguments; predicate senses are not
    scored."""
    [[correct, predicted, gold]] = _counts(sentences, pred, 0)
    p, r, f1 = _prf(correct, predicted, gold)
    return ScoreReport(p, r, f1, correct, predicted, gold)


def distance_buckets(sentences: list[Sentence], pred: PredictionSet
                     ) -> tuple[dict[str, float], dict[str, int]]:
    """Per-bucket F1 over |token position - predicate position|.

    Distance zero exists: a nominal predicate can be its own argument.
    """
    counts = dict(zip(BUCKETS, _counts(sentences, pred, len(BUCKETS) - 1)))
    f1s = {b: _prf(*c)[2] for b, c in counts.items()}
    gold_counts = {b: c[2] for b, c in counts.items()}
    return f1s, gold_counts


# ---------------------------------------------------------------------------
# teleport distance
# ---------------------------------------------------------------------------

def _teleport_distance(p: int, a: int, arcs: list[tuple[int, int]]) -> int:
    """Shortest predicate-to-argument path where adjacent tokens cost 1 and
    at most one dependency arc (either direction) may be crossed for cost 1."""
    best = abs(a - p)
    for u, v in arcs:
        best = min(best,
                   abs(u - p) + 1 + abs(a - v),
                   abs(v - p) + 1 + abs(a - u))
    return best


# The distance beyond which ``teleport_stats`` counts an argument as far
TELEPORT_THRESHOLD = 5


@dataclass
class TeleportStats:
    arguments: int
    token_far: int       # token distance > TELEPORT_THRESHOLD
    teleport_far: int    # teleport distance > TELEPORT_THRESHOLD

    @property
    def token_fraction(self) -> float:
        return self.token_far / self.arguments if self.arguments else 0.0

    @property
    def teleport_fraction(self) -> float:
        return self.teleport_far / self.arguments if self.arguments else 0.0


def teleport_stats(sentences: list[Sentence]) -> TeleportStats:
    """Fractions of gold arguments farther than ``TELEPORT_THRESHOLD`` under
    the raw token metric vs. the one-dependency-hop teleport metric."""
    arguments = token_far = teleport_far = 0
    for sent in sentences:
        arcs = [(t.index - 1, t.head - 1) for t in sent.tokens if t.head != 0]
        for p_ord, p_index in enumerate(sent.predicates):
            p_row = p_index - 1
            for i, role in enumerate(sent.roles[p_ord]):
                if role == NULL_ROLE:
                    continue
                arguments += 1
                if abs(i - p_row) > TELEPORT_THRESHOLD:
                    token_far += 1
                if _teleport_distance(p_row, i, arcs) > TELEPORT_THRESHOLD:
                    teleport_far += 1
    return TeleportStats(arguments, token_far, teleport_far)


# ---------------------------------------------------------------------------
# relation ablation
# ---------------------------------------------------------------------------

def relation_ablation(model: SrlModel, sentences: list[Sentence],
                      min_count: int = 300,
                      relations: list[str] | None = None) -> dict[str, float]:
    """F1 change from dropping each relation type at test time, no retraining.

    Qualifying relations are those occurring at least ``min_count`` times in
    ``sentences`` unless an explicit list is given; one with no edge there
    has delta 0.0. One the model never saw is left out, with one warning
    naming them all: its edges carry UNK, as every unseen relation's do.
    Requires a syntax-aware encoder (K >= 1).
    """
    if model.gcn is None:
        raise ConfigError("relation ablation needs a GCN encoder (K >= 1)")
    baseline = score(sentences, predict_corpus(model, sentences)).f1
    counts = collections.Counter(
        t.deprel for s in sentences for t in s.tokens if t.head != 0)
    if relations is None:
        relations = sorted(r for r, c in counts.items() if c >= min_count)
    unseen = [r for r in relations
              if counts[r] and not model.lexicon.has("deprel", r)]
    if unseen:
        logger.warning("relation ablation leaves out relations the model "
                       "never saw: %s", ", ".join(unseen))
    deltas: dict[str, float] = {}
    for rel in relations:
        if not counts[rel]:
            deltas[rel] = 0.0
        elif rel not in unseen:
            rel_id = model.lexicon.lookup("deprel", rel)
            preds = predict_corpus(
                model, sentences,
                graph_transform=lambda g: drop_relation(g, rel_id))
            deltas[rel] = score(sentences, preds).f1 - baseline
    return deltas


# ---------------------------------------------------------------------------
# ensembling
# ---------------------------------------------------------------------------

def ensemble(prediction_sets: list[PredictionSet]) -> PredictionSet:
    """Product-of-experts combination of member distributions.

    Per token the members' probabilities are multiplied, tempered by 1/k
    (the renormalized geometric mean, so k identical members reproduce the
    single model exactly), renormalized, and argmaxed. Any member assigning
    probability zero to a role vetoes it.
    """
    if len(prediction_sets) < 2:
        raise ContractError("ensemble needs at least 2 members")
    first = prediction_sets[0]
    for other in prediction_sets[1:]:
        if other.roles != first.roles:
            raise ContractError("ensemble members have different role inventories")
        if set(other.keys()) != set(first.keys()):
            raise ContractError("ensemble members cover different instances")
    combined = PredictionSet(first.roles)
    for key in first.keys():
        product = None
        for member in prediction_sets:
            dists = member.get(*key)[1]
            product = dists.copy() if product is None else product * dists
        product **= 1.0 / len(prediction_sets)
        totals = product.sum(axis=1, keepdims=True)
        if (totals == 0).any():
            raise ContractError(f"ensemble product vanished for instance {key}")
        product /= totals
        combined.add(key[0], key[1], product.argmax(axis=1), product)
    return combined


def ensemble_models(models: list[SrlModel], sentences: list[Sentence]
                    ) -> PredictionSet:
    inventories = {tuple(m.lexicon.strings("role")) for m in models}
    if len(inventories) != 1:
        raise ContractError("ensemble models have different role inventories")
    return ensemble([predict_corpus(m, sentences) for m in models])


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def format_report(report: ScoreReport) -> str:
    return ("metric        P        R        F1\n"
            f"arguments  {report.precision:7.4f}  {report.recall:7.4f}  "
            f"{report.f1:7.4f}\n")


def report_rows(report: ScoreReport) -> list[tuple[str, str, str]]:
    """(metric, key, value) rows for the machine-readable emission."""
    return [("score", "precision", f"{report.precision:.6f}"),
            ("score", "recall", f"{report.recall:.6f}"),
            ("score", "f1", f"{report.f1:.6f}")]
