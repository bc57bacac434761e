"""Argument scoring and the analysis suite.

The primary scorer is labeled micro precision/recall/F1 over arguments,
predicate disambiguation excluded: a predicted (predicate, token, role)
triple is correct iff the gold data has the same triple with a non-NULL
role. A combined mode that additionally counts the pass-through sense labels
is available for comparison-style reporting and is clearly separate.
"""

from __future__ import annotations

import collections
import logging
from dataclasses import dataclass, field

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


def predict_corpus(model: SrlModel, sentences: list[Sentence],
                   graph_transform=None) -> PredictionSet:
    """Run inference over every predicate instance of ``sentences``.

    ``graph_transform`` maps a built graph to the one actually used (the
    relation-ablation hook).
    """
    preds = PredictionSet(model.lexicon.strings("role"))
    instances = make_instances(sentences, model.lexicon, require_gold=False)
    graphs: dict[int, object] = {}
    for inst in instances:
        if inst.sentence_id not in graphs:
            g = build_graph(inst.sentence, model.lexicon)
            if graph_transform is not None:
                g = graph_transform(g)
            graphs[inst.sentence_id] = g
        role_ids, dists = model.predict_instance(inst, graphs[inst.sentence_id])
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
    bucket_f1: dict[str, float] = field(default_factory=dict)
    bucket_gold: dict[str, int] = field(default_factory=dict)
    relation_delta_f1: dict[str, float] = field(default_factory=dict)


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


def _iter_triples(sentences, pred: PredictionSet, gold_side: bool):
    """Yield (sentence_id, predicate_ord, token_idx, role) for non-NULL roles."""
    for sid, sent in enumerate(sentences):
        for p_ord in range(len(sent.predicates)):
            for i in range(len(sent)):
                role = (sent.roles[p_ord][i] if gold_side
                        else pred.role_string(sid, p_ord, i))
                if role != NULL_ROLE:
                    yield sid, p_ord, i, role


def score(sentences: list[Sentence], pred: PredictionSet,
          include_senses: bool = False) -> ScoreReport:
    """Labeled micro P/R/F1 over arguments.

    ``include_senses`` adds one (predicate, sense) item per predicate to both
    sides, mirroring combined reporting where disambiguation comes from an
    external system and rides through this model untouched.
    """
    _check_alignment(sentences, pred)
    gold_set = set(_iter_triples(sentences, pred, gold_side=True))
    pred_set = set(_iter_triples(sentences, pred, gold_side=False))
    correct = len(gold_set & pred_set)
    predicted, gold = len(pred_set), len(gold_set)
    if include_senses:
        # senses are pass-through input, so each predicate matches by design
        senses = sum(len(s.predicates) for s in sentences)
        correct += senses
        predicted += senses
        gold += senses
    p, r, f1 = _prf(correct, predicted, gold)
    return ScoreReport(p, r, f1, correct, predicted, gold)


def _bucket(distance: int) -> str:
    return str(distance) if distance < 6 else "6+"


def distance_buckets(sentences: list[Sentence], pred: PredictionSet
                     ) -> tuple[dict[str, float], dict[str, int]]:
    """Per-bucket F1 over |token position - predicate position|.

    Distance zero exists: a nominal predicate can be its own argument.
    """
    _check_alignment(sentences, pred)
    counts = {b: [0, 0, 0] for b in BUCKETS}   # correct, predicted, gold
    for sid, sent in enumerate(sentences):
        positions = {p_ord: sent.predicates[p_ord] - 1
                     for p_ord in range(len(sent.predicates))}
        for p_ord, p_row in positions.items():
            for i in range(len(sent)):
                b = _bucket(abs(i - p_row))
                gold_role = sent.roles[p_ord][i]
                pred_role = pred.role_string(sid, p_ord, i)
                if gold_role != NULL_ROLE:
                    counts[b][2] += 1
                if pred_role != NULL_ROLE:
                    counts[b][1] += 1
                    if pred_role == gold_role:
                        counts[b][0] += 1
    f1s = {b: _prf(*counts[b])[2] for b in BUCKETS}
    gold_counts = {b: counts[b][2] for b in BUCKETS}
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


@dataclass
class TeleportStats:
    arguments: int
    token_far: int       # token distance > threshold
    teleport_far: int    # teleport distance > threshold
    threshold: int = 5

    @property
    def token_fraction(self) -> float:
        return self.token_far / self.arguments if self.arguments else 0.0

    @property
    def teleport_fraction(self) -> float:
        return self.teleport_far / self.arguments if self.arguments else 0.0


def teleport_stats(sentences: list[Sentence], threshold: int = 5) -> TeleportStats:
    """Fractions of gold arguments farther than ``threshold`` under the raw
    token metric vs. the one-dependency-hop teleport metric."""
    arguments = token_far = teleport_far = 0
    for sent in sentences:
        arcs = [(t.index - 1, t.head - 1) for t in sent.tokens if t.head != 0]
        for p_ord, p_index in enumerate(sent.predicates):
            p_row = p_index - 1
            for i, role in enumerate(sent.roles[p_ord]):
                if role == NULL_ROLE:
                    continue
                arguments += 1
                if abs(i - p_row) > threshold:
                    token_far += 1
                if _teleport_distance(p_row, i, arcs) > threshold:
                    teleport_far += 1
    return TeleportStats(arguments, token_far, teleport_far, threshold)


# ---------------------------------------------------------------------------
# relation ablation
# ---------------------------------------------------------------------------

def relation_ablation(model: SrlModel, sentences: list[Sentence],
                      min_count: int = 300,
                      relations: list[str] | None = None) -> dict[str, float]:
    """F1 change from dropping each relation type at test time, no retraining.

    Qualifying relations are those occurring at least ``min_count`` times in
    ``sentences`` unless an explicit list is given. Requires a syntax-aware
    encoder (K >= 1).
    """
    if model.gcn is None or model.gcn.depth == 0:
        raise ConfigError("relation ablation needs a GCN encoder (depth >= 1)")
    baseline = score(sentences, predict_corpus(model, sentences)).f1
    if relations is None:
        counts = collections.Counter(
            t.deprel for s in sentences for t in s.tokens if t.head != 0)
        relations = sorted(r for r, c in counts.items() if c >= min_count)
    deltas: dict[str, float] = {}
    for rel in relations:
        rel_id = model.lexicon.lookup("deprel", rel)
        preds = predict_corpus(model, sentences,
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
    lines = ["metric        P        R        F1",
             f"arguments  {report.precision:7.4f}  {report.recall:7.4f}  "
             f"{report.f1:7.4f}"]
    if report.bucket_f1:
        lines.append("")
        lines.append("distance   F1       gold")
        for b in BUCKETS:
            lines.append(f"{b:<9}  {report.bucket_f1[b]:7.4f}  "
                         f"{report.bucket_gold.get(b, 0):5d}")
    if report.relation_delta_f1:
        lines.append("")
        lines.append("relation   dF1")
        for rel, d in sorted(report.relation_delta_f1.items(), key=lambda kv: kv[1]):
            lines.append(f"{rel:<9}  {d:+8.4f}")
    return "\n".join(lines) + "\n"


def report_rows(report: ScoreReport) -> list[tuple[str, str, str]]:
    """(metric, key, value) rows for the machine-readable emission."""
    rows = [("score", "precision", f"{report.precision:.6f}"),
            ("score", "recall", f"{report.recall:.6f}"),
            ("score", "f1", f"{report.f1:.6f}")]
    for b in BUCKETS:
        if b in report.bucket_f1:
            rows.append(("bucket_f1", b, f"{report.bucket_f1[b]:.6f}"))
    for rel, d in report.relation_delta_f1.items():
        rows.append(("delta_f1", rel, f"{d:.6f}"))
    return rows


def write_report(report: ScoreReport, text_path, tsv_path) -> None:
    with open(text_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_report(report))
    with open(tsv_path, "w", encoding="utf-8", newline="") as fh:
        for metric, key, value in report_rows(report):
            fh.write(f"{metric}\t{key}\t{value}\n")
