import collections
import copy
import logging

import numpy as np
import pytest

from syngcn import evaluator
from syngcn.conll import NULL_ROLE, build_lexicon
from syngcn.errors import ConfigError, ContractError
from syngcn.evaluator import (BUCKETS, TELEPORT_THRESHOLD, PredictionSet,
                              distance_buckets, ensemble, ensemble_models,
                              predict_corpus, relation_ablation, score,
                              teleport_stats, format_report, report_rows)
from syngcn.syngraph import drop_relation

from syngcn.trainer import SrlModel, make_instances

from conftest import GCN_LAYERS, parse_text, small_config
from test_conll import make_sentence


def corpus_with_roles(role_rows):
    """One 4-token sentence per row spec, predicate at token 2."""
    chunks = []
    for roles in role_rows:
        chunks.append(make_sentence(
            [("a", "a", "N", 2, "SBJ", "_", "_"),
             ("v", "v", "V", 0, "ROOT", "Y", "v.01"),
             ("b", "b", "N", 2, "OBJ", "_", "_"),
             ("c", "c", "N", 3, "NMOD", "_", "_")],
            apreds_per_row=[[r] for r in roles]))
    return parse_text("".join(chunks))


def predictions_from_strings(sentences, role_rows):
    """Build a PredictionSet carrying the given role strings per sentence."""
    inventory = [NULL_ROLE]
    for row in role_rows:
        for r in row:
            if r not in inventory:
                inventory.append(r)
    for sent in sentences:
        for gold_row in sent.roles:
            for r in gold_row:
                if r not in inventory:
                    inventory.append(r)
    pred = PredictionSet(inventory)
    index = {r: i for i, r in enumerate(inventory)}
    for sid, row in enumerate(role_rows):
        ids = np.array([index[r] for r in row], dtype=np.intp)
        dists = np.zeros((len(row), len(inventory)))
        dists[np.arange(len(row)), ids] = 1.0
        pred.add(sid, 0, ids, dists)
    return pred


class TestScore:
    def test_perfect(self):
        gold = corpus_with_roles([["A0", "_", "A1", "_"]])
        pred = predictions_from_strings(gold, [["A0", "_", "A1", "_"]])
        report = score(gold, pred)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_one_correct_one_spurious(self):
        # gold has 2 arguments; prediction has 1 correct + 1 spurious
        gold = corpus_with_roles([["A0", "_", "A1", "_"]])
        pred = predictions_from_strings(gold, [["A0", "_", "_", "A1"]])
        report = score(gold, pred)
        assert report.precision == 0.5
        assert report.recall == 0.5
        assert report.f1 == 0.5

    def test_wrong_label_is_fp_and_fn(self):
        gold = corpus_with_roles([["A0", "_", "_", "_"]])
        pred = predictions_from_strings(gold, [["A1", "_", "_", "_"]])
        report = score(gold, pred)
        assert report.correct == 0
        assert report.predicted == 1
        assert report.gold == 1
        assert report.f1 == 0.0

    def test_all_null_prediction(self):
        gold = corpus_with_roles([["A0", "_", "A1", "_"]])
        pred = predictions_from_strings(gold, [["_", "_", "_", "_"]])
        report = score(gold, pred)
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_misaligned_sets_rejected(self):
        gold = corpus_with_roles([["A0", "_", "A1", "_"]])
        pred = predictions_from_strings(gold, [["A0", "_", "A1", "_"]])
        extra = corpus_with_roles([["A0", "_", "A1", "_"],
                                   ["A0", "_", "_", "_"]])
        with pytest.raises(ContractError, match="mismatch"):
            score(extra, pred)

    @pytest.mark.parametrize("length", [3, 5])
    def test_prediction_of_another_length_rejected(self, length):
        gold = corpus_with_roles([["A0", "_", "A1", "_"]])
        pred = predictions_from_strings(gold, [["A0", "_", "A1", "_", "_"]
                                               [:length]])
        with pytest.raises(ContractError, match=f"{length} roles predicted"):
            score(gold, pred)
        with pytest.raises(ContractError, match=f"{length} roles predicted"):
            distance_buckets(gold, pred)

    def test_instance_order_blind_micro_counts(self):
        rows = [["A0", "_", "A1", "_"], ["_", "_", "A1", "_"],
                ["A0", "_", "_", "A2"]]
        preds_rows = [["A0", "_", "_", "_"], ["A1", "_", "A1", "_"],
                      ["A0", "_", "_", "A1"]]
        gold = corpus_with_roles(rows)
        pred = predictions_from_strings(gold, preds_rows)
        whole = score(gold, pred)
        # micro counts equal the sum of per-sentence counts
        c = p = g = 0
        for i in range(3):
            single_gold = corpus_with_roles([rows[i]])
            single_pred = predictions_from_strings(single_gold, [preds_rows[i]])
            r = score(single_gold, single_pred)
            c += r.correct
            p += r.predicted
            g += r.gold
        assert (whole.correct, whole.predicted, whole.gold) == (c, p, g)

    @pytest.mark.parametrize("corpus", ["overfit", "structural"])
    def test_counts_match_triple_recount(self, corpus, request):
        sentences = request.getfixturevalue(f"{corpus}_sentences")
        rng = np.random.default_rng(5)
        for _ in range(3):
            pred = perturbed_gold(sentences, rng)
            report = score(sentences, pred)
            assert (report.correct, report.predicted, report.gold) == \
                triple_recount_oracle(sentences, pred)
            assert 0 < report.correct < min(report.predicted, report.gold)


def triple_recount_oracle(sentences, pred):
    """(correct, predicted, gold) recounted as sets of (sentence, predicate,
    token, role) triples with a non-NULL role, intersected."""
    def triples(role_of):
        found = set()
        for sid, sent in enumerate(sentences):
            for p_ord in range(len(sent.predicates)):
                for i in range(len(sent)):
                    role = role_of(sid, p_ord, i)
                    if role != NULL_ROLE:
                        found.add((sid, p_ord, i, role))
        return found

    gold = triples(lambda sid, p_ord, i: sentences[sid].roles[p_ord][i])
    predicted = triples(pred.role_string)
    return len(gold & predicted), len(predicted), len(gold)


def perturbed_gold(sentences, rng, rate=0.3):
    """The corpus's own roles, each token's replaced with probability
    ``rate`` by a role drawn from the inventory, NULL included."""
    pred = PredictionSet.from_gold(sentences)
    for key in list(pred.keys()):
        ids = pred.get(*key)[0].copy()
        swap = rng.random(len(ids)) < rate
        ids[swap] = rng.integers(0, len(pred.roles), int(swap.sum()))
        pred.add(*key, ids, np.eye(len(pred.roles))[ids])
    return pred


def bucket_recount_oracle(sentences, pred):
    """Independent per-argument recount of the bucket tallies."""
    tallies = {b: [0, 0, 0] for b in BUCKETS}
    for sid, sent in enumerate(sentences):
        for p_ord, p_index in enumerate(sent.predicates):
            for i in range(len(sent)):
                d = abs(i - (p_index - 1))
                b = str(d) if d < 6 else "6+"
                g = sent.roles[p_ord][i]
                q = pred.role_string(sid, p_ord, i)
                if g != NULL_ROLE:
                    tallies[b][2] += 1
                if q != NULL_ROLE:
                    tallies[b][1] += 1
                    if q == g:
                        tallies[b][0] += 1
    out = {}
    for b, (c, p, g) in tallies.items():
        prec = c / p if p else 0.0
        rec = c / g if g else 0.0
        out[b] = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return out, {b: t[2] for b, t in tallies.items()}


class TestDistanceBuckets:
    def test_self_argument_lands_in_bucket_zero(self):
        text = make_sentence(
            [("loss", "loss", "NN", 0, "ROOT", "Y", "loss.01")],
            apreds_per_row=[["A1"]])
        gold = parse_text(text)
        pred = predictions_from_strings(gold, [["A1"]])
        f1s, counts = distance_buckets(gold, pred)
        assert counts["0"] == 1
        assert f1s["0"] == 1.0

    def test_adjacent_arguments_only_bucket_one(self):
        text = make_sentence(
            [("a", "a", "N", 2, "SBJ", "_", "_"),
             ("v", "v", "V", 0, "ROOT", "Y", "v.01"),
             ("b", "b", "N", 2, "OBJ", "_", "_")],
            apreds_per_row=[["A0"], ["_"], ["A1"]])
        gold = parse_text(text)
        pred = predictions_from_strings(gold, [["A0", "_", "A1"]])
        f1s, counts = distance_buckets(gold, pred)
        assert counts["1"] == 2
        assert all(counts[b] == 0 for b in BUCKETS if b != "1")

    def test_matches_recount_oracle(self, structural_sentences):
        rng = np.random.default_rng(0)
        roles = ["_", "A0", "A1"]
        rows = []
        for sent in structural_sentences:
            rows.append([roles[rng.integers(0, 3)] for _ in range(len(sent))])
        pred = predictions_from_strings(structural_sentences, rows)
        f1s, counts = distance_buckets(structural_sentences, pred)
        want_f1s, want_counts = bucket_recount_oracle(structural_sentences, pred)
        assert f1s == want_f1s
        assert counts == want_counts

    def test_bucket_gold_counts_sum_to_total(self, overfit_sentences):
        pred = PredictionSet.from_gold(overfit_sentences)
        _, counts = distance_buckets(overfit_sentences, pred)
        total = sum(1 for s in overfit_sentences for row in s.roles
                    for r in row if r != NULL_ROLE)
        assert sum(counts.values()) == total


def teleport_oracle(sent):
    """Exhaustive BFS over states (node, dependency-edges-used <= 1)."""
    n = len(sent)
    arcs = [(t.index - 1, t.head - 1) for t in sent.tokens if t.head != 0]
    neighbors = collections.defaultdict(list)
    for i in range(n - 1):
        neighbors[i].append((i + 1, 0))
        neighbors[i + 1].append((i, 0))
    for u, v in arcs:
        neighbors[u].append((v, 1))
        neighbors[v].append((u, 1))

    def shortest(src, dst):
        best = {}
        frontier = [(src, 0)]
        best[(src, 0)] = 0
        d = 0
        while frontier:
            nxt = []
            for node, used in frontier:
                if best[(node, used)] != d:
                    continue
                for other, cost_flag in neighbors[node]:
                    nu = used + cost_flag
                    if nu > 1:
                        continue
                    key = (other, nu)
                    if key not in best:
                        best[key] = d + 1
                        nxt.append(key)
            frontier = nxt
            d += 1
        return min(best.get((dst, 0), 10 ** 9), best.get((dst, 1), 10 ** 9))

    out = []
    for p_ord, p_index in enumerate(sent.predicates):
        for i, role in enumerate(sent.roles[p_ord]):
            if role != NULL_ROLE:
                out.append((abs(i - (p_index - 1)),
                            shortest(p_index - 1, i)))
    return out


class TestTeleport:
    def test_adjacent_argument_both_one(self):
        gold = corpus_with_roles([["A0", "_", "_", "_"]])
        stats = teleport_stats(gold)
        assert stats.arguments == 1
        assert stats.token_far == 0
        assert stats.teleport_far == 0

    def test_single_edge_shortcut(self):
        # argument 8 tokens from the predicate but attached by one arc
        rows = [("v", "v", "V", 0, "ROOT", "Y", "v.01")]
        for i in range(2, 9):
            rows.append((f"f{i}", f"f{i}", "N", 1, "FILL", "_", "_"))
        rows.append(("arg", "arg", "N", 1, "COMP", "_", "_"))
        apreds = [["_"]] * 8 + [["A1"]]
        gold = parse_text(make_sentence(rows, apreds))
        stats = teleport_stats(gold)
        assert stats.arguments == 1
        assert stats.token_far == 1       # token distance 8 > 5
        assert stats.teleport_far == 0    # teleport distance 1

    def test_matches_bfs_oracle_on_fixtures(self, overfit_sentences,
                                            structural_sentences):
        from syngcn.evaluator import _teleport_distance
        for sents in (overfit_sentences, structural_sentences):
            far_token = far_tele = total = 0
            for sent in sents:
                arcs = [(t.index - 1, t.head - 1) for t in sent.tokens
                        if t.head != 0]
                oracle_pairs = teleport_oracle(sent)
                ours = []
                for p_ord, p_index in enumerate(sent.predicates):
                    for i, role in enumerate(sent.roles[p_ord]):
                        if role != NULL_ROLE:
                            ours.append((abs(i - (p_index - 1)),
                                         _teleport_distance(p_index - 1, i,
                                                            arcs)))
                assert ours == oracle_pairs
                total += len(ours)
                far_token += sum(1 for t, _ in ours if t > TELEPORT_THRESHOLD)
                far_tele += sum(1 for _, q in ours if q > TELEPORT_THRESHOLD)
            stats = teleport_stats(sents)
            assert stats.arguments == total
            assert stats.token_far == far_token
            assert stats.teleport_far == far_tele


class TestEnsemble:
    def make_member(self, dists_by_key, roles=("_", "A0", "A1")):
        member = PredictionSet(list(roles))
        for key, dists in dists_by_key.items():
            arr = np.asarray(dists, dtype=np.float64)
            member.add(key[0], key[1], arr.argmax(axis=1), arr)
        return member

    def test_three_identical_members_match_single(self):
        dists = {(0, 0): [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]}
        members = [self.make_member(dists) for _ in range(3)]
        combined = ensemble(members)
        got_ids, got = combined.get(0, 0)
        assert np.abs(got - np.asarray(dists[(0, 0)])).max() < 1e-6
        assert list(got_ids) == [1, 0]

    def test_product_rule_against_hand_multiplication(self):
        a = {(0, 0): [[0.7, 0.2, 0.1]]}
        b = {(0, 0): [[0.2, 0.2, 0.6]]}
        combined = ensemble([self.make_member(a), self.make_member(b)])
        raw = np.sqrt(np.array([0.7 * 0.2, 0.2 * 0.2, 0.1 * 0.6]))
        want = raw / raw.sum()
        assert np.abs(combined.get(0, 0)[1][0] - want).max() < 1e-12
        # the temper exponent never changes the winning role
        plain = np.array([0.7 * 0.2, 0.2 * 0.2, 0.1 * 0.6])
        assert plain.argmax() == want.argmax()

    def test_zero_probability_annihilates(self):
        a = {(0, 0): [[0.0, 0.5, 0.5]]}
        b = {(0, 0): [[0.9, 0.05, 0.05]]}
        combined = ensemble([self.make_member(a), self.make_member(b)])
        assert combined.get(0, 0)[1][0, 0] == 0.0

    def test_argmax_invariant_under_member_rescaling(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.01, 1.0, (4, 3))
        dists = {(0, 0): raw / raw.sum(axis=1, keepdims=True)}
        members = [self.make_member(dists) for _ in range(3)]
        plain = ensemble(members).get(0, 0)[0]
        scaled = [self.make_member({(0, 0): dists[(0, 0)] * c})
                  for c in (1.0, 7.3, 0.02)]
        rescaled = ensemble(scaled).get(0, 0)[0]
        assert np.array_equal(plain, rescaled)

    def test_needs_two_members(self):
        member = self.make_member({(0, 0): [[1.0, 0.0, 0.0]]})
        with pytest.raises(ContractError):
            ensemble([member])

    def test_role_inventory_mismatch(self):
        a = self.make_member({(0, 0): [[1.0, 0.0, 0.0]]})
        b = self.make_member({(0, 0): [[1.0, 0.0, 0.0]]},
                             roles=("_", "A0", "A9"))
        with pytest.raises(ContractError, match="inventories"):
            ensemble([a, b])


class TestRelationAblation:
    def test_needs_gcn_encoder(self, structural_runs, structural_sentences):
        lstm_run = structural_runs["lstm"]
        with pytest.raises(ConfigError):
            relation_ablation(lstm_run.model, structural_sentences)

    def test_min_count_filter_excludes_rare(self, structural_runs,
                                            structural_sentences):
        model = structural_runs["lstm+gcn"].model
        # FILL occurs 80 times, everything else 16; a threshold of exactly 80
        # keeps FILL while 81 (count falls one short) keeps nothing
        deltas = relation_ablation(model, structural_sentences, min_count=80)
        assert set(deltas) == {"FILL"}
        assert relation_ablation(model, structural_sentences,
                                 min_count=81) == {}

    def test_absent_relation_is_exact_noop(self, structural_runs,
                                           structural_sentences):
        model = structural_runs["lstm+gcn"].model
        deltas = relation_ablation(model, structural_sentences,
                                   relations=["NEVERSEEN"])
        assert deltas == {"NEVERSEEN": 0.0}

    def test_unseen_relations_are_left_out(self, structural_runs,
                                           structural_sentences, caplog):
        # SBJ and OBJ renamed to two relations the model never saw: both
        # look up as UNK, so dropping one would drop the other's edges too
        model = structural_runs["lstm+gcn"].model
        sentences = copy.deepcopy(structural_sentences)
        for sent in sentences:
            for tok in sent.tokens:
                tok.deprel = {"SBJ": "NEW1", "OBJ": "NEW2"}.get(tok.deprel,
                                                                tok.deprel)
        with caplog.at_level(logging.WARNING, logger="syngcn.evaluator"):
            deltas = relation_ablation(model, sentences,
                                       relations=["NEW1", "COMP", "NEW2"])
        assert set(deltas) == {"COMP"}
        skipped = [r.getMessage() for r in caplog.records
                   if "never saw" in r.getMessage()]
        assert len(skipped) == 1
        assert "NEW1" in skipped[0] and "NEW2" in skipped[0]
        # the known relation's delta is that of dropping its edges alone
        comp = model.lexicon.lookup("deprel", "COMP")
        base = score(sentences, predict_corpus(model, sentences)).f1
        dropped = predict_corpus(model, sentences,
                                 graph_transform=lambda g: drop_relation(g, comp))
        assert deltas["COMP"] == score(sentences, dropped).f1 - base
        assert not {"NEW1", "NEW2"} & set(
            relation_ablation(model, sentences, min_count=1))

    def test_signal_relation_hurts_most(self, structural_runs,
                                        structural_sentences):
        model = structural_runs["lstm+gcn"].model
        deltas = relation_ablation(
            model, structural_sentences,
            relations=["COMP", "FILL", "SBJ", "OBJ"])
        worst = min(deltas, key=deltas.get)
        assert worst == "COMP"
        assert deltas["COMP"] < 0.0

    def test_baseline_equals_unablated_score(self, structural_runs,
                                             structural_sentences):
        model = structural_runs["lstm+gcn"].model
        preds = predict_corpus(model, structural_sentences)
        base = score(structural_sentences, preds).f1
        deltas = relation_ablation(model, structural_sentences,
                                   relations=["NEVERSEEN"])
        # a no-op drop reproduces the baseline exactly
        assert deltas["NEVERSEEN"] == pytest.approx(0.0, abs=0.0)
        assert base > 0.9


class TestPredictCorpus:
    def test_covers_every_instance(self, structural_runs, structural_sentences):
        model = structural_runs["lstm+gcn"].model
        preds = predict_corpus(model, structural_sentences)
        wanted = {(sid, p) for sid, s in enumerate(structural_sentences)
                  for p in range(len(s.predicates))}
        assert set(preds.keys()) == wanted

    def test_ensemble_models_smoke(self, structural_runs,
                                   structural_sentences):
        model = structural_runs["lstm+gcn"].model
        combined = ensemble_models([model, model], structural_sentences)
        single = predict_corpus(model, structural_sentences)
        for key in single.keys():
            assert np.abs(combined.get(*key)[1] - single.get(*key)[1]).max() \
                < 1e-6


    @pytest.mark.parametrize("mode", ["lstm+gcn", "lstm"])
    def test_batched_matches_batches_of_one(self, mode, structural_runs,
                                            structural_sentences,
                                            overfit_sentences, monkeypatch):
        untrained = SrlModel(small_config(gcn_layers=GCN_LAYERS[mode]),
                             build_lexicon(overfit_sentences),
                             np.random.default_rng(3))
        for model, sents in ((structural_runs[mode].model, structural_sentences),
                             (untrained, overfit_sentences)):
            instances = make_instances(sents, model.lexicon, require_gold=False)
            batches = list(evaluator._batches(instances,
                                              evaluator.PREDICT_TOKEN_BUDGET))
            assert len(batches) < len(instances)
            batched = predict_corpus(model, sents)
            monkeypatch.setattr(evaluator, "PREDICT_TOKEN_BUDGET", 1)
            alone = predict_corpus(model, sents)
            monkeypatch.undo()
            assert set(batched.keys()) == set(alone.keys())
            for key in alone.keys():
                ids, dists = batched.get(*key)
                want_ids, want_dists = alone.get(*key)
                assert np.array_equal(ids, want_ids)
                np.testing.assert_allclose(dists, want_dists, rtol=0,
                                           atol=1e-5)

    def test_batches_follow_corpus_order_under_the_budget(self,
                                                          overfit_sentences):
        instances = make_instances(overfit_sentences,
                                   build_lexicon(overfit_sentences))
        budget = 2 * max(len(s) for s in overfit_sentences)
        batches = list(evaluator._batches(instances, budget))
        assert [i for b in batches for i in b] == instances
        assert all(sum(len(i.sentence) for i in b) <= budget for b in batches)
        assert len(batches) > 1
        assert [len(b) for b in evaluator._batches(instances, 1)] == \
            [1] * len(instances)


class TestReports:
    def test_format_and_rows(self):
        gold = corpus_with_roles([["A0", "_", "A1", "_"]])
        pred = predictions_from_strings(gold, [["A0", "_", "A1", "_"]])
        report = score(gold, pred)
        assert format_report(report) == (
            "metric        P        R        F1\n"
            "arguments   1.0000   1.0000   1.0000\n")
        assert report_rows(report) == [("score", "precision", "1.000000"),
                                       ("score", "recall", "1.000000"),
                                       ("score", "f1", "1.000000")]
