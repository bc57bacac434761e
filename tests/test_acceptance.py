"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Full-scale figures from the original evaluation need the licensed
CoNLL-2009 corpora and hours of training; point SYNGCN_CONLL09_EN at the
English training file to enable the real-data half of criterion 10.
Everything else runs on the bundled synthetic corpora at desk scale.
"""

import os
import time

import numpy as np

from syngcn import fixtures
from syngcn import numerics as nm
from syngcn.conll import NULL_ROLE, build_lexicon, parse_conll, write_conll
from syngcn.evaluator import (PredictionSet, distance_buckets, ensemble,
                              ensemble_models, predict_corpus, score,
                              teleport_stats)
from syngcn.gcn import gcn_layer
from syngcn.syngraph import Direction, build_graph, edge_dropout, num_labels
from syngcn.trainer import SrlModel, train

from conftest import parse_text, small_config
from reference_ops import plain_gcn_layer
from test_evaluator import (bucket_recount_oracle, corpus_with_roles,
                            predictions_from_strings, teleport_oracle)
from test_gcn import (gcn_layer_oracle, layer_for, new_stack, random_graph,
                      tree_distances)


def report(num: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_gradient_integrity():
    start = time.monotonic()
    model, instance = fixtures.gradcheck_model(seed=7)
    result = nm.grad_check(lambda: model.instance_loss(instance), model.store)
    elapsed = time.monotonic() - start
    report(1, "full-model gradient check",
           result.max_rel_err < 1e-4 and elapsed < 10.0,
           f"max rel err {result.max_rel_err:.2e}, {result.checked} checked, "
           f"{result.skipped} skipped, {elapsed:.1f}s")


def test_criterion_02_gcn_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        graph, _ = random_graph(n, rng)
        params = layer_for(graph, 6, rng)
        params.label_bias.data[:] = rng.uniform(-0.1, 0.1,
                                                params.label_bias.shape)
        h = rng.uniform(-1, 1, (n, 6)).astype(np.float32)
        got = gcn_layer(nm.Tensor(h), graph, params).data
        want = gcn_layer_oracle(h, graph, params)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.monotonic() - start
    report(2, "vectorized graph layer matches per-edge oracle on 100 trees",
           worst < 1e-6 and elapsed < 5.0,
           f"max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_receptive_field():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    ok = True
    for k in (1, 2):
        graph, _ = random_graph(8, rng)
        stack, _ = new_stack(k, 5, graph.num_labels, 5, rng)
        for layer in stack.layers:
            for d in Direction:
                layer.weights[d].data[:] = rng.uniform(0.02, 0.1, (5, 5))
            layer.label_bias.data[:] = 0.1
        base = rng.uniform(0.5, 1.0, (8, 5)).astype(np.float32)
        from syngcn.gcn import gcn_stack_forward
        out_base = gcn_stack_forward(nm.Tensor(base.copy()), graph, stack).data
        dist = tree_distances(graph)
        for w in range(8):
            perturbed = base.copy()
            perturbed[w] += 0.5
            out = gcn_stack_forward(nm.Tensor(perturbed), graph, stack).data
            for v in range(8):
                changed = not np.array_equal(out[v], out_base[v])
                ok = ok and (changed == (dist[w, v] <= k))
    elapsed = time.monotonic() - start
    report(3, "K-layer stack sees exactly the K-hop neighborhood",
           ok and elapsed < 10.0, f"K in {{1,2}}, {elapsed:.1f}s")


def test_criterion_04_untyped_reduction():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        graph, _ = random_graph(n, rng)
        m = 6
        params = layer_for(graph, m, rng)
        shared_w = rng.uniform(-0.3, 0.3, (m, m)).astype(np.float32)
        shared_b = rng.uniform(-0.3, 0.3, (1, m)).astype(np.float32)
        for d in Direction:
            params.weights[d].data[:] = shared_w
        params.label_bias.data[:] = shared_b
        h = rng.uniform(-1, 1, (n, m)).astype(np.float32)
        gated = gcn_layer(nm.Tensor(h), graph, params, gates_enabled=False)
        plain = plain_gcn_layer(nm.Tensor(h), graph, nm.Tensor(shared_w),
                                nm.Tensor(shared_b))
        worst = max(worst, float(np.abs(gated.data - plain.data).max()))
    report(4, "unit gates + tied parameters reduce to the untyped layer",
           worst < 1e-6, f"max abs diff {worst:.2e} over 20 inputs")


def test_criterion_05_edge_structure(overfit_sentences, structural_sentences):
    ok = True
    detail = []
    for sents in (overfit_sentences, structural_sentences):
        lex = build_lexicon(sents)
        for sent in sents:
            graph = build_graph(sent, lex)
            ok = ok and len(graph) == 3 * len(sent) - 2
            along = {(e.src, e.dst, e.deprel_id) for e in graph.edges
                     if e.direction == Direction.ALONG}
            opposite = {(e.dst, e.src, e.deprel_id) for e in graph.edges
                        if e.direction == Direction.OPPOSITE}
            ok = ok and along == opposite
            selfs = sum(e.direction == Direction.SELF for e in graph.edges)
            ok = ok and selfs == len(sent)
        ok = ok and build_graph(sents[0], lex).num_labels == \
            2 * lex.num_deprels + 1
    many = parse_text(fixtures.many_relation_corpus())
    lex48 = build_lexicon(many)
    ok = ok and lex48.num_deprels == 48
    ok = ok and num_labels(lex48.num_deprels) == 97
    detail.append(f"48-relation lexicon -> {num_labels(48)} labels")
    report(5, "3n-2 edges, matched primed pairs, 2R+1 label space", ok,
           "; ".join(detail))


def test_criterion_06_edge_dropout_statistics(figure_sentences):
    lex = build_lexicon(figure_sentences)
    graph = build_graph(figure_sentences[0], lex)
    same = edge_dropout(graph, 0.0, np.random.default_rng(0))
    identical = same is graph and same.edges == graph.edges
    rng = np.random.default_rng(1234)
    trials = 10_000
    kept = sum(len(edge_dropout(graph, 0.3, rng)) for _ in range(trials))
    total = trials * len(graph)
    p = 0.7
    sigma = (p * (1 - p) / total) ** 0.5
    deviation = abs(kept / total - p)
    report(6, "dropout: beta=0 is exact identity; beta=0.3 keep rate binomial",
           identical and deviation < 3 * sigma,
           f"keep rate {kept / total:.4f}, |dev| {deviation:.5f} < "
           f"3 sigma = {3 * sigma:.5f}")


def test_criterion_07_overfit_run(overfit_sentences, tmp_path):
    vocab = {t.form for s in overfit_sentences for t in s.tokens}
    roles = {r for s in overfit_sentences for row in s.roles for r in row
             if r != NULL_ROLE}
    assert len(overfit_sentences) == 20
    assert 40 <= len(vocab) <= 60          # "vocab ~ 50"
    assert len(roles | {NULL_ROLE}) == 3   # NULL, A0, A1
    config = small_config(edge_dropout=0.3, epochs=200, seed=11,
                          early_stop_f1=0.99)
    start = time.monotonic()
    result = train(overfit_sentences, overfit_sentences, config,
                   tmp_path / "overfit")
    elapsed = time.monotonic() - start
    hit = [m.epoch for m in result.history if m.dev_f1 >= 0.99]
    report(7, "overfit: dev F1 >= 0.99 within 200 epochs in under 2 minutes",
           bool(hit) and hit[0] <= 200 and elapsed < 120.0,
           f"reached at epoch {hit[0] if hit else 'never'}, {elapsed:.1f}s")


def test_criterion_08_structural_advantage(structural_runs):
    gcn_run = structural_runs["lstm+gcn"]
    lstm_run = structural_runs["lstm"]
    horizon = 120
    gcn_epochs = gcn_run.epochs_to_criterion or (horizon + 1)
    lstm_epochs = lstm_run.epochs_to_criterion or (horizon + 1)
    ok = gcn_run.epochs_to_criterion is not None and gcn_epochs < lstm_epochs
    lstm_label = (str(lstm_run.epochs_to_criterion)
                  if lstm_run.epochs_to_criterion else f">{horizon}")
    report(8, "syntax-aware encoder reaches F1 >= 0.95 in strictly fewer "
              "epochs on the long-range corpus", ok,
           f"lstm+gcn at epoch {gcn_epochs}, lstm at {lstm_label} "
           f"(identical seed/config)")


def test_criterion_09_scorer_exactness(structural_sentences):
    cases = [
        # (gold roles, predicted roles, expected P, R, F1)
        (["A0", "_", "A1", "_"], ["A0", "_", "A1", "_"], 1.0, 1.0, 1.0),
        (["A0", "_", "A1", "_"], ["_", "_", "_", "_"], 0.0, 0.0, 0.0),
        (["_", "_", "_", "_"], ["A0", "_", "_", "_"], 0.0, 0.0, 0.0),
        (["A0", "_", "_", "_"], ["A1", "_", "_", "_"], 0.0, 0.0, 0.0),
        (["A0", "_", "A1", "_"], ["A0", "_", "_", "A1"], 0.5, 0.5, 0.5),
    ]
    ok = True
    for gold_row, pred_row, p, r, f1 in cases:
        gold = corpus_with_roles([gold_row])
        pred = predictions_from_strings(gold, [pred_row])
        got = score(gold, pred)
        ok = ok and (got.precision, got.recall, got.f1) == (p, r, f1)
    rng = np.random.default_rng(0)
    rows = [[("_", "A0", "A1")[rng.integers(0, 3)] for _ in range(len(s))]
            for s in structural_sentences]
    pred = predictions_from_strings(structural_sentences, rows)
    f1s, counts = distance_buckets(structural_sentences, pred)
    want_f1s, want_counts = bucket_recount_oracle(structural_sentences, pred)
    ok = ok and f1s == want_f1s and counts == want_counts
    report(9, "hand-computed P/R/F1 cases and bucket recount match exactly",
           ok, "5 scorer cases + distance buckets")


def test_criterion_10_teleport_statistics(overfit_sentences,
                                          structural_sentences):
    from syngcn.evaluator import _teleport_distance
    ok = True
    for sents in (overfit_sentences, structural_sentences):
        for sent in sents:
            arcs = [(t.index - 1, t.head - 1) for t in sent.tokens
                    if t.head != 0]
            want = teleport_oracle(sent)
            got = []
            for p_ord, p_index in enumerate(sent.predicates):
                for i, role in enumerate(sent.roles[p_ord]):
                    if role != NULL_ROLE:
                        got.append((abs(i - (p_index - 1)),
                                    _teleport_distance(p_index - 1, i, arcs)))
            ok = ok and got == want
    detail = "fixtures match exhaustive path enumeration exactly"
    real = os.environ.get("SYNGCN_CONLL09_EN")
    if real:
        with open(real, encoding="utf-8") as fh:
            sents = parse_conll(fh)
        stats = teleport_stats(sents)
        token_pct = 100 * stats.token_fraction
        tele_pct = 100 * stats.teleport_fraction
        ok = ok and abs(token_pct - 20.0) <= 3.0 and abs(tele_pct - 9.0) <= 3.0
        detail += (f"; real data: token {token_pct:.1f}% (20 +- 3), "
                   f"teleport {tele_pct:.1f}% (9 +- 3)")
    else:
        detail += "; real-data half skipped (SYNGCN_CONLL09_EN not set)"
    report(10, "teleport distances match the oracle", ok, detail)


def test_criterion_11_ensemble_identity(structural_runs,
                                        structural_sentences):
    run = structural_runs["lstm+gcn"]
    model = run.model
    config = run.model.config
    lexicon = run.model.lexicon
    ckpt = run.run_dir / "best.ckpt"
    members = [SrlModel.from_checkpoint(ckpt, config, lexicon)
               for _ in range(3)]
    combined = ensemble_models(members, structural_sentences)
    single = predict_corpus(model, structural_sentences)
    worst = 0.0
    for key in single.keys():
        worst = max(worst, float(np.abs(combined.get(*key)[1]
                                        - single.get(*key)[1]).max()))
    # argmax invariance under per-member positive rescaling
    def rescaled(member, c):
        out = PredictionSet(member.roles)
        for key in member.keys():
            ids, dists = member.get(*key)
            out.add(key[0], key[1], ids, dists * c)
        return out

    plain = ensemble([single, single, single])
    scaled = ensemble([rescaled(single, 0.2), rescaled(single, 5.0),
                       rescaled(single, 1.7)])
    stable = all(
        np.array_equal(plain.get(*key)[0], scaled.get(*key)[0])
        for key in plain.keys())
    report(11, "3-member self-ensemble equals the single model; argmax "
               "scale-invariant", worst < 1e-6 and stable,
           f"max distribution diff {worst:.2e}")


def test_criterion_12_round_trips(overfit_sentences, tmp_path):
    text = fixtures.overfit_corpus()
    conll_ok = write_conll(parse_text(text)) == text
    model, _ = fixtures.gradcheck_model(seed=3)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model.save(p1)
    nm.save_checkpoint(nm.load_checkpoint(p1), p2)
    ckpt_ok = p1.read_bytes() == p2.read_bytes()
    config = small_config(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
                          epochs=3)
    runs = []
    for name in ("one", "two"):
        result = train(overfit_sentences, overfit_sentences, config,
                       tmp_path / name)
        runs.append(result.best_checkpoint.read_bytes())
    train_ok = runs[0] == runs[1]
    report(12, "byte-identical round trips: CoNLL, checkpoint, seeded runs",
           conll_ok and ckpt_ok and train_ok,
           f"conll={conll_ok} checkpoint={ckpt_ok} training={train_ok}")
