"""The analysis suite on the long-range corpus: teleport distances, the
syntax-vs-sequence training race, relation ablation, and ensembling.

Run from the repository root:  python3 demos/04_syntax_analyses.py
The two training runs take a minute or two combined.
"""

import shutil
from pathlib import Path

from syngcn import fixtures
from syngcn.conll import build_lexicon, parse_conll, parse_conll_file
from syngcn.embedder import load_pretrained
from syngcn.evaluator import (ensemble_models, predict_corpus,
                              relation_ablation, score, teleport_stats)
from syngcn.trainer import SrlModel, TrainConfig, train

data = Path("demo_runs/data")
fixtures.write_all(data)
corpus = parse_conll_file(data / "structural.conll")
lexicon = build_lexicon(corpus)
pretrained, _ = load_pretrained(data / "structural_embeddings.txt", lexicon, 16)

print("== teleport distances ==")
# a sentence whose argument is 8 tokens from the predicate but directly
# attached to it: distant under the token metric, adjacent when one
# dependency edge may be crossed as a single step
far_rows = ["1\tshipped\tship\tship\tVB\tVB\t_\t_\t0\t0\tROOT\tROOT\tY"
            "\tship.01\t_"]
for i in range(2, 9):
    far_rows.append(f"{i}\tf{i}\tf{i}\tf{i}\tNN\tNN\t_\t_\t1\t1\tFILL\tFILL"
                    f"\t_\t_\t_")
far_rows.append("9\tcrates\tcrate\tcrate\tNN\tNN\t_\t_\t1\t1\tOBJ\tOBJ"
                "\t_\t_\tA1")
far_sents = parse_conll([r + "\n" for r in far_rows] + ["\n"])
stats = teleport_stats(far_sents)
print("argument 8 tokens away, 1 dependency arc from its predicate:")
print(f"  token metric:    {100 * stats.token_fraction:.0f}% farther than 5")
print(f"  teleport metric: {100 * stats.teleport_fraction:.0f}% farther than 5")
near = teleport_stats(corpus)
print(f"bundled long-range corpus ({near.arguments} arguments): the distant "
      f"token is the\nrole-deciding marker, the arguments themselves sit "
      f"next to the verb, so both\nmetrics stay small "
      f"({100 * near.token_fraction:.0f}% / "
      f"{100 * near.teleport_fraction:.0f}%).")


def run(mode: str):
    # the sequence baseline is the same model with no GCN layer (K = 0)
    config = TrainConfig(d_w=16, d_pos=8, d_l=16, d_h=32, d_r=16, d_l_out=16,
                         lstm_layers=1, gcn_layers=int(mode == "lstm+gcn"),
                         edge_dropout=0.1, learning_rate=0.01, epochs=120,
                         seed=23, unk_replace_rate=0.0, early_stop_f1=0.95)
    run_dir = Path("demo_runs") / mode.replace("+", "_")
    shutil.rmtree(run_dir, ignore_errors=True)   # train() refuses a used one
    result = train(corpus, corpus, config, run_dir,
                   lexicon=lexicon, pretrained=pretrained)
    reached = [m.epoch for m in result.history if m.dev_f1 >= 0.95]
    return (reached[0] if reached else None), result, config


print("\n== sequence encoder vs syntax-aware encoder ==")
for mode in ("lstm+gcn", "lstm"):
    epoch, result, config = run(mode)
    label = f"F1 >= 0.95 at epoch {epoch}" if epoch else \
        f"never reached 0.95 in {len(result.history)} epochs " \
        f"(best {result.best_f1:.3f})"
    print(f"  {mode:9}: {label}")
    if mode == "lstm+gcn":
        gcn_result, gcn_config = result, config

print("\n== which relation carries the signal? ==")
model = SrlModel.from_checkpoint(gcn_result.best_checkpoint, gcn_config,
                                 lexicon)
deltas = relation_ablation(model, corpus,
                           relations=["COMP", "FILL", "SBJ", "OBJ"])
for rel, delta in sorted(deltas.items(), key=lambda kv: kv[1]):
    print(f"  drop {rel:5}: F1 change {delta:+.3f}")
print("COMP is the arc from the role-deciding marker to the predicate.")

print("\n== product-of-experts ensembling ==")
single = score(corpus, predict_corpus(model, corpus)).f1
combined = score(corpus, ensemble_models([model, model, model], corpus)).f1
print(f"  single model F1 {single:.3f}, 3x self-ensemble F1 {combined:.3f} "
      f"(identical members change nothing)")
