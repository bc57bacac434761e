"""Train the labeler on the bundled corpus, then predict and score.

Run from the repository root:  python3 demos/03_training_and_prediction.py
Takes a few seconds; writes everything under ./demo_runs/.
"""

import shutil
from pathlib import Path

from syngcn import fixtures
from syngcn.conll import Lexicon, parse_conll_file, write_conll_file
from syngcn.evaluator import distance_buckets, predict_corpus, score
from syngcn.trainer import SrlModel, TrainConfig, load_config, train

data = Path("demo_runs/data")
fixtures.write_all(data)
corpus = parse_conll_file(data / "overfit.conll")
print(f"{len(corpus)} sentences, "
      f"{sum(len(s.predicates) for s in corpus)} predicate instances")

config = TrainConfig(d_w=16, d_pos=8, d_l=16, d_h=32, d_r=16, d_l_out=16,
                     lstm_layers=1, gcn_layers=1, edge_dropout=0.3,
                     learning_rate=0.01, epochs=30, seed=11,
                     unk_replace_rate=0.0, early_stop_f1=1.0)
run_dir = Path("demo_runs/overfit")
shutil.rmtree(run_dir, ignore_errors=True)   # train() refuses a used directory
result = train(corpus, corpus, config, run_dir)
print("\nepoch  loss    dev F1")
for m in result.history:
    print(f"{m.epoch:5d}  {m.train_loss:6.3f}  {m.dev_f1:6.3f}")
print(f"best epoch {result.best_epoch} -> {result.best_checkpoint}")

print("\n== predictions back into CoNLL form ==")
model = SrlModel.from_checkpoint(result.best_checkpoint,
                                 load_config(result.config_path),
                                 Lexicon.load(result.lexicon_path))
predictions = predict_corpus(model, corpus)
out = Path("demo_runs/predicted.conll")
write_conll_file(out, corpus, predictions)
print("wrote", out)

report = score(corpus, predictions)
print(f"P {report.precision:.3f}  R {report.recall:.3f}  F1 {report.f1:.3f}")

f1s, gold = distance_buckets(corpus, predictions)
print("\ndistance buckets (F1 / gold count):")
for bucket in ("0", "1", "2", "3", "4", "5", "6+"):
    print(f"  {bucket:>2}: {f1s[bucket]:.3f} / {gold[bucket]}")
