"""Shared fixtures: parsed synthetic corpora and one trained small model.

The long-range training runs (the "lstm+gcn" encoder with K = 1 and the
"lstm" baseline with K = 0) are session-scoped so the evaluator tests and the
acceptance suite share them instead of retraining.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from syngcn import fixtures
from syngcn.conll import build_lexicon, parse_conll
from syngcn.embedder import load_pretrained
from syngcn.trainer import SrlModel, TrainConfig, train


def parse_text(text: str):
    return parse_conll(text.splitlines(keepends=True))


@pytest.fixture(scope="session")
def overfit_sentences():
    return parse_text(fixtures.overfit_corpus())


@pytest.fixture(scope="session")
def structural_sentences():
    return parse_text(fixtures.structural_corpus())


@pytest.fixture(scope="session")
def figure_sentences():
    return parse_text(fixtures.figure_sentence())


@pytest.fixture(scope="session")
def overfit_lexicon(overfit_sentences):
    return build_lexicon(overfit_sentences)


def small_config(**overrides) -> TrainConfig:
    base = dict(d_w=16, d_pos=8, d_l=16, d_h=32, d_r=16, d_l_out=16,
                lstm_layers=1, gcn_layers=1, edge_dropout=0.1,
                learning_rate=0.01, seed=23, unk_replace_rate=0.0)
    base.update(overrides)
    return TrainConfig(**base)


# run label -> GCN depth: the sequence baseline is the same model with K = 0
GCN_LAYERS = {"lstm+gcn": 1, "lstm": 0}


@dataclass
class StructuralRun:
    mode: str
    epochs_to_criterion: int | None   # first epoch with dev F1 >= 0.95
    model: SrlModel
    run_dir: Path
    best_f1: float


def _train_structural(mode: str, sentences, out_dir: Path) -> StructuralRun:
    lexicon = build_lexicon(sentences)
    emb_path = out_dir / "embeddings.txt"
    emb_path.write_text(fixtures.structural_embeddings(16), encoding="utf-8")
    pretrained, _ = load_pretrained(emb_path, lexicon, 16)
    cfg = small_config(gcn_layers=GCN_LAYERS[mode], epochs=120,
                       early_stop_f1=0.95)
    run_dir = out_dir / mode.replace("+", "_")
    result = train(sentences, sentences, cfg, run_dir, lexicon=lexicon,
                   pretrained=pretrained)
    reached = [m.epoch for m in result.history if m.dev_f1 >= 0.95]
    model = SrlModel.from_checkpoint(result.best_checkpoint, cfg, lexicon)
    return StructuralRun(mode, reached[0] if reached else None, model,
                         run_dir, result.best_f1)


@pytest.fixture(scope="session")
def structural_runs(structural_sentences, tmp_path_factory):
    """Both encoders trained on the long-range corpus, same seed/config."""
    out = tmp_path_factory.mktemp("structural")
    return {mode: _train_structural(mode, structural_sentences, out)
            for mode in ("lstm+gcn", "lstm")}
