"""Syntax-aware semantic role labeling with a gated graph-convolutional
encoder stacked on a bidirectional LSTM, trained on CoNLL-2009-format data.

Everything runs on a small numpy-backed tensor core with reverse-mode
autodiff (:mod:`syngcn.numerics`); see the README and demos/ for tours.
"""

from . import (bilstm, classifier, cli, conll, embedder, evaluator, fixtures,
               gcn, numerics, syngraph, trainer, workers)
from .conll import Lexicon, Sentence, Token, build_lexicon, parse_conll, write_conll
from .numerics import Tape, Tensor, adam_step, grad_check
from .trainer import SrlModel, TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "Lexicon", "Sentence", "SrlModel", "Tape", "Tensor", "Token",
    "TrainConfig", "adam_step", "bilstm", "build_lexicon", "classifier",
    "cli", "conll", "embedder", "evaluator", "fixtures", "gcn", "grad_check",
    "numerics", "parse_conll", "syngraph", "train", "trainer", "workers",
    "write_conll",
]
