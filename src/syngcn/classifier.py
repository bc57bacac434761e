"""Predicate-conditioned role scoring.

The score vector for (predicate lemma l, role r) is built on demand as
ReLU(transform @ (lemma_emb(l) ++ role_emb(r))); the logit for token i is
its dot product with (t_i ++ t_predicate). Decisions are per-token and
conditionally independent; NULL (id 0) means "not an argument" and wins
ties, so all-zero scores predict no arguments at all. An instance's logits
are one ``numerics.role_logits`` op, which builds every role's score vector
and scores every token against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .conll import Lexicon


@dataclass
class ClassifierParams:
    pair_transform: nm.Tensor   # [(d_l_out + d_r) x 2m]
    lemma_table: nm.Tensor      # [plemma-vocab x d_l_out]
    role_table: nm.Tensor       # [num-roles x d_r], NULL included at row 0


def classifier_layout(encoded_width: int, d_l_out: int, d_r: int,
                      lexicon: Lexicon) -> nm.Layout:
    """``encoded_width`` is the width m of one encoder state; the transform
    output is 2m for the (argument ++ predicate) concatenation."""
    return [("cls.pair_transform", (d_l_out + d_r, 2 * encoded_width)),
            ("cls.lemma", (lexicon.size("plemma"), d_l_out)),
            ("cls.role", (lexicon.size("role"), d_r))]


def classifier_params(tensors) -> ClassifierParams:
    return ClassifierParams(tensors["cls.pair_transform"],
                            tensors["cls.lemma"], tensors["cls.role"])


def init_classifier(params: ClassifierParams,
                    rng: np.random.Generator) -> None:
    """Uniform [-0.05, 0.05] transform, [-0.01, 0.01] lemma and role tables."""
    for t, bound in ((params.pair_transform, 0.05), (params.lemma_table, 0.01),
                     (params.role_table, 0.01)):
        nm.fill_uniform(t.data, bound, rng)


def role_logits(encoded: nm.Tensor, predicate_index: int, lemma_id: int,
                params: ClassifierParams) -> nm.Tensor:
    """[n x num_roles] logits for every token against every role, as one
    ``nm.role_logits`` op."""
    return nm.role_logits(encoded, predicate_index, params.lemma_table,
                          lemma_id, params.role_table, params.pair_transform)


def predict_arguments(encoded: nm.Tensor, predicate_index: int, lemma_id: int,
                      params: ClassifierParams
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-token argmax role ids and the full [n x num_roles] distributions.

    Ties break toward the lowest role id, i.e. toward NULL.
    """
    logits = role_logits(encoded, predicate_index, lemma_id, params)
    dists = nm.softmax_rows(logits.data)
    return dists.argmax(axis=1), dists
