"""Predicate-conditioned role scoring.

The score vector for (predicate lemma l, role r) is built on demand as
ReLU(transform @ (lemma_emb(l) ++ role_emb(r))); the logit for token i is
its dot product with (t_i ++ t_predicate). Decisions are per-token and
conditionally independent; NULL (id 0) means "not an argument" and wins
ties, so all-zero scores predict no arguments at all.
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

    @property
    def num_roles(self) -> int:
        return self.role_table.shape[0]


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
        t.data[...] = rng.uniform(-bound, bound, t.shape)


def _pair_matrix(lemma_id: int, params: ClassifierParams) -> nm.Tensor:
    """[num_roles x (d_l_out + d_r)]: the lemma row tiled against every role."""
    r = params.num_roles
    lemma_vec = nm.rows(params.lemma_table, [lemma_id])
    ones = nm.Tensor(np.ones((r, 1)), dtype=lemma_vec.dtype)
    return nm.concat([nm.matmul(ones, lemma_vec), params.role_table], axis=1)


def role_weights(lemma_id: int, params: ClassifierParams) -> nm.Tensor:
    """[num_roles x 2m] non-negative score vectors, one per role, for a lemma."""
    return nm.relu(_pair_matrix(lemma_id, params) @ params.pair_transform)


def role_logits(encoded: nm.Tensor, predicate_index: int, lemma_id: int,
                params: ClassifierParams) -> nm.Tensor:
    """[n x num_roles] logits for every token against every role."""
    n = encoded.shape[0]
    t_p = nm.rows(encoded, [predicate_index])
    ones = nm.Tensor(np.ones((n, 1)), dtype=encoded.dtype)
    paired = nm.concat([encoded, nm.matmul(ones, t_p)], axis=1)   # [n x 2m]
    return paired @ nm.transpose(role_weights(lemma_id, params))


def predict_arguments(encoded: nm.Tensor, predicate_index: int, lemma_id: int,
                      params: ClassifierParams
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Per-token argmax role ids and the full [n x num_roles] distributions.

    Ties break toward the lowest role id, i.e. toward NULL.
    """
    logits = role_logits(encoded, predicate_index, lemma_id, params)
    dists = nm.softmax_rows(logits.data)
    return dists.argmax(axis=1), dists
