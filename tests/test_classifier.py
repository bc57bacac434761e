import numpy as np
import pytest

from syngcn import numerics as nm
from syngcn.classifier import (init_classifier, predict_arguments,
                               role_logits, role_weights)
from syngcn.conll import build_lexicon

from conftest import parse_text
from test_conll import make_sentence


@pytest.fixture()
def lexicon():
    text = make_sentence(
        [("she", "she", "PRP", 2, "SBJ", "_", "_"),
         ("sells", "sell", "VBZ", 0, "ROOT", "Y", "sell.01"),
         ("shells", "shell", "NNS", 2, "OBJ", "_", "_")],
        apreds_per_row=[["A0"], ["_"], ["A1"]])
    return build_lexicon(parse_text(text))


def params_for(lexicon, m=4, d_l_out=3, d_r=3, seed=0, dtype=np.float32):
    return init_classifier(m, d_l_out, d_r, lexicon,
                           np.random.default_rng(seed), dtype)


def role_weights_oracle(lemma_id, params):
    """relu((lemma ++ role) @ transform) per role, in float64."""
    lemma = params.lemma_table.data[lemma_id].astype(np.float64)
    transform = params.pair_transform.data.astype(np.float64)
    return np.stack([
        np.maximum(np.concatenate([lemma, role.astype(np.float64)]) @ transform,
                   0.0)
        for role in params.role_table.data])


class TestRoleWeight:
    def test_zero_transform_gives_zero_vectors(self, lexicon):
        params = params_for(lexicon)
        params.pair_transform.data[:] = 0.0
        w = role_weights(1, params)
        assert np.array_equal(w.data, np.zeros((params.num_roles, 8)))

    def test_identical_role_embeddings_identical_weights(self, lexicon):
        params = params_for(lexicon)
        params.role_table.data[2] = params.role_table.data[1]
        w = role_weights(0, params).data
        assert np.array_equal(w[1], w[2])

    def test_matches_concat_matmul_relu_oracle(self, lexicon):
        params = params_for(lexicon, seed=3)
        for lemma_id in range(params.lemma_table.shape[0]):
            got = role_weights(lemma_id, params).data
            want = role_weights_oracle(lemma_id, params)
            assert np.abs(got - want).max() < 1e-7

    def test_nonnegative(self, lexicon):
        params = params_for(lexicon, seed=4)
        assert (role_weights(1, params).data >= 0).all()


class TestScoreRoles:
    """Role distributions as ``predict_arguments`` returns them."""

    def test_zero_transform_gives_uniform(self, lexicon):
        params = params_for(lexicon)
        params.pair_transform.data[:] = 0.0
        t = nm.Tensor(np.random.default_rng(0).standard_normal((1, 4))
                      .astype(np.float32))
        _, dists = predict_arguments(t, 0, 1, params)
        assert np.allclose(dists, 1.0 / params.num_roles)

    def test_dominating_logit_saturates(self, lexicon):
        params = params_for(lexicon)
        n_roles = params.num_roles
        # weight vectors one-hot per role over a 2m=8 feature space,
        # encoder states picked so role 1's logit dominates by ~50
        params.pair_transform.data[:] = 0.0
        params.lemma_table.data[:] = 0.0
        params.role_table.data[:] = np.eye(n_roles, 3)
        params.pair_transform.data[:] = 0.0
        for r in range(n_roles):
            params.pair_transform.data[params.lemma_table.shape[1] + r, r] = 1.0
        # token 0 is the argument, token 1 the (all-zero) predicate
        encoded = nm.Tensor(np.array([[50.0, 0.0, 0.0, 0.0], [0.0] * 4],
                                     dtype=np.float32))
        _, dists = predict_arguments(encoded, 1, 0, params)
        assert dists[0, 0] > 0.999

    def test_distribution_sums_to_one(self, lexicon):
        params = params_for(lexicon, seed=5)
        rng = np.random.default_rng(1)
        encoded = nm.Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        _, dists = predict_arguments(encoded, 1, 1, params)
        np.testing.assert_allclose(dists.sum(axis=1), 1.0, atol=1e-6)
        assert (dists >= 0).all()

    def test_gradient_check_through_scorer(self, lexicon):
        params = params_for(lexicon, seed=6, dtype=np.float64)
        rng = np.random.default_rng(2)
        encoded = nm.Tensor(rng.standard_normal((3, 4)), dtype=np.float64)

        def f():
            logits = role_logits(encoded, 1, 1, params)
            return nm.cross_entropy_rows(logits, [1, 0, 2])

        result = nm.grad_check(f, params.tensors())
        assert result.max_rel_err < 1e-4


class TestPredictArguments:
    def test_uniform_ties_break_to_null(self, lexicon):
        params = params_for(lexicon)
        params.pair_transform.data[:] = 0.0
        encoded = nm.Tensor(np.random.default_rng(3).standard_normal((5, 4))
                            .astype(np.float32))
        roles, dists = predict_arguments(encoded, 2, 1, params)
        assert np.array_equal(roles, np.zeros(5, dtype=np.intp))
        assert np.allclose(dists, 1.0 / params.num_roles)

    def test_argmax_invariant_under_logit_shift(self, lexicon):
        params = params_for(lexicon, seed=7)
        rng = np.random.default_rng(4)
        encoded = nm.Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        logits = role_logits(encoded, 0, 1, params).data
        shifted = logits + 3.7
        assert np.array_equal(logits.argmax(axis=1), shifted.argmax(axis=1))

    def test_locality_across_tokens(self, lexicon):
        # token i's distribution depends only on (t_i, t_p, lemma):
        # shuffling the other rows changes nothing at i
        params = params_for(lexicon, seed=8)
        rng = np.random.default_rng(5)
        base = rng.standard_normal((6, 4)).astype(np.float32)
        p_row, i_row = 2, 4
        _, dists = predict_arguments(nm.Tensor(base.copy()), p_row, 1, params)
        shuffled = base.copy()
        others = [r for r in range(6) if r not in (p_row, i_row)]
        shuffled[others] = base[list(reversed(others))]
        _, dists2 = predict_arguments(nm.Tensor(shuffled), p_row, 1, params)
        assert np.array_equal(dists[i_row], dists2[i_row])
        assert np.array_equal(dists[p_row], dists2[p_row])

    def test_matches_single_pair_scorer(self, lexicon):
        # each token scored on its own, (t_i ++ t_p) against every role's
        # weight vector, in float64
        params = params_for(lexicon, seed=9)
        rng = np.random.default_rng(6)
        encoded_np = rng.standard_normal((4, 4)).astype(np.float32)
        _, dists = predict_arguments(nm.Tensor(encoded_np), 1, 1, params)
        weights = role_weights_oracle(1, params)
        for i in range(4):
            paired = np.concatenate([encoded_np[i], encoded_np[1]]).astype(
                np.float64)
            logits = weights @ paired
            single = np.exp(logits - logits.max())
            single /= single.sum()
            assert np.abs(single - dists[i]).max() < 1e-6
