import numpy as np
import pytest

from syngcn import numerics as nm
from syngcn.classifier import (classifier_layout, classifier_params,
                               init_classifier, predict_arguments,
                               role_logits)
from syngcn.conll import build_lexicon
from syngcn.errors import NumericsError

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


def stored_params(lexicon, m=4, d_l_out=3, d_r=3, seed=0, dtype=np.float32):
    """Freshly drawn classifier tensors in a store laid out by
    ``classifier_layout``: (params, store)."""
    store = nm.ParamStore(classifier_layout(m, d_l_out, d_r, lexicon), dtype)
    params = classifier_params(store)
    init_classifier(params, np.random.default_rng(seed))
    return params, store


def params_for(lexicon, **kwargs):
    return stored_params(lexicon, **kwargs)[0]


def role_weights_oracle(lemma_id, params):
    """relu((lemma ++ role) @ transform) per role, in float64."""
    lemma = params.lemma_table.data[lemma_id].astype(np.float64)
    transform = params.pair_transform.data.astype(np.float64)
    return np.stack([
        np.maximum(np.concatenate([lemma, role.astype(np.float64)]) @ transform,
                   0.0)
        for role in params.role_table.data])


FUSED_ROLE_LOGITS = nm.role_logits


def per_op_role_logits(encoded, predicate_row, lemma, lemma_id, roles,
                       transform):
    """``nm.role_logits`` as the per-op chain it replaced: each tiling a
    ``matmul`` of a ones column by a ``rows`` gather, each pairing a
    ``concat``, then ``relu``, ``transpose`` and the scoring ``matmul``."""
    n, r = encoded.shape[0], roles.shape[0]
    tiled_p = nm.matmul(nm.Tensor(np.ones((n, 1)), dtype=encoded.dtype),
                        nm.rows(encoded, [predicate_row]))
    paired = nm.concat([encoded, tiled_p], axis=1)                # [n x 2m]
    tiled_lemma = nm.matmul(nm.Tensor(np.ones((r, 1)), dtype=lemma.dtype),
                            nm.rows(lemma, [lemma_id]))
    pair = nm.concat([tiled_lemma, roles], axis=1)
    weights = nm.relu(nm.matmul(pair, transform))                 # [R x 2m]
    return nm.matmul(paired, nm.transpose(weights))


def logits_of(params, encoded_np, predicate_row=1, lemma_id=1):
    return role_logits(nm.Tensor(encoded_np), predicate_row, lemma_id,
                       params).data


class TestRoleWeight:
    """The role score vectors, seen through the logits they give."""

    def test_zero_transform_gives_zero_vectors(self, lexicon):
        params = params_for(lexicon)
        params.pair_transform.data[:] = 0.0
        encoded = np.random.default_rng(0).standard_normal((3, 4))
        logits = logits_of(params, encoded.astype(np.float32))
        assert np.array_equal(logits,
                              np.zeros((3, params.role_table.shape[0])))

    def test_identical_role_embeddings_identical_weights(self, lexicon):
        params = params_for(lexicon)
        params.role_table.data[2] = params.role_table.data[1]
        encoded = np.random.default_rng(1).standard_normal((3, 4))
        logits = logits_of(params, encoded.astype(np.float32), lemma_id=0)
        assert np.array_equal(logits[:, 1], logits[:, 2])

    def test_matches_concat_matmul_relu_oracle(self, lexicon):
        params = params_for(lexicon, seed=3)
        encoded = np.random.default_rng(2).standard_normal((3, 4)).astype(
            np.float32)
        paired = np.concatenate([encoded, np.tile(encoded[1], (3, 1))],
                                axis=1).astype(np.float64)
        for lemma_id in range(params.lemma_table.shape[0]):
            got = logits_of(params, encoded, lemma_id=lemma_id)
            want = paired @ role_weights_oracle(lemma_id, params).T
            assert np.abs(got - want).max() < 1e-7

    def test_nonnegative(self, lexicon):
        # non-negative vectors: states of one sign give logits of that sign
        params = params_for(lexicon, seed=4)
        states = np.abs(np.random.default_rng(3).standard_normal((3, 4)))
        assert (logits_of(params, states.astype(np.float32)) >= 0).all()
        assert (logits_of(params, -states.astype(np.float32)) <= 0).all()


class TestFusedHead:
    """``nm.role_logits`` against ``per_op_role_logits``, byte for byte."""

    def tensors(self, lexicon, leaves, dtype):
        """The head's inputs, drawn from one seed: (encoded, params, store);
        ``leaves`` says which need gradients and where they collect."""
        # enough rows that summing them in another order rounds differently
        n, m = 37, 4
        layout = [("encoded", (n, m)), *classifier_layout(m, 3, 3, lexicon)]
        store = nm.ParamStore(layout, dtype)
        rng = np.random.default_rng(11)
        for name in store:
            store[name].data[...] = rng.uniform(-1, 1, store[name].shape)
        if leaves == "store":
            store.enable_grad()
            return store["encoded"], classifier_params(store), store
        trained = {"plain": ("encoded", "cls.pair_transform", "cls.lemma",
                             "cls.role"),
                   "encoded only": ("encoded",),
                   "params only": ("cls.pair_transform", "cls.lemma",
                                   "cls.role")}[leaves]
        plain = {name: nm.Tensor(t.data.copy(), name=name,
                                 trainable=name in trained)
                 for name, t in store.items()}
        return plain["encoded"], classifier_params(plain), None

    def run(self, op, lexicon, leaves, dtype, monkeypatch):
        """Logits with the predicate in the first and in the last row, each
        pass's gradients added into the same leaves: (logits, gradients)."""
        monkeypatch.setattr(nm, "role_logits", op)
        encoded, params, store = self.tensors(lexicon, leaves, dtype)
        outs = []
        for p_row in (0, encoded.shape[0] - 1):
            with nm.Tape() as tape:
                logits = role_logits(encoded, p_row, 1, params)
                loss = nm.cross_entropy_rows(logits, np.arange(37) % 3)
            tape.gradients(loss)
            outs.append(logits.data.tobytes())
        if store is not None:
            return outs, [store.gradients().flat.tobytes()]
        return outs, [None if t.grad is None else t.grad.tobytes()
                      for t in (encoded, params.pair_transform,
                                params.lemma_table, params.role_table)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("leaves", ["store", "plain", "encoded only",
                                        "params only"])
    def test_matches_per_op_chain(self, lexicon, leaves, dtype, monkeypatch):
        got = self.run(FUSED_ROLE_LOGITS, lexicon, leaves, dtype, monkeypatch)
        want = self.run(per_op_role_logits, lexicon, leaves, dtype,
                        monkeypatch)
        assert got == want
        assert None not in got[1] or leaves in ("encoded only", "params only")

    def test_one_tape_node(self, lexicon):
        encoded, params, _ = self.tensors(lexicon, "plain", np.float32)
        with nm.Tape() as tape:
            role_logits(encoded, 2, 1, params)
        assert len(tape._nodes) == 1

    def test_relu_input_is_probed(self, lexicon, monkeypatch):
        encoded, params, _ = self.tensors(lexicon, "plain", np.float64)
        probed = []
        for op in (FUSED_ROLE_LOGITS, per_op_role_logits):
            monkeypatch.setattr(nm, "role_logits", op)
            with nm._ReluProbe():
                role_logits(encoded, 2, 1, params)
                probed.append([r.tobytes() for r in nm._RELU_PROBE])
        assert len(probed[0]) == 1 and probed[0] == probed[1]

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul"
                                ":RuntimeWarning")
    def test_overflow_before_relu_names_role_logits(self, lexicon,
                                                    monkeypatch):
        # pair @ transform overflows to -inf, which ReLU would turn into 0
        params = params_for(lexicon)
        params.lemma_table.data[:] = 1e30
        params.pair_transform.data[:] = -1e30
        encoded = nm.Tensor(np.ones((3, 4), np.float32))
        with pytest.raises(NumericsError, match="by role_logits$"):
            role_logits(encoded, 1, 1, params)
        monkeypatch.setattr(nm, "role_logits", per_op_role_logits)
        with pytest.raises(NumericsError, match="by matmul$"):
            role_logits(encoded, 1, 1, params)


class TestScoreRoles:
    """Role distributions as ``predict_arguments`` returns them."""

    def test_zero_transform_gives_uniform(self, lexicon):
        params = params_for(lexicon)
        params.pair_transform.data[:] = 0.0
        t = nm.Tensor(np.random.default_rng(0).standard_normal((1, 4))
                      .astype(np.float32))
        _, dists = predict_arguments(t, 0, 1, params)
        assert np.allclose(dists, 1.0 / params.role_table.shape[0])

    def test_dominating_logit_saturates(self, lexicon):
        params = params_for(lexicon)
        n_roles = params.role_table.shape[0]
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
        params, store = stored_params(lexicon, seed=6, dtype=np.float64)
        rng = np.random.default_rng(2)
        encoded = nm.Tensor(rng.standard_normal((3, 4)), dtype=np.float64)

        def f():
            logits = role_logits(encoded, 1, 1, params)
            return nm.cross_entropy_rows(logits, [1, 0, 2])

        result = nm.grad_check(f, store)
        assert result.max_rel_err < 1e-4


class TestPredictArguments:
    def test_uniform_ties_break_to_null(self, lexicon):
        params = params_for(lexicon)
        params.pair_transform.data[:] = 0.0
        encoded = nm.Tensor(np.random.default_rng(3).standard_normal((5, 4))
                            .astype(np.float32))
        roles, dists = predict_arguments(encoded, 2, 1, params)
        assert np.array_equal(roles, np.zeros(5, dtype=np.intp))
        assert np.allclose(dists, 1.0 / params.role_table.shape[0])

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
