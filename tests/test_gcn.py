import numpy as np
import pytest

from syngcn import numerics as nm
from syngcn.conll import build_lexicon
from syngcn.errors import NumericsError
from syngcn.gcn import (GcnStack, gcn_layer, gcn_stack_forward,
                        init_gcn_layer, init_gcn_stack, plain_gcn_layer)
from syngcn.syngraph import (Direction, Edge, SyntacticGraph, build_graph,
                             disjoint_union)

from conftest import parse_text
from test_conll import make_sentence
from test_syngraph import by_direction


def random_tree_sentence(n: int, rng: np.random.Generator, num_rels: int = 4):
    """A random n-token dependency tree as CoNLL text."""
    rows = []
    for i in range(1, n + 1):
        head = 0 if i == 1 else int(rng.integers(1, i))
        rel = "ROOT" if head == 0 else f"r{rng.integers(0, num_rels)}"
        rows.append((f"w{i}", f"w{i}", "N", head, rel, "_", "_"))
    return make_sentence(rows)


def random_graph(n: int, rng: np.random.Generator, num_rels: int = 4):
    sents = parse_text(random_tree_sentence(n, rng, num_rels))
    lex = build_lexicon(sents)
    return build_graph(sents[0], lex), lex


def sigmoid64(x):
    return 1.0 / (1.0 + np.exp(-x))


def gcn_layer_oracle(h: np.ndarray, graph: SyntacticGraph, params,
                     gates_enabled: bool = True) -> np.ndarray:
    """Per-edge loop in float64, independent of the vectorized path."""
    n, m = h.shape
    h64 = h.astype(np.float64)
    out = np.zeros((n, m), dtype=np.float64)
    for e in graph.edges:
        weight = params.weights[e.direction].data.astype(np.float64)
        bias = params.label_bias.data[e.label_id].astype(np.float64)
        message = h64[e.src] @ weight + bias
        if gates_enabled:
            gw = params.gate_weights[e.direction].data[0].astype(np.float64)
            gb = float(params.gate_label_bias.data[e.label_id, 0])
            message = message * sigmoid64(h64[e.src] @ gw + gb)
        out[e.dst] += message
    return np.maximum(out, 0.0)


def layer_for(graph, width, rng, dtype=np.float32):
    return init_gcn_layer("g", width, graph.num_labels, rng, dtype)


class TestGate:
    """The edge gates, observed through ``gcn_layer`` against the same layer
    with gates disabled."""

    def test_zero_inputs_give_half(self):
        # zero gate weights and biases: every message is scaled by exactly
        # 1/2, and ReLU commutes with a positive scale
        rng = np.random.default_rng(0)
        graph, _ = random_graph(4, rng)
        params = layer_for(graph, 4, rng)
        for d in Direction:
            params.gate_weights[d].data[:] = 0.0
        params.gate_label_bias.data[:] = 0.0
        h = nm.Tensor(rng.standard_normal((4, 4)).astype(np.float32))
        gated = gcn_layer(h, graph, params).data
        ungated = gcn_layer(h, graph, params, gates_enabled=False).data
        assert np.array_equal(gated, 0.5 * ungated)

    def test_saturated_bias_opens_gate(self):
        rng = np.random.default_rng(1)
        graph, _ = random_graph(4, rng)
        params = layer_for(graph, 4, rng)
        params.gate_label_bias.data[:] = 50.0
        h = nm.Tensor(rng.uniform(-0.1, 0.1, (4, 4)).astype(np.float32))
        gated = gcn_layer(h, graph, params).data
        ungated = gcn_layer(h, graph, params, gates_enabled=False).data
        np.testing.assert_allclose(gated, ungated, rtol=1e-6, atol=0)
        assert (np.abs(gated) <= np.abs(ungated)).all()


    def test_matches_scalar_oracle(self):
        # one edge at a time, with a zero weight and a unit bias: the message
        # is exactly 1, so the destination row holds the gate value itself
        rng = np.random.default_rng(2)
        graph, _ = random_graph(3, rng)
        params = layer_for(graph, 5, rng)
        for d in Direction:
            params.weights[d].data[:] = 0.0
        params.label_bias.data[:] = 1.0
        h = rng.standard_normal((3, 5)).astype(np.float32)
        for edge in graph.edges:
            single = SyntacticGraph(3, [edge], graph.num_labels)
            got = gcn_layer(nm.Tensor(h), single, params).data[edge.dst]
            logit = sum(float(h[edge.src, k]) *
                        float(params.gate_weights[edge.direction].data[0, k])
                        for k in range(5))
            logit += float(params.gate_label_bias.data[edge.label_id, 0])
            np.testing.assert_allclose(got, sigmoid64(logit), rtol=0,
                                       atol=1e-7)

class TestGcnLayer:
    def test_single_node_bias_times_half_gate(self):
        graph = SyntacticGraph(1, [Edge(0, 0, Direction.SELF, 0, -1)], 3)
        rng = np.random.default_rng(3)
        params = layer_for(graph, 4, rng)
        params.weights[Direction.SELF].data[:] = 0.0
        params.label_bias.data[:] = 1.0
        params.gate_weights[Direction.SELF].data[:] = 0.0
        params.gate_label_bias.data[:] = 0.0
        h = nm.Tensor(np.zeros((1, 4), dtype=np.float32))
        out = gcn_layer(h, graph, params)
        assert np.allclose(out.data, 0.5)

    def test_vectorized_matches_per_edge_oracle(self):
        rng = np.random.default_rng(4)
        graph, _ = random_graph(6, rng)
        params = layer_for(graph, 7, rng)
        params.label_bias.data[:] = rng.uniform(-0.1, 0.1,
                                                params.label_bias.shape)
        params.gate_label_bias.data[:] = rng.uniform(
            -0.1, 0.1, params.gate_label_bias.shape)
        h = rng.uniform(-1, 1, (6, 7)).astype(np.float32)
        got = gcn_layer(nm.Tensor(h), graph, params).data
        want = gcn_layer_oracle(h, graph, params)
        assert np.abs(got - want).max() < 1e-6

    def test_reduction_to_untyped_layer(self):
        # unit gates + one shared weight/bias collapses the typed gated layer
        # to the plain one
        rng = np.random.default_rng(5)
        graph, _ = random_graph(5, rng)
        m = 6
        params = layer_for(graph, m, rng)
        shared_w = rng.uniform(-0.3, 0.3, (m, m)).astype(np.float32)
        shared_b = rng.uniform(-0.3, 0.3, (1, m)).astype(np.float32)
        for d in Direction:
            params.weights[d].data[:] = shared_w
        params.label_bias.data[:] = shared_b
        h = rng.uniform(-1, 1, (5, m)).astype(np.float32)
        gated = gcn_layer(nm.Tensor(h), graph, params, gates_enabled=False)
        plain = plain_gcn_layer(nm.Tensor(h), graph, nm.Tensor(shared_w),
                                nm.Tensor(shared_b))
        assert np.abs(gated.data - plain.data).max() < 1e-6

    def test_forced_closed_gate_removes_contribution(self):
        rng = np.random.default_rng(6)
        graph, lex = random_graph(4, rng)
        params = layer_for(graph, 5, rng)
        target = next(e for e in graph.edges if e.direction == Direction.ALONG)
        # drive this label's gate to ~0; compare against physically removing it
        params.gate_label_bias.data[target.label_id, 0] = -60.0
        h = rng.uniform(0.1, 1, (4, 5)).astype(np.float32)
        closed = gcn_layer(nm.Tensor(h), graph, params).data
        without = SyntacticGraph(
            graph.n, [e for e in graph.edges if e.label_id != target.label_id],
            graph.num_labels)
        removed = gcn_layer(nm.Tensor(h), without, params).data
        assert np.abs(closed - removed).max() < 1e-6

    def test_empty_neighborhood_outputs_zero(self):
        graph = SyntacticGraph(2, [Edge(0, 0, Direction.SELF, 0, -1)], 3)
        rng = np.random.default_rng(7)
        params = layer_for(graph, 4, rng)
        h = rng.standard_normal((2, 4)).astype(np.float32)
        out = gcn_layer(nm.Tensor(h), graph, params).data
        assert np.array_equal(out[1], np.zeros(4))

    def test_parameter_sharing_shape(self):
        # 3 direction matrices however many labels there are; biases and
        # gate scalars carry the label space
        rng = np.random.default_rng(8)
        graph, lex = random_graph(5, rng, num_rels=4)
        params = layer_for(graph, 6, rng)
        assert len(params.weights) == 3
        labels = 2 * lex.num_deprels + 1
        assert params.label_bias.shape == (labels, 6)
        assert params.gate_label_bias.shape == (labels, 1)
        assert len(params.gate_weights) == 3
        matrices = [t for t in params.tensors().values()
                    if t.data.ndim == 2 and t.data.shape == (6, 6)]
        assert len(matrices) == 3


def tree_distances(graph: SyntacticGraph) -> np.ndarray:
    """All-pairs hop distance over the undirected tree."""
    n = graph.n
    adj = {v: set() for v in range(n)}
    for e in graph.edges:
        if e.direction == Direction.ALONG:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
    dist = np.full((n, n), 99, dtype=int)
    for start in range(n):
        dist[start, start] = 0
        frontier = [start]
        d = 0
        seen = {start}
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        dist[start, v] = d
                        nxt.append(v)
            frontier = nxt
    return dist


class TestStack:
    def test_depth_zero_is_identity(self):
        stack = GcnStack(layers=[])
        h = nm.Tensor(np.random.default_rng(0).standard_normal((3, 4))
                      .astype(np.float32))
        out = gcn_stack_forward(h, None, stack)
        assert out is h

    @pytest.mark.parametrize("k", [1, 2])
    def test_receptive_field_exact(self, k):
        # positive inputs/weights keep every unit alive, so a perturbation
        # must show up at exactly the <= k-hop nodes and nowhere else
        rng = np.random.default_rng(9 + k)
        graph, lex = random_graph(7, rng)
        stack = init_gcn_stack(k, 5, graph.num_labels, 5, rng)
        for layer in stack.layers:
            for d in Direction:
                layer.weights[d].data[:] = rng.uniform(0.02, 0.1, (5, 5))
            layer.label_bias.data[:] = 0.1
        base = rng.uniform(0.5, 1.0, (7, 5)).astype(np.float32)
        out_base = gcn_stack_forward(nm.Tensor(base.copy()), graph, stack).data
        dist = tree_distances(graph)
        for w in range(7):
            perturbed = base.copy()
            perturbed[w] += 0.5
            out = gcn_stack_forward(nm.Tensor(perturbed), graph, stack).data
            for v in range(7):
                changed = not np.array_equal(out[v], out_base[v])
                assert changed == (dist[w, v] <= k), \
                    f"K={k}: node {v} at distance {dist[w, v]} from {w}"

    def test_projection_when_widths_differ(self):
        rng = np.random.default_rng(12)
        graph, _ = random_graph(4, rng)
        stack = init_gcn_stack(1, 6, graph.num_labels, 10, rng)
        assert stack.input_projection is not None
        h = nm.Tensor(rng.standard_normal((4, 10)).astype(np.float32))
        assert gcn_stack_forward(h, graph, stack).shape == (4, 6)

    def test_dropout_resampled_per_layer(self):
        rng = np.random.default_rng(13)
        graph, _ = random_graph(6, rng)
        stack = init_gcn_stack(2, 4, graph.num_labels, 4, rng)
        h = nm.Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        # two stacked layers with beta=1: everything is zero either way,
        # but the call must consume two dropout draws from the stream
        stream = np.random.default_rng(14)
        gcn_stack_forward(h, graph, stack, training=True, beta=0.5, rng=stream)
        after_two = stream.random()
        stream2 = np.random.default_rng(14)
        stream2.random(len(graph.edges))
        stream2.random(len(graph.edges))
        assert after_two == stream2.random()

    def test_full_stack_gradient_check(self):
        rng = np.random.default_rng(15)
        graph, _ = random_graph(4, rng)
        stack = init_gcn_stack(2, 4, graph.num_labels, 4, rng,
                               dtype=np.float64)
        h = nm.Tensor(rng.standard_normal((4, 4)), dtype=np.float64)
        result = nm.grad_check(
            lambda: nm.sum_all(gcn_stack_forward(h, graph, stack)),
            stack.tensors())
        assert result.max_rel_err < 1e-4


class TestDisjointUnion:
    def test_union_layer_is_bitwise_per_graph(self):
        # every graph has at least two nodes: a one-row state matrix takes
        # numpy's matrix-vector product, which may round differently
        rng = np.random.default_rng(30)
        sizes = [5, 2, 8, 3]
        sents = parse_text("".join(random_tree_sentence(n, rng)
                                   for n in sizes))
        lex = build_lexicon(sents)
        graphs = [build_graph(s, lex) for s in sents]
        params = layer_for(graphs[0], 16, rng)
        params.label_bias.data[:] = rng.uniform(-0.1, 0.1,
                                                params.label_bias.shape)
        params.gate_label_bias.data[:] = rng.uniform(
            -0.1, 0.1, params.gate_label_bias.shape)
        states = [rng.uniform(-1, 1, (n, 16)).astype(np.float32)
                  for n in sizes]
        union = gcn_layer(nm.Tensor(np.vstack(states)),
                          disjoint_union(graphs), params).data
        alone = [gcn_layer(nm.Tensor(h), g, params).data
                 for h, g in zip(states, graphs)]
        assert union.tobytes() == np.vstack(alone).tobytes()


def per_op_gcn_layer(h, graph, params, gates_enabled=True):
    """The gated layer built from one ``nm`` op per step and direction, on
    the same weights: the reference ``nm.graph_conv`` must round like."""
    n, m = h.shape
    acc = None
    for direction, (src, dst, labels) in by_direction(graph).items():
        if len(src) == 0:
            continue
        transformed = h @ params.weights[direction]
        messages = nm.rows(transformed, src) + nm.rows(params.label_bias, labels)
        if gates_enabled:
            logits = nm.sum_axis1(nm.rows(h, src) * params.gate_weights[direction]) \
                + nm.rows(params.gate_label_bias, labels)
            messages = messages * nm.sigmoid(logits)
        summed = nm.segment_sum(messages, dst, n)
        acc = summed if acc is None else acc + summed
    if acc is None:
        acc = nm.constant(np.zeros((n, m)), dtype=h.dtype)
    return nm.relu(acc)


def without_direction(graph, direction):
    return SyntacticGraph(graph.n, [e for e in graph.edges
                                    if e.direction != direction],
                          graph.num_labels)


def oracle_graphs():
    """name -> (graph, state rows): a tree, the tree with no along edges or
    with no edges at all, and a disjoint union of four trees."""
    rng = np.random.default_rng(40)
    tree, lex = random_graph(7, rng)
    sents = parse_text("".join(random_tree_sentence(n, rng) for n in (5, 2, 8)))
    forest = [build_graph(s, build_lexicon(sents)) for s in sents]
    return {"tree": tree,
            "no along": without_direction(tree, Direction.ALONG),
            "only self": without_direction(without_direction(
                tree, Direction.ALONG), Direction.OPPOSITE),
            "no edges": SyntacticGraph(7, [], tree.num_labels),
            "union": disjoint_union(forest)}


ORACLE_GRAPHS = oracle_graphs()


def run_layers(layer_fn, graph, depth, dtype, gates_enabled):
    """Output and gradients (every layer tensor and the input ``h``) of
    sum(stack(h) @ proj) under ``layer_fn``, on weights fixed by seed."""
    rng = np.random.default_rng(41)
    m = 6
    stack = init_gcn_stack(depth, m, graph.num_labels, m, rng, dtype=dtype)
    for layer in stack.layers:
        layer.label_bias.data[:] = rng.uniform(-0.5, 0.5, layer.label_bias.shape)
        layer.gate_label_bias.data[:] = rng.uniform(
            -0.5, 0.5, layer.gate_label_bias.shape)
    h = nm.parameter("h", rng.uniform(-1, 1, (graph.n, m)), dtype)
    proj = nm.constant(rng.standard_normal((m, 1)), dtype=dtype)
    with nm.Tape() as tape:
        out = h
        for layer in stack.layers:
            out = layer_fn(out, graph, layer, gates_enabled)
        grads = tape.gradients(nm.sum_all(out @ proj))
    return out.data, grads


class TestFusedMatchesPerOp:
    @pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
    @pytest.mark.parametrize("gates_enabled", [True, False],
                             ids=["gated", "ungated"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_float64_forward_and_gradients(self, name, gates_enabled, depth):
        graph = ORACLE_GRAPHS[name]
        got, got_grads = run_layers(gcn_layer, graph, depth, np.float64,
                                    gates_enabled)
        want, want_grads = run_layers(per_op_gcn_layer, graph, depth,
                                      np.float64, gates_enabled)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        assert list(got_grads) == list(want_grads)
        for key in want_grads:
            np.testing.assert_allclose(got_grads[key], want_grads[key],
                                       rtol=1e-10, atol=0, err_msg=key)

    @pytest.mark.parametrize("name", list(ORACLE_GRAPHS))
    @pytest.mark.parametrize("gates_enabled", [True, False],
                             ids=["gated", "ungated"])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_float32_bytes(self, name, gates_enabled, depth):
        graph = ORACLE_GRAPHS[name]
        got, got_grads = run_layers(gcn_layer, graph, depth, np.float32,
                                    gates_enabled)
        want, want_grads = run_layers(per_op_gcn_layer, graph, depth,
                                      np.float32, gates_enabled)
        assert got.tobytes() == want.tobytes()
        assert list(got_grads) == list(want_grads)
        for key in want_grads:
            assert got_grads[key].tobytes() == want_grads[key].tobytes(), key

    @pytest.mark.parametrize("gates_enabled", [True, False])
    def test_direction_without_edges_stays_off_the_tape(self, gates_enabled):
        _, grads = run_layers(gcn_layer, ORACLE_GRAPHS["no along"], 1,
                              np.float32, gates_enabled)
        assert "gcn.0.w_along" not in grads
        assert "gcn.0.gate_w_along" not in grads
        assert ("gcn.0.gate_w_self" in grads) == gates_enabled
        assert ("gcn.0.gate_label_bias" in grads) == gates_enabled

    def test_no_edges_records_nothing(self):
        graph = ORACLE_GRAPHS["no edges"]
        params = layer_for(graph, 4, np.random.default_rng(42))
        h = nm.parameter("h", np.ones((7, 4)), np.float32)
        with nm.Tape() as tape:
            out = gcn_layer(h, graph, params)
        assert tape._nodes == [] and tape.parameters == {}
        assert out.data.tobytes() == np.zeros((7, 4), np.float32).tobytes()

    @pytest.mark.parametrize("projection", [False, True])
    def test_one_tape_node_per_layer(self, projection):
        rng = np.random.default_rng(43)
        graph, _ = random_graph(6, rng)
        width = 5 if projection else 4
        stack = init_gcn_stack(2, 4, graph.num_labels, width, rng)
        h = nm.Tensor(rng.standard_normal((6, width)).astype(np.float32))
        with nm.Tape() as tape:
            gcn_stack_forward(h, graph, stack)
        assert len(tape._nodes) == 2 + projection

    @pytest.mark.parametrize("gates_enabled", [True, False])
    def test_gradient_check(self, gates_enabled):
        rng = np.random.default_rng(44)
        graph, _ = random_graph(5, rng)
        params = layer_for(graph, 3, rng, dtype=np.float64)
        params.label_bias.data[:] = rng.uniform(-0.3, 0.3,
                                                params.label_bias.shape)
        h = nm.parameter("h", rng.standard_normal((5, 3)), np.float64)
        proj = nm.constant(rng.standard_normal((3, 1)), dtype=np.float64)
        result = nm.grad_check(
            lambda: nm.sum_all(gcn_layer(h, graph, params, gates_enabled)
                               @ proj),
            {"h": h, **params.tensors()})
        assert result.max_rel_err < 1e-6
        assert result.checked > 0

    def test_kink_near_zero_is_skipped(self):
        # gate 1/2 on a lone self-loop and a zero weight: the pre-ReLU sum is
        # half the label bias, 1e-6 in one entry, so a +-h step of that bias
        # entry crosses the kink, and only the probe of the op shows it
        graph = SyntacticGraph(1, [Edge(0, 0, Direction.SELF, 0, -1)], 3)
        params = layer_for(graph, 3, np.random.default_rng(45),
                           dtype=np.float64)
        params.weights[Direction.SELF].data[:] = 0.0
        params.gate_weights[Direction.SELF].data[:] = 0.0
        params.label_bias.data[0] = [2e-6, 0.5, -0.5]
        h = nm.Tensor(np.ones((1, 3)), dtype=np.float64)
        result = nm.grad_check(
            lambda: nm.sum_all(gcn_layer(h, graph, params)),
            params.tensors(), kink_margin=1e-4)
        assert result.skipped > 0
        assert result.max_rel_err < 1e-6

    def test_non_finite_gate_logit_is_reported(self):
        # an infinite gate weight: the clamped logistic would hide it
        rng = np.random.default_rng(46)
        graph, _ = random_graph(4, rng)
        params = layer_for(graph, 3, rng)
        params.gate_weights[Direction.SELF].data[0, 0] = np.inf
        h = nm.Tensor(np.ones((4, 3), np.float32))
        with pytest.raises(NumericsError, match="graph_conv"):
            gcn_layer(h, graph, params)

    def test_non_finite_message_is_reported(self):
        # -inf sums to a -inf pre-ReLU entry, which the ReLU would zero
        rng = np.random.default_rng(47)
        graph, _ = random_graph(4, rng)
        params = layer_for(graph, 3, rng)
        params.label_bias.data[0, 1] = -np.inf
        h = nm.Tensor(np.zeros((4, 3), np.float32))
        with pytest.raises(NumericsError, match="graph_conv"):
            gcn_layer(h, graph, params, gates_enabled=False)
