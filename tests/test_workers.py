"""``workers.two_workers``: split products, split Adam spans, fused
blocks, split initializer draws and split checkpoint reads give the bytes of
the whole ones, the worker's errors and numpy error state reach the caller,
and training, prediction, model construction and checkpoint loading share the
process's one worker thread and leave OpenBLAS's thread count as they found
it."""

import contextlib
import os
import queue
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syngcn import classifier, evaluator, numerics as nm, workers
from syngcn.conll import build_lexicon
from syngcn.errors import FormatError, LayoutMismatch
from syngcn.evaluator import predict_corpus
from syngcn.trainer import SrlModel, make_instances, train

from conftest import small_config
import test_numerics
from test_cli import MALFORMED
from test_numerics import fuses, named, store_of


@contextlib.contextmanager
def on_two_workers():
    """Inside ``workers.two_workers``; skips the test where it starts no
    worker."""
    with workers.two_workers():
        if not workers.running():
            pytest.skip("no worker: numpy's OpenBLAS has no thread controls "
                        "here, or one CPU is usable")
        yield


def pins() -> bool:
    """Whether ``two_workers`` pins OpenBLAS and starts a worker here."""
    with workers.two_workers():
        return workers.running()


def the_worker() -> threading.Thread:
    """The process's one worker thread, the one ``two_workers`` started."""
    threads = [t for t in threading.enumerate()
               if t.name.startswith("syngcn-worker")]
    assert threads == [workers._worker]
    return threads[0]


@contextlib.contextmanager
def fresh_worker(monkeypatch):
    """A process that has started no worker yet, as far as ``two_workers``
    sees: it gets its own call queue, and the threads it starts in the
    block, which stop on leaving it. Yields the list of those threads."""
    started, calls = [], queue.SimpleQueue()

    def serving():
        started.append(threading.current_thread())
        for call in iter(calls.get, None):
            call()

    with monkeypatch.context() as patched:
        patched.setattr(workers, "_calls", calls)
        patched.setattr(workers, "_worker", None)
        patched.setattr(workers, "_serve", serving)
        try:
            yield started
        finally:
            for _ in started:
                calls.put(None)
            for thread in started:
                thread.join()


SIZES = st.one_of(st.sampled_from([1, 2, 3, 31, 32, 33, 63, 64, 65, 129]),
                  st.integers(1, 300))


class TestSplitProducts:
    @settings(max_examples=60, deadline=None)
    @given(m=SIZES, k=SIZES, n=SIZES,
           dtype=st.sampled_from([np.float32, np.float64]),
           transposed=st.tuples(st.booleans(), st.booleans()),
           into_window=st.booleans(), seed=st.integers(0, 2 ** 16))
    def test_split_product_equals_whole(self, m, k, n, dtype, transposed,
                                        into_window, seed):
        # K grows until the product reaches the split threshold, unless it
        # has one row or one column, which stays whole: split by rows at 64
        # rows and more, else by columns, each element keeps its K-loop,
        # and no half is small enough for OpenBLAS's small-matrix kernels,
        # which round another way
        if min(m, n) > 1:
            k = max(k, -(-workers.SPLIT_MIN // (m * n)))
        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal(s[::-1] if t else s).astype(dtype)
                for s, t in zip([(m, k), (k, n)], transposed))
        a, b = (x.T if t else x for x, t in zip((a, b), transposed))
        window = np.full(m * n + 5, np.nan, dtype)
        out = window[3:3 + m * n].reshape(m, n) if into_window else None
        with on_two_workers():
            whole = np.matmul(a, b)
            got = workers.product(a, b, out=out)
        assert got.tobytes() == whole.tobytes()
        if into_window:
            assert got.base is window
            assert np.isnan(window[:3]).all() and np.isnan(window[-2:]).all()

    @pytest.mark.parametrize("shape", [(7, 1024, 2048), (1024, 7, 2048),
                                       (7, 2048, 1024), (12, 316, 2048),
                                       (228, 9, 2048), (40, 1024, 2048)],
                             ids=str)
    def test_training_shapes_split_at_the_real_threshold(self, shape):
        # the English-width products that training splits, at the
        # threshold it splits them at, against the whole product at one
        # BLAS thread and at numpy's own thread count
        if not fuses(np.float32):
            pytest.skip("training splits no product on this OpenBLAS core")
        m, k, n = shape
        rng = np.random.default_rng(m + k + n)
        a = rng.standard_normal((k, m)).astype(np.float32).T
        b = rng.standard_normal((k, n)).astype(np.float32)
        threaded = np.matmul(a, b)
        with on_two_workers():
            whole = np.matmul(a, b)
            got = workers.product(a, b)
        assert m * n * k >= workers.SPLIT_MIN and min(m, n) > 1
        assert got.tobytes() == whole.tobytes() == threaded.tobytes()


    def test_products_stay_whole_off_the_exact_cores(self, monkeypatch):
        # a product that training splits stays whole on a core whose cut
        # products change their bytes
        monkeypatch.setattr(workers, "exact_cuts", lambda: False)
        handed = []
        monkeypatch.setattr(workers, "in_parallel",
                            lambda here, there: handed.append(there))
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 1024)).astype(np.float32)
        b = rng.standard_normal((1024, 2048)).astype(np.float32)
        with on_two_workers():
            got = workers.product(a, b)
            assert got.tobytes() == np.matmul(a, b).tobytes()
        assert not handed and not fuses(np.float32)


class TestSplitAdam:
    BLOCK = 64

    @staticmethod
    def _run(store, span, split, steps=3):
        context = on_two_workers() if split else contextlib.nullcontext()
        with context:
            for _ in range(steps):
                store._open_step()
                nm.adam_step(store, 0.01, span)
        return [a.tobytes() for a in (store.flat, store.m, store.v)]

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_window_span_on_two_workers_equals_one(self, monkeypatch,
                                                   blocks, dtype):
        # a span of whole blocks and an odd tail, split at a block boundary
        monkeypatch.setattr(nm, "_ADAM_BLOCK", self.BLOCK)
        size = (blocks - 1) * self.BLOCK + 37
        rng = np.random.default_rng(blocks)
        start = rng.uniform(-1, 1, size)
        grad = (rng.standard_normal(size) * 10.0 ** rng.integers(
            -8, 3, size)).astype(dtype)
        results = []
        for split in (False, True):
            store = store_of(dtype, w=start)
            store.window = grad.copy()
            results.append(self._run(store, (0, size), split))
        assert results[0] == results[1]

    @pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("tail", [1, 2, 3, 4], ids=lambda t: f"tail{t}")
    def test_fused_blocks_equal_the_window_path(self, monkeypatch, blocks,
                                                tail):
        # a tensor of 16 columns: a block is 4 of its rows, and a shorter
        # rest joins the last block; the product is computed block by
        # block, on two workers, and gives the bytes of the whole product
        # flushed from the window on one
        if not fuses(np.float32):
            pytest.skip("steps fuse no tensor on this OpenBLAS core")
        dtype = np.float32
        monkeypatch.setattr(nm, "_ADAM_BLOCK", self.BLOCK)
        rows, cols, k = 4 * (blocks - 1) + tail, 16, 9
        rng = np.random.default_rng(tail * blocks)
        start = rng.uniform(-1, 1, (rows, cols))
        a = rng.standard_normal((k, rows)).astype(dtype).T
        b = rng.standard_normal((k, cols)).astype(dtype)
        window = store_of(dtype, pad=np.ones(5), w=start)
        window.window = np.concatenate([np.zeros(5, dtype),
                                        (a @ b).reshape(-1)])
        fused = store_of(dtype, pad=np.ones(5), w=start)
        fused.window = np.zeros(1, dtype)       # holds nothing it reads
        span = (5, 5 + rows * cols)
        want = self._run(window, span, split=False)
        with on_two_workers():
            for _ in range(3):
                fused._open_step()
                nm.adam_step(fused, 0.01, span, (a, b))
        assert [x.tobytes() for x in (fused.flat, fused.m, fused.v)] == want

    def test_callers_error_state_holds_on_the_worker(self, monkeypatch):
        # numpy's error state is per thread: the worker runs its half in a
        # copy of the caller's context, so an overflow the caller silences
        # stays silent there, and one it does not shows up from the call
        monkeypatch.setattr(nm, "_ADAM_BLOCK", self.BLOCK)
        size = 4 * self.BLOCK
        for silenced in (True, False):
            store = store_of(np.float32, w=np.ones(size))
            store.window = np.full(size, 1e30, np.float32)   # g*g overflows
            store._open_step()
            with on_two_workers(), warnings.catch_warnings():
                warnings.simplefilter("error")
                if silenced:
                    with np.errstate(over="ignore"):
                        nm.adam_step(store, 0.01, (0, size))
                else:
                    with pytest.raises(RuntimeWarning, match="overflow"):
                        nm.adam_step(store, 0.01, (0, size))


class TestHandOff:
    def test_workers_error_surfaces_after_the_callers_half(self):
        class Boom(Exception):
            pass

        done = []

        def here():
            time.sleep(0.05)
            done.append("here")

        def there():
            raise Boom

        with on_two_workers():
            with pytest.raises(Boom):
                workers.in_parallel(here, there)
            assert done == ["here"]

    def test_callers_error_surfaces_after_the_workers_half(self):
        class Boom(Exception):
            pass

        done = []

        def here():
            raise Boom

        def there():
            time.sleep(0.05)
            done.append("there")

        with on_two_workers():
            with pytest.raises(Boom):
                workers.in_parallel(here, there)
            assert done == ["there"]

    def test_fused_step_on_two_workers_matches_reference(self, monkeypatch):
        # TestFusedAdamStep's swept tape, whose u and w are fused where
        # float32 steps fuse, with its Adam spans and fused blocks split
        with on_two_workers():
            swept = test_numerics.TestFusedAdamStep
            store, _ = swept._fused_against_reference(
                monkeypatch, np.float32, swept.SWEPT, swept._swept_loss,
                (6, 2), 4)
        assert named(store, store.m)["lstm.bw.w"].any()


class TestPinnedTraining:
    CFG = dict(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8, epochs=2)

    def test_region_restores_blas_threads_and_keeps_its_worker(self):
        if not pins():
            pytest.skip("two_workers starts no worker here")
        get, _, _ = workers.openblas()
        before, worker = get(), the_worker()
        for _ in range(2):
            with on_two_workers():
                assert get() == 1 and workers.running()
                workers.in_parallel(lambda: None, lambda: None)
                assert the_worker() is worker
            assert get() == before and not workers.running()
            assert the_worker() is worker and worker.is_alive()

    def test_worker_that_fails_to_start_leaves_blas_threads(self,
                                                            monkeypatch):
        # the process cannot start a thread: the error surfaces on the
        # first block's entry, and OpenBLAS keeps its thread count
        if not pins():
            pytest.skip("two_workers starts no worker here")
        get, _, _ = workers.openblas()
        before = get()

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(workers, "_worker", None)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            with workers.two_workers():
                pass
        assert get() == before and not workers.running()

    @pytest.mark.parametrize("kill", [None, "update", "write"],
                             ids=["returns", "killed in an update",
                                  "killed in a write"])
    def test_train_restores_blas_threads(self, overfit_sentences, tmp_path,
                                         monkeypatch, kill):
        # OpenBLAS runs one thread while train() runs, and gets back its
        # count when train() returns, or raises from the killed-run test's
        # kills, in an Adam update or in the best.ckpt write; the one
        # worker is the same thread before and after, either way
        if not pins():
            pytest.skip("two_workers starts no worker here")
        get, _, _ = workers.openblas()
        before, seen, worker = get(), [], the_worker()

        class Killed(Exception):
            pass

        adam_step = nm.adam_step

        def recording_step(store, lr, span, product=None):
            seen.append(get())
            if kill == "update" and store.step_count == 3:
                raise Killed
            adam_step(store, lr, span, product)

        monkeypatch.setattr(nm, "adam_step", recording_step)
        if kill == "write":
            replacing = nm.replacing

            @contextlib.contextmanager
            def dying_replacing(path):
                with replacing(path) as fh:
                    fh.write(b"SYNGCN1\t")
                    raise Killed
                    yield fh

            monkeypatch.setattr(nm, "replacing", dying_replacing)
        with pytest.raises(Killed) if kill else contextlib.nullcontext():
            train(overfit_sentences, None, small_config(**self.CFG),
                  tmp_path / "run")
        assert seen and set(seen) == {1}
        assert get() == before and not workers.running()
        assert the_worker() is worker

    @pytest.mark.parametrize("without", ["thread controls", "a second CPU"])
    def test_serial_path_gives_the_same_bytes(self, overfit_sentences,
                                              tmp_path, monkeypatch,
                                              without):
        # with a store wider than one Adam block, a run on two workers
        # splits Adam spans and fuses blocks; without OpenBLAS's thread
        # controls, or with one usable CPU, train() neither hands off nor
        # starts a worker in a process that has none, and the bytes are the
        # same
        if not pins():
            pytest.skip("two_workers starts no worker here")
        monkeypatch.setattr(nm, "_ADAM_BLOCK", 64)
        sentences = overfit_sentences[:8]
        cfg = small_config(**self.CFG)
        running, adam_step = [], nm.adam_step

        def recording_step(store, lr, span, product=None):
            running.append(workers.running())
            adam_step(store, lr, span, product)

        monkeypatch.setattr(nm, "adam_step", recording_step)
        split = train(sentences, None, cfg, tmp_path / "split")
        assert set(running) == {True}
        with monkeypatch.context() as patched:
            if without == "thread controls":
                patched.setattr(workers, "openblas", lambda: None)
            else:
                patched.setattr(os, "sched_getaffinity", lambda pid: {0})
            running.clear()
            with fresh_worker(patched) as started:
                serial = train(sentences, None, cfg, tmp_path / "serial")
                assert workers._worker is None and not started
            assert set(running) == {False}
        steps = cfg.epochs * len(make_instances(sentences,
                                                build_lexicon(sentences)))
        assert len(running) > steps
        for name in ("best.ckpt", "metrics.tsv"):
            assert ((tmp_path / "split" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes()), name
        assert split.best_checkpoint.read_bytes() == \
            serial.best_checkpoint.read_bytes()


@contextlib.contextmanager
def blas_threads(count: int):
    """OpenBLAS on ``count`` threads inside the block."""
    get, put, _ = workers.openblas()
    before = get()
    put(count)
    try:
        yield
    finally:
        put(before)


def predicted(model, sentences, monkeypatch) -> tuple[list, list]:
    """The bytes of ``predict_corpus``'s distributions and of the encoder
    states of its batches: an untrained role head's near-uniform
    distributions can round a change in the states away."""
    states, encode = [], model.encode

    def recording(instances, graphs):
        encoded = encode(instances, graphs)
        states.append(encoded.data.tobytes())
        return encoded

    with monkeypatch.context() as patched:
        patched.setattr(model, "encode", recording)
        preds = predict_corpus(model, sentences)
    return ([preds.get(*key)[1].tobytes() for key in sorted(preds.keys())],
            states)


class TestPinnedPrediction:
    """``predict_corpus`` runs its batches inside one ``two_workers``
    block."""

    CFG = dict(d_w=8, d_pos=4, d_l=8, d_h=8, d_r=8, d_l_out=8,
               lstm_layers=2, gcn_layers=1)

    @pytest.fixture
    def model(self, overfit_lexicon):
        return SrlModel(small_config(**self.CFG), overfit_lexicon,
                        np.random.default_rng(5))

    @staticmethod
    def _needs_a_worker():
        if not pins():
            pytest.skip("two_workers starts no worker here")

    def test_threaded_directions_equal_the_stacked_path(
            self, model, overfit_sentences, monkeypatch):
        # every layer wide, so each runs a direction per thread; at these
        # widths no product is cut. The reference is the stacked path,
        # outside any block, at one BLAS thread
        self._needs_a_worker()
        monkeypatch.setattr(workers, "PAIR_MIN", 1)
        with monkeypatch.context() as patched:
            patched.setattr(workers, "two_workers", contextlib.nullcontext)
            with blas_threads(1):
                stacked = predicted(model, overfit_sentences, monkeypatch)
        threaded = predicted(model, overfit_sentences, monkeypatch)
        assert threaded == stacked

    def test_one_hand_off_per_wide_layer_per_batch(
            self, model, overfit_sentences, monkeypatch):
        self._needs_a_worker()
        monkeypatch.setattr(workers, "PAIR_MIN", 1)
        budget = 2 * max(len(s) for s in overfit_sentences)
        monkeypatch.setattr(evaluator, "PREDICT_TOKEN_BUDGET", budget)
        handed, in_parallel = [], workers.in_parallel

        def counting(here, there):
            handed.append(there)
            in_parallel(here, there)

        monkeypatch.setattr(workers, "in_parallel", counting)
        predict_corpus(model, overfit_sentences)
        instances = make_instances(overfit_sentences, model.lexicon,
                                   require_gold=False)
        batches = len(list(evaluator._batches(instances, budget)))
        assert batches > 1
        assert len(handed) == self.CFG["lstm_layers"] * batches

    @pytest.mark.parametrize("raises", [False, True],
                             ids=["returns", "raises"])
    def test_restores_blas_threads(self, model, overfit_sentences,
                                   monkeypatch, raises):
        # one BLAS thread and a worker while the batches run; the count
        # OpenBLAS had, and the same one worker, once predict_corpus returns
        # or a batch raises
        self._needs_a_worker()
        monkeypatch.setattr(evaluator, "PREDICT_TOKEN_BUDGET", 1)
        get, _, _ = workers.openblas()
        seen, predict, worker = [], model.predict, the_worker()

        class Boom(Exception):
            pass

        def recording(batch, graphs):
            seen.append((get(), workers.running()))
            if raises and len(seen) == 2:
                raise Boom
            return predict(batch, graphs)

        monkeypatch.setattr(model, "predict", recording)
        with blas_threads(2):
            with pytest.raises(Boom) if raises else contextlib.nullcontext():
                predict_corpus(model, overfit_sentences)
            assert get() == 2
        assert seen and set(seen) == {(1, True)}
        assert not workers.running() and the_worker() is worker

    def test_dev_pass_in_train_starts_no_second_worker(
            self, overfit_sentences, overfit_lexicon, tmp_path, monkeypatch):
        # train()'s block holds; predict_corpus's own block inside it is
        # nested and starts nothing, and neither do the blocks of a later
        # build, load and prediction in the same process
        self._needs_a_worker()
        passes, predict = [], evaluator.predict_corpus

        def recording(model, sentences, graph_transform=None):
            passes.append(workers.running())
            return predict(model, sentences, graph_transform)

        cfg = small_config(**TestPinnedTraining.CFG)
        with fresh_worker(monkeypatch) as started:
            with monkeypatch.context() as patched:
                patched.setattr(evaluator, "predict_corpus", recording)
                result = train(overfit_sentences[:8], overfit_sentences[8:12],
                               cfg, tmp_path / "run", overfit_lexicon)
            assert passes == [True] * cfg.epochs
            SrlModel(cfg, overfit_lexicon, np.random.default_rng(5))
            model = SrlModel.from_checkpoint(result.best_checkpoint, cfg,
                                             overfit_lexicon)
            predict_corpus(model, overfit_sentences[8:12])
            assert [t.name for t in started] == ["syngcn-worker"]
            assert started == [workers._worker]

    def test_two_python_threads_share_the_worker(
            self, model, overfit_sentences, monkeypatch):
        # every batch hands a direction to the worker; two Python threads
        # predicting at once queue their hand-offs on the one worker, and a
        # thread whose calls outlive the other's outermost block runs them
        # unsplit, with the same bytes
        self._needs_a_worker()
        monkeypatch.setattr(workers, "PAIR_MIN", 1)
        monkeypatch.setattr(evaluator, "PREDICT_TOKEN_BUDGET",
                            2 * max(len(s) for s in overfit_sentences))

        def distributions():
            preds = predict_corpus(model, overfit_sentences)
            return [preds.get(*key)[1].tobytes()
                    for key in sorted(preds.keys())]

        lone, results, errors = distributions(), [], []

        def calls():
            try:
                for _ in range(40):
                    results.append(distributions())
            except BaseException as err:
                errors.append(err)

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(results) == 80
        assert all(result == lone for result in results)
        assert not workers.running()

    def test_bytes_do_not_depend_on_blas_threads(self, overfit_lexicon,
                                                 overfit_sentences,
                                                 monkeypatch):
        # at d_h = 300 the second BiLSTM layer and the GCN multiply over an
        # inner dimension of 600, where OpenBLAS rounds products
        # differently on two threads than on one; prediction pins one
        self._needs_a_worker()
        model = SrlModel(small_config(**{**self.CFG, "d_h": 300}),
                         overfit_lexicon, np.random.default_rng(5))
        runs = []
        for count in (1, 2):
            with blas_threads(count):
                runs.append(predicted(model, overfit_sentences, monkeypatch))
        assert runs[0] == runs[1]


class TestPinnedModels:
    """``SrlModel`` runs its draws, and ``SrlModel.from_checkpoint`` its
    allocation and read, inside one ``two_workers`` block each."""

    CFG = TestPinnedPrediction.CFG

    @pytest.mark.parametrize("widths", ["a small Adam block", "d_h = 256"])
    def test_build_inside_the_block_equals_one_outside(
            self, overfit_lexicon, monkeypatch, widths):
        # fill_uniform gives the worker half of a tensor's pieces only when
        # it has two or more: most tensors of this model with a small
        # _ADAM_BLOCK; with the real one, at d_h = 256, the second BiLSTM
        # layer's gate blocks of w ([512 x 256], two pieces) and the GCN's
        # [512 x 512] weights (four)
        TestPinnedPrediction._needs_a_worker()
        if widths == "d_h = 256":
            cfg = small_config(**{**self.CFG, "d_h": 256})
        else:
            cfg = small_config(**self.CFG)
            monkeypatch.setattr(nm, "_ADAM_BLOCK", 64)
        shape = SrlModel(cfg, overfit_lexicon, np.random.default_rng(0)
                         ).store["embed.word"].shape
        pretrained = np.random.default_rng(1).uniform(-1, 1, shape)
        handed, in_parallel = [], workers.in_parallel

        def counting(here, there):
            handed.append(there)
            in_parallel(here, there)

        def build():
            rng = np.random.default_rng(5)
            model = SrlModel(cfg, overfit_lexicon, rng, pretrained)
            return (model.store.flat.tobytes(),
                    model.tables.word_pretrained.data.tobytes(),
                    rng.bit_generator.state)

        monkeypatch.setattr(workers, "in_parallel", counting)
        inside = build()
        assert handed
        with monkeypatch.context() as patched:
            patched.setattr(workers, "two_workers", contextlib.nullcontext)
            handed.clear()
            outside = build()
            assert not handed
        assert inside == outside

    @pytest.mark.parametrize("case", ["build", "build raises", "load",
                                      "another config", "truncated"])
    def test_restores_blas_threads(self, overfit_lexicon, tmp_path,
                                   monkeypatch, case):
        # one BLAS thread and a worker while the draws or the read run; the
        # count OpenBLAS had, and the same one worker, once the call returns
        # or raises
        TestPinnedPrediction._needs_a_worker()
        get, _, _ = workers.openblas()
        worker = the_worker()
        cfg = small_config(**self.CFG)
        path = tmp_path / "m.ckpt"
        SrlModel(cfg, overfit_lexicon, np.random.default_rng(5)).save(path)
        if case == "truncated":
            path.write_bytes(path.read_bytes()[:-4])
        seen = []

        class Boom(Exception):
            pass

        if case.startswith("build"):
            init = classifier.init_classifier

            def recording(params, rng):
                seen.append((get(), workers.running()))
                if case == "build raises":
                    raise Boom
                init(params, rng)

            monkeypatch.setattr(classifier, "init_classifier", recording)

            def call():
                return SrlModel(cfg, overfit_lexicon,
                                np.random.default_rng(5))
        else:
            load = nm.load_checkpoint

            def recording(path, into=None):
                seen.append((get(), workers.running()))
                return load(path, into)

            monkeypatch.setattr(nm, "load_checkpoint", recording)
            wanted = (small_config(**{**self.CFG, "d_h": 16})
                      if case == "another config" else cfg)

            def call():
                return SrlModel.from_checkpoint(path, wanted, overfit_lexicon)

        raises = {"build raises": pytest.raises(Boom),
                  "another config": pytest.raises(LayoutMismatch,
                                                  match=r"tensor \d+ is"),
                  "truncated": pytest.raises(FormatError, match="declare")
                  }.get(case, contextlib.nullcontext())
        with blas_threads(2):
            with raises:
                call()
            assert get() == 2
        assert seen == [(1, True)]
        assert not workers.running() and the_worker() is worker


def container(path, dtype) -> dict[str, np.ndarray]:
    """Save, at ``path``, tensors of ``dtype`` whose data's middle byte lies
    inside the widest, ``b``; return them."""
    rng = np.random.default_rng(np.dtype(dtype).itemsize)
    tensors = {"a": rng.standard_normal((3, 4)).astype(dtype),
               "b": rng.standard_normal((50, 7)).astype(dtype),
               "c": np.zeros((0, 2), dtype),
               "d": np.asarray(rng.standard_normal(), dtype),
               "e": rng.standard_normal((9, 5)).astype(dtype)}
    nm.save_checkpoint(tensors, path)
    return tensors


class TestSplitRead:
    """``nm.load_checkpoint`` inside ``two_workers``: the worker reads the
    second half of the data's bytes."""

    @pytest.mark.parametrize("short", [False, True],
                             ids=["whole reads", "7-byte reads"])
    @pytest.mark.parametrize("into", [None, "contiguous", "strided"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_read_equals_serial(self, tmp_path, monkeypatch, dtype,
                                      into, short):
        # fresh arrays, arrays of a store, and strided arrays filled through
        # a copy: b, cut in two by the halves where it is read straight,
        # and e; with a file that hands out at most 7 bytes per read too
        path = tmp_path / "m.ckpt"
        saved = container(path, dtype)
        readers, preadv = set(), os.preadv

        def recording(fd, buffers, offset):
            readers.add(threading.current_thread().name)
            if short:
                buffers = [memoryview(buffers[0]).cast("B")[:7]]
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", recording)

        def load():
            if into is None:
                return nm.load_checkpoint(path)
            targets = {}
            for name, arr in saved.items():
                target = np.full(2 * arr.size, np.nan, dtype)
                target = (target[::2] if into == "strided" and name in ("b", "e")
                          else target[:arr.size])
                targets[name] = target.reshape(arr.shape)
            loaded = nm.load_checkpoint(path, into=targets)
            assert all(loaded[k] is targets[k] for k in saved)
            return loaded

        serial = load()
        assert readers == {threading.current_thread().name}
        readers.clear()
        with on_two_workers():
            split = load()
        assert readers == {threading.current_thread().name, "syngcn-worker"}
        for name, arr in saved.items():
            assert split[name].dtype == serial[name].dtype == arr.dtype
            assert (split[name].tobytes() == serial[name].tobytes()
                    == arr.tobytes()), name

    @pytest.mark.parametrize("reader,tensor", [("syngcn-worker", "b"),
                                               ("caller", "a")])
    def test_short_read_names_its_tensor(self, tmp_path, monkeypatch,
                                         reader, tensor):
        # the file ends early for one thread's half: that half's first
        # tensor is named, after the other half has finished
        path = tmp_path / "m.ckpt"
        container(path, np.float32)
        caller, preadv = threading.current_thread().name, os.preadv

        def ending(fd, buffers, offset):
            name = threading.current_thread().name
            if name == (caller if reader == "caller" else reader):
                return 0
            return preadv(fd, buffers, offset)

        monkeypatch.setattr(os, "preadv", ending)
        with on_two_workers():
            with pytest.raises(FormatError,
                               match=f"truncated tensor '{tensor}'"):
                nm.load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(
        case for case, (reader, _) in MALFORMED.items()
        if reader is nm.load_checkpoint))
    def test_malformed_file_raises_format_error(self, tmp_path, case):
        path = tmp_path / "bad"
        path.write_bytes(MALFORMED[case][1])
        with on_two_workers():
            with pytest.raises(FormatError):
                nm.load_checkpoint(path)


class TestContainerOnTwoWorkers(test_numerics.TestCheckpointContainer):
    """Every checkpoint container test again, inside one ``two_workers``
    block."""

    @pytest.fixture(autouse=True, scope="class")
    def _inside(self):
        with on_two_workers():
            yield

    # hypothesis runs a test function for one class only, so the fuzz test
    # is wrapped again here around the same body
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.binary(max_size=200),
                     test_numerics.checkpoint_like_bytes()))
    def test_fuzzed_file_parses_or_raises_format_error(self, tmp_path_factory,
                                                       data):
        test_numerics.TestCheckpointContainer.\
            test_fuzzed_file_parses_or_raises_format_error.hypothesis.\
            inner_test(self, tmp_path_factory, data)
