"""``workers.two_workers``: split products, split Adam spans and fused
blocks give the bytes of the whole ones, the worker's errors and numpy error
state reach the caller, and training and prediction leave no worker thread
behind and OpenBLAS's thread count as they found it."""

import contextlib
import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from syngcn import evaluator, numerics as nm, workers
from syngcn.conll import build_lexicon
from syngcn.evaluator import predict_corpus
from syngcn.trainer import SrlModel, make_instances, train

from conftest import small_config
import test_numerics
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


def worker_threads() -> list[str]:
    return [t.name for t in threading.enumerate()
            if t.name.startswith("syngcn-worker")]


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

    def test_region_restores_blas_threads_and_ends_its_worker(self):
        if not pins():
            pytest.skip("two_workers starts no worker here")
        get, _, _ = workers.openblas()
        before = get()
        with on_two_workers():
            assert get() == 1 and workers.running()
            workers.in_parallel(lambda: None, lambda: None)
            assert worker_threads()
        assert get() == before and not workers.running()
        assert not worker_threads()

    def test_worker_that_fails_to_start_leaves_blas_threads(self,
                                                            monkeypatch):
        # the process cannot start a thread: the error surfaces, and
        # OpenBLAS keeps its thread count
        if not pins():
            pytest.skip("two_workers starts no worker here")
        get, _, _ = workers.openblas()
        before = get()

        def refuse(thread):
            raise RuntimeError("can't start new thread")

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
        # kills, in an Adam update or in the best.ckpt write; no worker is
        # left either way
        if not pins():
            pytest.skip("two_workers starts no worker here")
        get, _, _ = workers.openblas()
        before, seen = get(), []

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
        assert not worker_threads()

    @pytest.mark.parametrize("without", ["thread controls", "a second CPU"])
    def test_serial_path_gives_the_same_bytes(self, overfit_sentences,
                                              tmp_path, monkeypatch,
                                              without):
        # with a store wider than one Adam block, a run on two workers
        # splits Adam spans and fuses blocks; without OpenBLAS's thread
        # controls, or with one usable CPU, train() starts no worker, and
        # the bytes are the same
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
            serial = train(sentences, None, cfg, tmp_path / "serial")
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
        # OpenBLAS had, and no worker, once predict_corpus returns or a
        # batch raises
        self._needs_a_worker()
        monkeypatch.setattr(evaluator, "PREDICT_TOKEN_BUDGET", 1)
        get, _, _ = workers.openblas()
        seen, predict = [], model.predict

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
        assert not workers.running() and not worker_threads()

    def test_dev_pass_in_train_starts_no_second_worker(
            self, overfit_sentences, tmp_path, monkeypatch):
        # train()'s block holds; predict_corpus's own block inside it is
        # nested and starts nothing
        self._needs_a_worker()
        started, serve = [], workers._serve

        def counting(calls):
            started.append(threading.current_thread().name)
            serve(calls)

        monkeypatch.setattr(workers, "_serve", counting)
        passes, predict = [], evaluator.predict_corpus

        def recording(model, sentences, graph_transform=None):
            passes.append(workers.running())
            return predict(model, sentences, graph_transform)

        monkeypatch.setattr(evaluator, "predict_corpus", recording)
        train(overfit_sentences[:8], overfit_sentences[8:12],
              small_config(**TestPinnedTraining.CFG), tmp_path / "run")
        assert passes == [True] * TestPinnedTraining.CFG["epochs"]
        assert started == ["syngcn-worker"]
        assert not worker_threads()

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
