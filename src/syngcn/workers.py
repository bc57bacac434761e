"""Training, prediction, model construction and checkpoint loading on two
cores: numpy's OpenBLAS pinned to one thread, and the program's own large
work split between the calling thread and one worker, for the process.

Inside ``two_workers`` (``trainer.train``, ``evaluator.predict_corpus``,
``trainer.SrlModel``'s draws and ``SrlModel.from_checkpoint`` each run in
one), large products are computed in two halves (``product``), and
``numerics.adam_step`` and ``numerics.fill_uniform`` give the worker half
of their blocks, ``numerics.bilstm_layer`` a wide layer's backward
direction and ``numerics.load_checkpoint`` the second half of a file's
tensor bytes (``in_parallel``). Every split keeps the bytes of the whole
computation: elementwise work and reads trivially, products only where
``exact_cuts`` says cut products keep their bytes. Outside the block
nothing is split, and OpenBLAS uses its own threads.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import queue
import threading
from typing import Callable

import numpy as np

# Inside ``two_workers``, products of at least this many multiply-adds are
# split in two, by rows when they have at least ``SPLIT_ROWS`` rows, else by
# columns; a smaller product costs less than handing half of it over.
SPLIT_MIN = 1 << 22
SPLIT_ROWS = 64

# Inside ``two_workers``, a BiLSTM layer whose first step's recurrent
# product has at least this many multiply-adds runs its two directions at
# once, one per thread (``numerics.bilstm_layer``)
PAIR_MIN = 1 << 19

# the worker thread's calls; the thread, which the first outermost block of a
# process (or forked child) starts; whether an outermost ``two_workers`` runs
_calls: queue.SimpleQueue = queue.SimpleQueue()
_worker: threading.Thread | None = None
_running = False
_entry = threading.Lock()

# The OpenBLAS cores whose float32 products keep each element's bytes when
# cut into row blocks or column halves of the sizes ``numerics.adam_step``
# and ``product`` cut (tested on random shapes): only there do fused Adam
# updates and split products run. The Haswell kernels, which also serve
# AMD's Zen, round cut float32 products differently, and float64 products
# cut the same way differ on SkylakeX too.
EXACT_CORES = ("SkylakeX",)


@functools.cache
def openblas():
    """The thread-count getter and setter and the core name of the OpenBLAS
    bundled with numpy, or None when numpy has another BLAS."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
        core = lib.scipy_openblas_get_corename64_
    except (ImportError, OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, ()
    put.restype, put.argtypes = None, (ctypes.c_int,)
    core.restype, core.argtypes = ctypes.c_char_p, ()
    return get, put, core().decode()


def exact_cuts() -> bool:
    """Whether products cut into row blocks or column halves keep their
    bytes here (``EXACT_CORES``)."""
    blas = openblas()
    return blas is not None and blas[2] in EXACT_CORES


@contextlib.contextmanager
def two_workers():
    """Inside the block, numpy's OpenBLAS runs on one thread, and the
    program splits its large work between this thread and the worker,
    which the outermost block starts, when no live one exists, before it
    pins OpenBLAS. Leaving, on an error too, gives OpenBLAS back its thread
    count. Without the bundled OpenBLAS's thread controls, with one usable
    CPU, or inside another such block (``predict_corpus``'s in ``train()``'s,
    or one on a second Python thread) it changes nothing: a second thread's
    calls queue on the same worker, and those that outlive the outermost
    block run unsplit."""
    global _worker, _running
    blas = openblas()
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with _entry:
        pins = not _running and blas is not None and cpus >= 2
        if pins:
            if _worker is None or not _worker.is_alive():
                _worker = threading.Thread(target=_serve, daemon=True,
                                           name="syngcn-worker")
                _worker.start()
            threads = blas[0]()
            blas[1](1)
            _running = True
    try:
        yield
    finally:
        if pins:
            with _entry:
                _running = False
                blas[1](threads)


def running() -> bool:
    """Whether a ``two_workers`` block runs, with OpenBLAS pinned."""
    return _running


def _serve() -> None:
    """The worker thread: run each call put on ``_calls``."""
    while True:
        _calls.get()()


def in_parallel(here: Callable[[], object],
                there: Callable[[], object]) -> None:
    """Run ``there`` on the worker, in a copy of this thread's
    ``contextvars`` context (so numpy's error state holds there too), while
    ``here`` runs on this thread, and return once both have finished: with
    ``here``'s error if it raised, else with ``there``'s."""
    context, done = contextvars.copy_context(), queue.SimpleQueue()

    def call():
        try:
            context.run(there)
        except BaseException as err:
            done.put(err)
        else:
            done.put(None)

    _calls.put(call)
    try:
        here()
    finally:
        error = done.get()
    if error is not None:
        raise error


def product(a: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` for 2-d arrays. Inside ``two_workers``,
    on an ``EXACT_CORES`` core, a float32 product of at least
    ``SPLIT_MIN`` multiply-adds runs in two halves, one on the worker: by
    rows, at an even row, or by columns, at a multiple of 16, when it has
    fewer than ``SPLIT_ROWS`` rows. Each element keeps its K-loop, so the
    bytes are the whole product's (tested): no half is a lone row of a
    several-row product, which OpenBLAS rounds by another path, or small
    enough for its small-matrix kernels, and a product of one row or one
    column, which numpy hands to a matrix-vector kernel whose bytes depend
    on where it is cut, stays whole."""
    (m, k), n = a.shape, b.shape[1]
    if (not _running or m * n * k < SPLIT_MIN or min(m, n) < 2
            or not a.dtype == b.dtype == np.float32 or not exact_cuts()):
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((m, n), np.float32)
    if m >= SPLIT_ROWS:
        h = m // 4 * 2
        in_parallel(lambda: np.matmul(a[:h], b, out=out[:h]),
                    lambda: np.matmul(a[h:], b, out=out[h:]))
    elif n >= 32:
        h = n // 32 * 16
        in_parallel(lambda: np.matmul(a, b[:, :h], out=out[:, :h]),
                    lambda: np.matmul(a, b[:, h:], out=out[:, h:]))
    else:
        np.matmul(a, b, out=out)
    return out
