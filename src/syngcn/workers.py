"""Training, prediction, model construction and checkpoint loading on two
cores: numpy's OpenBLAS pinned to one thread, and the program's own large
work split between the calling thread and one worker, for the process.

``product`` cuts a large product in two halves, ``numerics.adam_step`` and
``numerics.fill_uniform`` cut their blocks in two, ``numerics.bilstm_layer``
a wide layer's directions and ``numerics.load_checkpoint`` a file's tensor
bytes, on every path and for every dtype, and ``in_parallel`` alone decides
where the halves run. Inside ``two_workers`` (``trainer.train``,
``evaluator.predict_corpus``, ``trainer.SrlModel``'s draws and
``SrlModel.from_checkpoint`` each run in one) the worker runs the second;
outside, both run one after the other on this thread. So a split changes
no bytes, and a host with one CPU gives the bytes of one with two.
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

# products of at least this many multiply-adds are cut in two, by rows when
# they have at least ``SPLIT_ROWS`` rows, else by columns; a smaller product
# costs less than handing half of it over.
SPLIT_MIN = 1 << 22
SPLIT_ROWS = 64

# A BiLSTM layer whose first step's recurrent product has at least this many
# multiply-adds runs its two directions one at a time through
# ``in_parallel``, so at once inside ``two_workers``; a narrower one runs
# them stacked (``numerics.bilstm_layer``)
PAIR_MIN = 1 << 19

# the worker thread's calls; the thread, which the first outermost block of a
# process (or forked child) starts; whether an outermost ``two_workers`` runs
_calls: queue.SimpleQueue = queue.SimpleQueue()
_worker: threading.Thread | None = None
_running = False
_entry = threading.Lock()


@functools.cache
def openblas():
    """The thread-count getter and setter of the OpenBLAS bundled with
    numpy, or None when numpy has another BLAS."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.restype, get.argtypes = ctypes.c_int, ()
    put.restype, put.argtypes = None, (ctypes.c_int,)
    return get, put


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
    block run on this thread alone."""
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


def _serve() -> None:
    """The worker thread: run each call put on ``_calls``."""
    while True:
        _calls.get()()


def in_parallel(here: Callable[[], object],
                there: Callable[[], object]) -> None:
    """Run ``here`` and ``there``, and return once both have finished.

    Inside ``two_workers``, ``there`` runs on the worker, in a copy of this
    thread's ``contextvars`` context (so numpy's error state holds there
    too), while ``here`` runs on this thread; the call raises ``here``'s
    error if it raised, else ``there``'s. Outside, ``here`` runs, then
    ``there``, on this thread, and ``there`` does not run if ``here``
    raised."""
    if not _running:
        here()
        there()
        return
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
    """``np.matmul(a, b, out=out)`` for 2-d arrays, where a product of at
    least ``SPLIT_MIN`` multiply-adds is defined as its two halves, run
    through ``in_parallel``: by rows, at an even row, or by columns, at a
    multiple of 16, when it has fewer than ``SPLIT_ROWS`` rows. No half is
    a lone row of a several-row product, which OpenBLAS rounds by another
    path, or small enough for its small-matrix kernels; a product of one
    row or one column, which numpy hands to a matrix-vector kernel, stays
    whole."""
    (m, k), n = a.shape, b.shape[1]
    if m * n * k < SPLIT_MIN or min(m, n) < 2:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((m, n), a.dtype)
    if m >= SPLIT_ROWS:
        h = m // 4 * 2
        halves = (lambda: np.matmul(a[:h], b, out=out[:h]),
                  lambda: np.matmul(a[h:], b, out=out[h:]))
    elif n >= 32:
        h = n // 32 * 16
        halves = (lambda: np.matmul(a, b[:, :h], out=out[:, :h]),
                  lambda: np.matmul(a, b[:, h:], out=out[:, h:]))
    else:
        return np.matmul(a, b, out=out)
    in_parallel(*halves)
    return out
