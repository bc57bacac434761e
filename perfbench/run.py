"""Outside-in benchmark of syngcn training and prediction throughput.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_desk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one process each

A run repeats rounds of set-up plus one timed call until ``--seconds`` are
used, checks every round's outputs, and prints one line per metric followed by
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones plus ``trace.overhead``. Each run also writes a result file, with an
environment stamp, under ``perfbench/results/``.

The program is measured as shipped: ``numerics.FINITE_CHECKS`` stays on, no
``threads`` argument is passed and the BLAS thread count is recorded, not set.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_desk", "train_full", "predict_long")

QUALITY_UNITS = {"final_train_loss": "nats/inst", "dev_f1": "F1"}
LAYER_UNITS = {"calls": "count", "ops": "count", "s": "s"}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads():
    """Threads the OpenBLAS bundled with numpy will use, or None if it cannot be asked."""
    import numpy as np

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*blas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _round(workload, inputs, workdir: Path, tracer, round_id: int) -> dict:
    """One set-up plus one timed call, then the checks; never raises."""
    rec = {"round": round_id, "traced": tracer is not None,
           "attempted": inputs.operations, "failed": inputs.operations}
    workdir.mkdir(parents=True)
    try:
        if tracer is not None:
            tracer.install(round_id)
        try:
            t0 = time.perf_counter()
            state = workload.setup(inputs, workdir)
            t1 = time.perf_counter()
            result = workload.run(state, workdir)
            t2 = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.remove()
        outcome = workload.check(inputs, state, result, workdir)
        rec.update(setup_s=t1 - t0, call_s=t2 - t1, wall_s=t2 - t0,
                   failed=outcome.failed, digest=outcome.digest,
                   quality=outcome.quality, problems=outcome.problems[:20])
    except Exception:       # a failed operation is counted, not fatal
        rec["problems"] = [traceback.format_exc(limit=8)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return rec


def _layer_metrics(totals: dict, operations: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for layer in ("embedder", "bilstm", "gcn", "classifier"):
        for key in ("calls", "s", "ops"):
            out[f"{layer}.{key}"] = (totals[layer][key], LAYER_UNITS[key])
    out["syngraph.calls"] = (totals["syngraph"]["calls"], "count")
    out["syngraph.s"] = (totals["syngraph"]["s"], "s")
    for metric, layer in (("numerics.loss_s", "numerics.loss"),
                          ("numerics.backward_s", "numerics.backward"),
                          ("numerics.adam_s", "numerics.adam"),
                          ("numerics.ckpt_save_s", "numerics.ckpt_save"),
                          ("numerics.ckpt_load_s", "numerics.ckpt_load"),
                          ("conll.parse_s", "conll.parse"),
                          ("conll.write_s", "conll.write"),
                          ("evaluator.predict_s", "evaluator.predict"),
                          ("evaluator.score_s", "evaluator.score"),
                          ("trainer.self_s", "trainer")):
        out[metric] = (totals[layer]["s"], "s")
    counters = totals["counters"]
    adam_calls = totals["numerics.adam"]["calls"]
    out["numerics.adam_calls"] = (adam_calls, "count")
    out["numerics.adam_elems"] = (
        counters.get("adam_elems", 0) / adam_calls if adam_calls else 0, "elems")
    out["numerics.ckpt_bytes"] = (counters.get("ckpt_bytes", 0), "B")
    ops = sum(t["ops"] for name, t in totals.items() if name != "counters")
    ops += counters.get("ops_outside_layers", 0)
    out["numerics.ops_per_inst"] = (ops / operations, "ops/inst")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict | None:
    """Measure one workload; the result dict, or None if no round was timed."""
    import tracer as tracing
    import workloads

    workload = workloads.make(name, tiny)
    inputs = workload.generate(seed)
    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    recorder = tracing.Tracer() if trace else None
    # stop before a round would end past --seconds, once there are enough
    # rounds for a median; a slow machine stops at one (traced: two) rounds
    least, enough = (2, 4) if trace else (1, 3)
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(rounds) >= least and elapsed + elapsed / len(rounds) > seconds and (
                len(rounds) >= enough or elapsed + elapsed / len(rounds) > 4 * seconds):
            break
        traced = trace and len(rounds) % 2 == 1
        rounds.append(_round(workload, inputs, work / f"round{len(rounds)}",
                             recorder if traced else None, len(rounds)))
    shutil.rmtree(work, ignore_errors=True)

    # every round of one seed must compute the same bytes, traced or not
    digests = [r["digest"] for r in rounds if "digest" in r and r["digest"]]
    for r in rounds:
        if r.get("digest") and r["digest"] != digests[0]:
            r["failed"] = r["attempted"]
            r["problems"].append("output digest differs from the first round")
    # a round whose checks failed still measured its call; one that raised did not
    timed = [r for r in rounds if "call_s" in r]
    plain = [r for r in timed if not r["traced"]]
    if not plain or (trace and not any(r["traced"] for r in timed)):
        return None

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        totals = recorder.layer_totals()
        per_round = [_layer_metrics(totals[r["round"]], inputs.operations)
                     for r in timed if r["traced"]]
        for key, (_, unit) in per_round[0].items():
            metrics[key] = (statistics.median(m[key][0] for m in per_round), unit)
        traced_wall = statistics.median(r["wall_s"] for r in timed if r["traced"])
        metrics["trace.overhead"] = (
            traced_wall / statistics.median(r["wall_s"] for r in plain), "x")
    else:
        metrics["setup_s"] = (statistics.median(r["setup_s"] for r in plain), "s")
        metrics["inst_per_s"] = (statistics.median(
            inputs.operations / r["call_s"] for r in plain), "inst/s")
        metrics["tok_per_s"] = (statistics.median(
            inputs.tokens / r["call_s"] for r in plain), "tok/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    quality = {k: statistics.median(r["quality"][k] for r in timed)
               for k in timed[0]["quality"]}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "quality": quality, "operations_per_round": inputs.operations,
            "tokens_per_round": inputs.tokens, "rounds": rounds,
            "tracer": recorder}


def _print_table(result: dict) -> None:
    print(f"{result['workload']} seed={result['seed']} trace={int(result['trace'])}"
          f" rounds={len(result['rounds'])} attempted={result['attempted']}"
          f" failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    for name, value in result["quality"].items():
        print(f"  {name:<24} {value:>14.6g} {QUALITY_UNITS[name]}  (checked, unbounded)")


def _write_result(result: dict, env: dict) -> Path:
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    recorder = result.pop("tracer")
    if recorder is not None:
        recorder.dump(out_dir / f"{stem}-spans.jsonl")
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps({"environment": env, **result}, indent=1) + "\n",
                    encoding="utf-8")
    return path


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "syngcn" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/syngcn to benchmark", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), tiny)
    if result is None:
        print(f"error: no round of {args.workload} completed its checks",
              file=sys.stderr)
        return 1
    env = environment()
    _print_table(result)
    print(f"  env: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"blas threads {env['blas_threads']}, nproc {env['nproc']}, "
          f"commit {env['git_commit'][:12]}")
    print(f"  result file: {_write_result(result, env)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
