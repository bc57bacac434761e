"""Self-tests of the benchmark: ``python -m pytest perfbench``.

Every workload runs at tiny sizes, so the whole file takes seconds.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def scratch_outputs(tmp_path, monkeypatch):
    """Keep work directories and result files out of the checkout."""
    monkeypatch.setattr(run, "HERE", tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_contract_schema(workload, trace, capsys, tmp_path):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], tiny=True)
    assert code == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
    stamp = json.loads((tmp_path / "results" /
                        f"{workload}-seed3-trace{trace}.json").read_text())
    assert {"git_commit", "python", "numpy", "blas", "blas_threads",
            "nproc"} <= set(stamp["environment"])


def test_self_time_subtracts_child_coverage():
    spans = [
        (0.0, 10.0, -1),   # root: children cover [1, 4] and [5, 9]
        (1.0, 4.0, 0),     # child with its own child [2, 3]
        (2.0, 3.0, 1),
        (5.0, 9.0, 0),
        (6.0, 8.0, 3),     # two overlapping grandchildren cover [6, 8.5]
        (7.0, 8.5, 3),
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])


def test_self_time_clips_children_to_parent():
    assert tracer.self_times([(0.0, 2.0, -1), (1.0, 3.0, 0)]) == \
        pytest.approx([1.0, 2.0])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_changes_no_output(workload):
    """Untraced and traced rounds of one seed give the same digests."""
    plain = run.run_workload(workload, 5, 0, trace=False, tiny=True)
    traced = run.run_workload(workload, 5, 0, trace=True, tiny=True)
    digests = {r["digest"] for r in plain["rounds"] + traced["rounds"]}
    assert len(digests) == 1 and "" not in digests
    assert any(r["traced"] for r in traced["rounds"])
    assert plain["failed"] == traced["failed"] == 0
