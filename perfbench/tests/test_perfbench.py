"""Self-test of the benchmark on smoke-sized inputs.

    python3 -m pytest perfbench/tests -q

Checks that every named metric is emitted, that traced and untraced answers
agree, that the computed counts repeat exactly, that tracing leaves every
wrapped attribute as it found it, and that the benchmark refuses to run
without qhcover's sources.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from metrics import END_TO_END, METRICS  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def traced():
    return {w: run.run_workload(w, SEED, 0, trace=True, smoke=True) for w in run.WORKLOADS}


def test_benchmark_json_names_the_emitted_metrics():
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in METRICS
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_smoke_emits_every_metric(workload):
    result = run.run_workload(workload, SEED, 0, trace=False, smoke=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(result["samples"]) == 1  # one full sample; the other set-ups run set-up only


def test_traced_smoke_emits_every_layer_metric(traced):
    for workload, result in traced.items():
        assert result["correct"], workload
        assert set(result["metrics"]) == {m.name for m in METRICS}
        assert 0 < result["metrics"]["trace.attributed_frac"]["value"] <= 1
        plain, with_trace = result["samples"]
        assert run._answers(plain) == run._answers(with_trace)
        assert with_trace["restored"] and with_trace["patched"] > 100


def test_computed_counts_repeat_exactly(traced):
    computed = [m.name for m in METRICS if m.computed]
    again = run.run_workload("oracle_sweep", SEED, 0, trace=True, smoke=True)
    first = traced["oracle_sweep"]["metrics"]
    assert {k: first[k]["value"] for k in computed} == {k: again["metrics"][k]["value"] for k in computed}
    assert first["linalg.rref.calls"]["value"] > 0


def _wrapped_attributes() -> list[str]:
    """Attributes of qhcover's modules and classes that are tracer wrappers."""

    def wrapped(v) -> bool:
        return inspect.isfunction(v) and v.__code__.co_filename == tracer.__file__

    found = []
    for name, mod in list(sys.modules.items()):
        if not name.startswith("qhcover"):
            continue
        for attr, value in vars(mod).items():
            if wrapped(value):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("qhcover"):
                found += [f"{name}.{attr}.{k}" for k, v in vars(value).items() if wrapped(v)]
    return found


def test_install_wraps_every_namespace_and_uninstall_restores():
    import qhcover.modules
    import qhcover.reldim
    import workloads  # noqa: F401  (imports every layer module)
    from qhcover.linalg import Mat

    before_hom = qhcover.modules.hom_space
    before_rref = vars(Mat)["rref"]
    assert _wrapped_attributes() == []
    t = tracer.Tracer()
    t.install()
    try:
        # a name bound by ``from .modules import hom_space`` is wrapped too
        assert qhcover.modules.hom_space is not before_hom
        assert qhcover.reldim.hom_space is qhcover.modules.hom_space
        assert vars(Mat)["rref"] is not before_rref
    finally:
        t.uninstall()
    assert t.restored()
    assert qhcover.modules.hom_space is before_hom and qhcover.reldim.hom_space is before_hom
    assert vars(Mat)["rref"] is before_rref
    assert _wrapped_attributes() == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cover_qq", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
