"""Smoke test of the benchmark on its tiny variant.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs at a few dozen unknowns against a reference recorded
from the same code, so the test takes about a minute and says nothing
about the full-size reference in ``reference/``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_refs():
    return {w: reference.make_reference(w, size="tiny") for w in WORKLOADS}


def _run(workload, ref, trace=False, seed=DEFAULT_SEED):
    return run.run_workload(workload, seed, 0, trace, ref=ref, size="tiny")


def _assert_printed(result, lines, specs):
    text = "\n".join(lines)
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for metric in specs:
        printed = [line.split() for line in lines
                   if line.split()[:1] == [metric["name"]]]
        assert printed, f"{metric['name']} not printed:\n{text}"
        assert printed[0][2] == metric["unit"]
        assert printed[0][3].startswith("n=")
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload, tiny_refs):
    result, lines, _ = _run(workload, tiny_refs[workload])
    assert result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 2
    _assert_printed(result, lines, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[:1] == ["failed_share"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload, tiny_refs):
    result, lines, spans = _run(workload, tiny_refs[workload], trace=True)
    # correct implies that kernel counts repeated exactly between the
    # traced passes (and that gate_fine computed no exponential)
    assert result["correct"], "\n".join(lines)
    _assert_printed(result, lines, SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "gate_fine":
        assert metrics["semigroup.expm_calls"] == 0
    else:
        assert metrics["semigroup.expm_calls"] > 0
    assert spans and {"name", "start", "end", "parent", "op"} <= set(spans[0])
    # self times account for the traced wall time
    assert 0 <= metrics["trace.unattributed_s"] < 0.05 * metrics["trace.wall_s"]


def test_perturbed_reference_value_counts_as_failure(tiny_refs):
    ref = copy.deepcopy(tiny_refs["ladder_selfadjoint"])
    first = next(iter(ref.values()))
    value = float(first["manifest"]["ultracontractivity.fitted_slope"])
    first["manifest"]["ultracontractivity.fitted_slope"] = repr(value * 1.001)
    result, lines, _ = _run("ladder_selfadjoint", ref)
    passes = result["attempted"] // len(ref)
    assert result["failed"] == passes and not result["correct"]
    assert result["metrics"]["ok_share"]["value"] < 1
    assert any("ultracontractivity.fitted_slope" in line for line in lines)


def test_perturbed_status_and_exit_code_count_as_failures(tiny_refs):
    ref = copy.deepcopy(tiny_refs["gate_fine"])
    (op,) = ref.values()
    op["manifest"]["accretivity.status"] = "failed"
    op["rc"] = 1
    result, lines, _ = _run("gate_fine", ref)
    assert result["failed"] == result["attempted"]
    assert any("status differs" in line and "exit code" in line
               for line in lines)


def test_thread_dependent_keys_checked_only_at_recorded_thread_count(
        tiny_refs):
    ref = copy.deepcopy(tiny_refs["gate_fine"])
    (op,) = ref.values()
    value = float(op["manifest"]["accretivity.lambda_min"])
    op["manifest"]["accretivity.lambda_min"] = repr(value * 1.001)
    op["thread_dependent"] = ["accretivity.lambda_min"]
    result, lines, _ = _run("gate_fine", ref)
    assert result["failed"] == result["attempted"]
    assert any("accretivity.lambda_min" in line for line in lines)

    op["blas_threads"] += 1
    result, lines, _ = _run("gate_fine", ref)
    assert result["correct"], "\n".join(lines)
    assert any("not checked" in line and "thread-dependent" in line
               for line in lines)


def test_operation_failing_several_checks_counts_once(tiny_refs,
                                                      monkeypatch):
    def two_failures(traced, workload):
        (name,) = traced[0]["trace"]["op_kernels"]
        return [(traced[0]["index"], name, "first"),
                (traced[0]["index"], name, "second")]

    monkeypatch.setattr(run, "check_counts", two_failures)
    result, lines, _ = _run("gate_fine", tiny_refs["gate_fine"], trace=True)
    assert result["failed"] == 1 and not result["correct"]
    assert sum("FAILED" in line for line in lines) == 2


def test_raising_operation_counts_as_failure(tiny_refs, monkeypatch):
    build = run.build_operations

    def broken(workload, seed, size):
        ops = build(workload, seed, size)
        # parses, but the cosine kernel refuses a one-dimensional domain
        text = ops[0].text.replace("extents = 1.0, 1.0, 1.0", "extents = 1.0")
        ops[0] = ops[0].__class__(ops[0].name, ops[0].kind, text)
        return ops

    monkeypatch.setattr(run, "build_operations", broken)
    result, lines, _ = _run("ladder_nonsymmetric",
                            tiny_refs["ladder_nonsymmetric"])
    passes = result["attempted"] // len(tiny_refs["ladder_nonsymmetric"])
    assert result["failed"] == passes
    assert any("raised" in line and "cosine kernel" in line for line in lines)


def test_drift_not_reported_as_checked_at_other_seeds(tiny_refs):
    result, lines, _ = _run("gate_fine", tiny_refs["gate_fine"],
                            seed=DEFAULT_SEED + 5)
    assert result["correct"]
    assert any("not checked" in line for line in lines)
    ref = tiny_refs["gate_fine"]
    (op,) = ref.values()
    assert "continuity.max_ratio" in op["seed_dependent"]


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gate_fine",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
