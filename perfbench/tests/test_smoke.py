"""Seconds-long smoke test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs every workload at the tiny size, traced and untraced, and checks the
result line against BENCHMARK.json; checks the speed scaling of op times
and the quantile estimates; proves that a wrong answer counts as a failed
op, that answers do not depend on PYTHONHASHSEED, that the seed changes
the inputs, and that the command fails without koszulkit sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from koszulkit import groebner, koszul, linalg, quotient, resolutions  # noqa: E402


def bench(*args, cwd=ROOT, env=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def tiny(workload, *extra, env=None):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.5", "--size", "tiny",
                 *extra, env=env)
    assert proc.returncode == 0, proc.stderr
    meta_line, result_line = proc.stdout.splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_spec(workload, trace):
    meta, result = tiny(workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, meta
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for value in (v["value"] for v in result["metrics"].values()):
        assert isinstance(value, (int, float)) and value >= 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for key in ("backend", "python", "nproc", "seed", "src_lines", "answer_digest"):
        assert meta[key] not in (None, ""), key
    if trace:
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["trace.spans"] > 0
        if workload == "homology":
            assert layers["resolutions.resolve.calls"] == 0
            assert layers["linalg.kernel.calls"] > 0  # called through koszul's alias
        else:
            assert layers["resolutions.resolve.calls"] > 0
        if workload == "local":
            assert layers["resolutions.resolve.ungraded_share"] == 1.0


def test_install_rebinds_every_alias_and_uninstall_restores():
    kernel, nf = linalg.kernel_of_columns, groebner.normal_form
    undo = tracing.install(tracing.Tracer())
    try:
        for module in (linalg, quotient, koszul, resolutions):
            assert module.kernel_of_columns is not kernel
        assert quotient.normal_form is groebner.normal_form is not nf
    finally:
        tracing.uninstall(undo)
    for module in (linalg, quotient, koszul, resolutions):
        assert module.kernel_of_columns is kernel
    assert quotient.normal_form is groebner.normal_form is nf


def test_wrong_expected_answer_counts_as_failed(monkeypatch):
    real = workloads.series.expand
    monkeypatch.setattr(workloads.series, "expand",
                        lambda f, limit: [c + 1 for c in real(f, limit)])
    tasks = workloads.make_tasks("local", 1, "tiny")
    result = run.run_pass(tasks)
    assert len(result.latencies) == sum(len(t.ops) for t in tasks)  # the run went on
    assert [name for _slot, _label, name, _err in result.failures] == ["betti_k"] * len(tasks)
    assert all("wrong" in a for a in result.answers if a.split(": ")[0].endswith("/betti_k"))


def test_times_are_scaled_by_the_probes_around_them():
    ref = run.REFERENCE_PROBE_S
    assert run.scale(2.0, [ref] * 3, [ref] * 3) == pytest.approx(2.0)
    assert run.scale(2.0, [2 * ref] * 3, [2 * ref] * 3) == pytest.approx(1.0)
    result = run.run_pass(workloads.make_tasks("resolve", 1, "tiny"))
    assert len(result.probes) == run.PROBE_REPEATS * (len(result.raw) + 1)


def test_quantiles_are_harrell_davis_estimates():
    x = 0.3
    assert run._betainc(1, 1, x) == pytest.approx(x)
    assert run._betainc(2.5, 1, x) == pytest.approx(x ** 2.5)
    assert run._betainc(1, 4, x) == pytest.approx(1 - (1 - x) ** 4)
    assert run.quantile([2.0] * 9, 0.5) == pytest.approx(2.0)
    assert run.quantile([1, 2, 3, 4, 5], 0.5) == pytest.approx(3.0)
    assert run.quantile([1, 2, 3, 40, 50], 0.5) < run.quantile([1, 2, 30, 40, 50], 0.5)
    assert run.tail(list(range(5))) == (4, 100.0)
    value, level = run.tail(list(range(40)))
    assert level == 75.0 and 28 < value < 31


@pytest.mark.parametrize("workload", WORKLOADS)
def test_answers_do_not_depend_on_hash_seed(workload):
    metas = [tiny(workload, env=dict(os.environ, PYTHONHASHSEED=h))[0] for h in ("1", "2")]
    for key in ("ops", "input_digest", "answer_digest"):
        assert metas[0][key] == metas[1][key], key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs(workload):
    texts = {workloads.describe_inputs(workloads.make_tasks(workload, seed, "tiny"))
             for seed in (1, 2)}
    assert len(texts) == 2


def test_fails_without_koszulkit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
