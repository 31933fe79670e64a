"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

The exact-count test runs two traced operations of every workload at
seed 0, about a minute on a 2-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import run as bench
import tracing
import workloads

EXACT_COUNTS = (
    "constitutive.invert.calls",
    "constitutive.invert.points",
    "scenarios.forcing.inversions",
    "dynamics.steps",
    "dynamics.newton_iters_per_step",
    "dynamics.factorizations_per_step",
    "dynamics.lu_fill_nnz",
)


@pytest.fixture(scope="module")
def prog():
    return bench.import_program()


def _entry_point_objects(prog):
    """Every object the tracer may replace, by where it lives."""
    import scipy.sparse.linalg as spla

    found = {"scipy.sparse.linalg.splu": spla.splu}
    for layer, names in tracing.ENTRY_POINTS.items():
        module = getattr(prog, layer)
        for path in names:
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
            found[f"{layer}.{path}"] = owner.__dict__[attr]
    return found


def _traced_operation(prog, wl):
    run = bench.Run(prog, wl, seed=0, seconds=1)
    tracer = tracing.Tracer()
    tracer.install(prog)
    try:
        op = run.operation(traced=True)
    finally:
        tracer.restore()
        run.close()
    assert op.error is None, op.error
    return tracing.layer_metrics(tracer.summary()), op.digests


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(prog, name):
    wl = workloads.WORKLOADS[name]
    first, first_digests = _traced_operation(prog, wl)
    second, second_digests = _traced_operation(prog, wl)
    assert first_digests == second_digests
    for key in EXACT_COUNTS:
        assert first[key] == second[key], key
    assert first["dynamics.steps"][0] > 0
    assert first["constitutive.invert.points"][0] > 0


def test_tracer_restores_every_entry_point(prog):
    before = _entry_point_objects(prog)
    tracer = tracing.Tracer()
    tracer.install(prog)
    try:
        patched = _entry_point_objects(prog)
        assert all(patched[k] is not before[k] for k in before)
        with pytest.raises(ValueError):
            prog.constitutive.invert(
                prog.constitutive.ConstitutiveModel(prog.constitutive.PrototypePotential(2.0)),
                [float("nan")])
    finally:
        tracer.restore()
    after = _entry_point_objects(prog)
    assert all(after[k] is before[k] for k in before)
    # the span of the call that raised is closed and the stack unwound
    assert tracer.end[-1] >= tracer.start[-1] > 0.0
    assert tracer._stack == [-1]


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    tracer.name_of[:] = [0, 1, 1]
    tracer.span_names[:] = ["outer", "inner"]
    tracer.parent[:] = [-1, 0, 0]
    tracer.start[:] = [0.0, 1.0, 4.0]
    tracer.end[:] = [10.0, 3.0, 5.0]
    s = tracer.summary()
    assert s.self_time("outer") == pytest.approx(7.0)
    assert s.self_time("inner") == pytest.approx(3.0)
    assert s.total("outer") == pytest.approx(10.0)
    assert s.under("inner", ["outer"]) == 2


def test_seeds_change_only_alpha_and_beta():
    assert workloads.seeded_coefficients(0) == (1.0, 0.1)
    for wl in workloads.WORKLOADS.values():
        base = wl.config_text(0, "out").splitlines()
        for seed in (1, 2, 12345):
            alpha, beta = workloads.seeded_coefficients(seed)
            assert abs(alpha - 1.0) <= 0.05 and abs(beta / 0.1 - 1.0) <= 0.05
            assert wl.config_text(seed, "out") == wl.config_text(seed, "out")
            other = wl.config_text(seed, "out").splitlines()
            changed = {a.split(" = ")[0] for a, b in zip(base, other) if a != b}
            assert changed <= {"alpha", "beta"}


def _stub_program(main):
    return types.SimpleNamespace(driver=types.SimpleNamespace(main=main))


def test_failures_are_counted_not_fatal(tmp_path):
    wl = workloads.WORKLOADS["sweep1d-rk4"]
    cfg = tmp_path / "config.txt"
    cfg.write_text(wl.config_text(0, str(tmp_path / "out")))

    def blow_up(argv):
        raise ValueError("strain magnitude must be finite and >= 0")

    op = bench.run_operation(_stub_program(blow_up), wl, str(cfg),
                             str(tmp_path / "out"), None)
    assert op.error.startswith("raised ValueError")
    op = bench.run_operation(_stub_program(lambda argv: 2), wl, str(cfg),
                             str(tmp_path / "out"), None)
    assert op.error.startswith("exit code 2")

    def no_output(argv):
        os.makedirs(tmp_path / "out", exist_ok=True)
        return 0

    op = bench.run_operation(_stub_program(no_output), wl, str(cfg),
                             str(tmp_path / "out"), None)
    assert op.error.startswith("outputs unreadable")


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "wave1d-mid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def _benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"), "--workload",
         "wave1d-mid", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_declares_the_workloads():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert doc["run_seconds"] == bench.DEFAULT_SECONDS
