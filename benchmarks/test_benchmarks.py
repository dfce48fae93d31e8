"""Tests of the benchmark itself: generation, tracing and miniature passes.

Run with ``python -m pytest benchmarks -q`` from the repository root.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import kerrcat  # noqa: E402
import numpy as np  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, inputs_sha  # noqa: E402


def _miniature(name: str, seed: int = 0) -> dict:
    """The workload's inputs with every count and size shrunk, shapes kept."""
    inputs = WORKLOADS[name].generate(seed)
    if name == "gate_search":
        for gate in inputs["gates"]:
            gate["coarse_n"] = 2
        inputs.update(n_samples=101, search_dim=14, search_nodes=3, search_steps=20,
                      final_dim=16, final_nodes=3, final_steps=30)
    elif name == "spectral_scan":
        inputs["config"].update(n_delta=3, n_alpha2=3, fock_dim=16)
    elif name == "noise_ensemble":
        inputs["config"].update(n_traces=2, fock_dim=14)
    else:
        inputs.update(dim=5, n_steps=10)
    return inputs


def _bindings() -> dict:
    """Every attribute of the modules and classes the tracer may patch."""
    owners = [m for n, m in sys.modules.items() if n == "kerrcat" or n.startswith("kerrcat.")]
    owners += [np.linalg, workloads]
    for layer, methods in tracer.LAYER_METHODS.items():
        mod = sys.modules[f"kerrcat.{layer}"]
        owners += [getattr(mod, cls) for cls, _ in methods]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic(name):
    wl = WORKLOADS[name]
    assert wl.generate(3) == wl.generate(3)
    assert inputs_sha(wl.generate(3)) == inputs_sha(wl.generate(3))


@pytest.mark.parametrize("name", sorted(n for n, w in WORKLOADS.items() if w.seeded))
def test_seeds_share_unit_count_but_not_inputs(name):
    wl = WORKLOADS[name]
    a, b = wl.generate(1), wl.generate(2)
    assert wl.expected_units(a) == wl.expected_units(b)
    assert inputs_sha(a) != inputs_sha(b)


def test_seedless_workloads_have_one_reference():
    recorded = json.loads(worker.REFERENCE_FILE.read_text())
    for name, wl in WORKLOADS.items():
        if not wl.seeded:
            assert inputs_sha(wl.generate(1)) == inputs_sha(wl.generate(2))
            assert list(recorded[name]) == ["any"]


def test_tracer_patches_every_binding_and_restores_it():
    import kerrcat.fidelity
    import kerrcat.optimize
    import kerrcat.propagation

    before = _bindings()
    propagate_many = kerrcat.propagation.propagate_many
    average_infidelity = kerrcat.fidelity.average_infidelity
    eigh = np.linalg.eigh
    with tracer.Tracer(extra_modules=[workloads]):
        assert kerrcat.fidelity.propagate_many is kerrcat.propagation.propagate_many
        assert kerrcat.fidelity.propagate_many is not propagate_many
        assert kerrcat.optimize.average_infidelity is kerrcat.fidelity.average_infidelity
        assert kerrcat.optimize.average_infidelity is not average_infidelity
        assert workloads.grid_optimize is kerrcat.optimize.grid_optimize
        assert np.linalg.eigh is not eigh
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_with_only_wraps_just_those_functions():
    import kerrcat.fidelity
    import kerrcat.propagation

    propagate_many = kerrcat.propagation.propagate_many
    eigh = np.linalg.eigh
    with tracer.Tracer(extra_modules=[workloads], only=worker.DEFECT_SOURCES):
        assert kerrcat.fidelity.propagate_many is not propagate_many
        assert np.linalg.eigh is eigh
    assert kerrcat.fidelity.propagate_many is propagate_many


def test_untraced_pass_checks_unitarity(tmp_path, monkeypatch):
    wl = WORKLOADS["gate_search"]
    inputs = _miniature("gate_search")
    record, _ = worker.timed_pass(wl, inputs, tmp_path, reference=None)
    assert record["failures"] == {}
    monkeypatch.setattr(workloads, "UNITARITY_TOL", 0.0)
    record, _ = worker.timed_pass(wl, inputs, tmp_path, reference=None)
    assert set(record["failures"]) == {"X", "Y", "Z"}
    assert record["failed_units"] == record["units"]


def test_normalised_time_scales_by_the_kernel_sets():
    nominal = run.NOMINAL_KERNEL_SET_S
    assert run.normalised(3.0, [nominal, nominal]) == pytest.approx(3.0)
    assert run.normalised(3.0, [1.5 * nominal, 2.5 * nominal]) == pytest.approx(1.5)


def test_tracer_restores_bindings_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracer.Tracer(extra_modules=[workloads]):
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children():
    spans = [tracer.Span("fidelity.average_infidelity", "fidelity", -1, 0.0, 10.0),
             tracer.Span("propagation.propagate_many", "propagation", 0, 1.0, 9.0),
             tracer.Span("linalg.eigh", "linalg", 1, 2.0, 7.0,
                         counts={"matrices": 4, "dim": 3})]
    m = tracer.layer_metrics(spans)
    assert m["fidelity.self_s"] == pytest.approx(2.0)
    assert m["propagation.self_s"] == pytest.approx(3.0)
    assert m["linalg.eigh_s"] == pytest.approx(5.0)
    assert m["linalg.eigh_d3_sum"] == 4 * 27


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_miniature_traced_pass_has_no_failures(name, tmp_path):
    wl = WORKLOADS[name]
    inputs = _miniature(name)
    wl.warm_up(inputs, tmp_path)
    record, spans = worker.traced_pass(wl, inputs, tmp_path, reference=None)
    assert record["failures"] == {}
    assert record["failed_units"] == 0
    assert record["units"] == sum(wl.expected_units(inputs).values())
    assert set(record["metrics"]) == set(tracer.PER_LAYER) - {
        "process.cpu_s", "process.cpu_per_wall", "process.blas_threads",
        "process.wall_1thread_s", "trace.overhead_s"}
    assert spans and all(s.end >= s.start for s in spans)


def test_reference_mismatch_fails_the_group(tmp_path):
    wl = WORKLOADS["twoqubit_full"]
    inputs = _miniature("twoqubit_full")
    outcome = wl.run_pass(inputs, tmp_path)
    reference = {"inputs_sha": inputs_sha(inputs), "values": copy.deepcopy(outcome.values)}
    assert worker.check(wl, inputs, outcome, reference) == {}
    reference["values"]["xx_coefficient"] *= 1.0 + 1e-5
    assert set(worker.check(wl, inputs, outcome, reference)) == {"all"}
    reference["inputs_sha"] = "0"
    assert set(worker.check(wl, inputs, outcome, reference)) == {"all"}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in tracer.PER_LAYER.items()}


def test_run_fails_without_the_program_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "twoqubit_full",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
