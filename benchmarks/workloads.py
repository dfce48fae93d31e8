"""The four workloads of the kerrcat gate-design benchmark.

Each workload has four parts:

* ``generate(seed)`` builds the inputs as a JSON-able dict. The same seed
  gives the same inputs; every seed gives the same unit count.
* ``warm_up(inputs, work)`` makes one small call into the workload's entry
  point, so lazy imports, BLAS thread start-up and bytecode caches are paid
  during set-up rather than in the first measured pass.
* ``run_pass(inputs, work)`` runs the workload once and returns a
  :class:`Outcome`: the units of work per group, the values to check and
  any per-group failure.
* ``invariants(inputs, outcome)`` lists the checks that hold for any seed.
* ``cross_checks(inputs, outcome, metrics, spans)`` pairs each traced count
  with the same count read from the outputs or implied by the inputs, so a
  binding the tracer missed shows up as a mismatch.

Units are counted per group (one group per gate in ``gate_search``, one
group elsewhere), so a failed check marks exactly the units it covers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import logm

import kerrcat.cli
from kerrcat.fidelity import average_infidelity
from kerrcat.fock import FockSpace, KerrCatParams
from kerrcat.optimize import INFEASIBLE_SCORE, ParamSpace, grid_optimize
from kerrcat.pulses import (PAULI_X, PAULI_Y, scheme_x, scheme_xx_envelope,
                            scheme_y_drag, scheme_z_straight, seed_eps_x0)
from kerrcat.twoqubit import full_two_mode_propagate, two_mode_computational_projector

from tracer import count_under

#: relative tolerance of the comparison against recorded reference values
REFERENCE_RTOL = 1e-6
#: largest accepted ||U^dag U - 1||_F of a returned propagator
UNITARITY_TOL = 1e-8


@dataclass
class Outcome:
    """What one pass produced.

    ``values`` are compared with the recorded reference; ``health`` values
    are checked by invariants only; ``counts`` are read from the outputs
    for the trace cross-checks; ``failures`` maps a group to why it raised.
    """

    units: dict[str, int]
    values: dict[str, float] = field(default_factory=dict)
    health: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str
    shape: str
    unit: str
    why: str
    generate: Callable[[int], dict]
    warm_up: Callable[[dict, Path], None]
    run_pass: Callable[[dict, Path], Outcome]
    invariants: Callable[[dict, Outcome], list[tuple[str, bool, str]]]
    expected_units: Callable[[dict], dict[str, int]]
    cross_checks: Callable[[dict, Outcome, dict, list], list[tuple[str, float, float]]]
    #: False when the inputs do not depend on the seed; then one reference serves all seeds
    seeded: bool = True


def inputs_sha(inputs: dict) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]


def _finite_in_unit(name: str, value: float) -> tuple[str, bool, str]:
    ok = math.isfinite(value) and 0.0 <= value <= 1.0
    return name, ok, f"{name} = {value!r} is not a finite value in [0, 1]"


def _unitarity_defect(U: np.ndarray) -> float:
    return float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]), ord="fro"))


# --- gate_search --------------------------------------------------------------
#
# Library calls shaped like the acceptance fixtures: a dim-30 grid search
# (5 Simpson nodes) per gate, then a dim-40 re-evaluation (11 nodes) of each
# best schedule. The counts are scaled down from the fixtures (coarse 9/3/5,
# 250 search steps, 500 re-evaluation steps, 801 pulse samples) so that
# several passes fit a run, keeping the fixtures' proportions: about three
# quarters of a pass in the search, and the search time split X : Y : Z
# near 18 : 36 : 46.

GATE_COARSE_N = {"X": 3, "Y": 2, "Z": 3}
GATE_REFINE_ROUNDS = 1
GATE_SEARCH_STEPS = 125
GATE_FINAL_STEPS = 100
GATE_SAMPLES = 401


def _gate_builder(gate: dict, space: FockSpace, n_samples: int):
    params = KerrCatParams.from_alpha2(gate["alpha2"])
    T = gate["T"]
    if gate["name"] == "X":
        return lambda eps_x0: scheme_x(T, eps_x0, params, n_samples=n_samples)
    if gate["name"] == "Y":
        return lambda eps_y0, eps2_ramp0: scheme_y_drag(
            T, eps_y0, eps2_ramp0, params, space, drag_mode="exact", n_samples=n_samples)
    return lambda delta_max, eps2_ramp0: scheme_z_straight(
        T, delta_max, eps2_ramp0, params, n_samples=n_samples)


def _shrunk_box(rng: random.Random, lo: float, hi: float, frac: float) -> list[float]:
    """Move each edge of [lo, hi] inward by a seeded share (at most ``frac``) of the span."""
    span = hi - lo
    return [lo + rng.uniform(0.0, frac) * span, hi - rng.uniform(0.0, frac) * span]


def generate_gate_search(seed: int) -> dict:
    rng = random.Random(f"gate_search/{seed}")
    p2 = KerrCatParams.from_alpha2(2.0)
    x_center = seed_eps_x0(30.0, p2) * (1.0 + rng.uniform(-0.02, 0.02))
    gates = [
        {"name": "X", "alpha2": 2.0, "T": 30.0,
         "bounds": {"eps_x0": [0.8 * x_center, 1.2 * x_center]}},
        # inside the acceptance exact_2 box, where eigenstate tracking holds
        {"name": "Y", "alpha2": 2.0, "T": 20.0,
         "bounds": {"eps_y0": _shrunk_box(rng, 1.0, 1.5, 0.05),
                    "eps2_ramp0": _shrunk_box(rng, -0.75, -0.4, 0.05)}},
        # the full straight-line box, kept inside its feasible region
        {"name": "Z", "alpha2": 2.0, "T": 30.0,
         "bounds": {"delta_max": _shrunk_box(rng, 0.0, 1.0, 0.02),
                    "eps2_ramp0": _shrunk_box(rng, -2.0, 0.0, 0.02)}},
    ]
    for gate in gates:
        gate["coarse_n"] = GATE_COARSE_N[gate["name"]]
    return {
        "gates": gates, "refine_rounds": GATE_REFINE_ROUNDS, "delta_max": 5e-3,
        "n_samples": GATE_SAMPLES, "search_dim": 30, "search_nodes": 5,
        "search_steps": GATE_SEARCH_STEPS, "final_dim": 40, "final_nodes": 11,
        "final_steps": GATE_FINAL_STEPS,
    }


def expected_gate_search(inputs: dict) -> dict[str, int]:
    rounds = inputs["refine_rounds"] + 1
    return {g["name"]: g["coarse_n"] ** len(g["bounds"]) * rounds + 1 for g in inputs["gates"]}


def warm_gate_search(inputs: dict, work: Path) -> None:
    gate = inputs["gates"][0]
    space = FockSpace(inputs["search_dim"])
    build = _gate_builder(gate, space, inputs["n_samples"])
    average_infidelity(build(gate["bounds"]["eps_x0"][0]), space, delta_max=inputs["delta_max"],
                       n_nodes=inputs["search_nodes"], n_steps=inputs["search_steps"])


def pass_gate_search(inputs: dict, work: Path) -> Outcome:
    search = FockSpace(inputs["search_dim"])
    final = FockSpace(inputs["final_dim"])
    out = Outcome(units=expected_gate_search(inputs))
    for gate in inputs["gates"]:
        name = gate["name"]
        try:
            rec = grid_optimize(
                _gate_builder(gate, search, inputs["n_samples"]),
                ParamSpace.from_dict({k: tuple(v) for k, v in gate["bounds"].items()}),
                search, coarse_n=gate["coarse_n"], refine_rounds=inputs["refine_rounds"],
                delta_max=inputs["delta_max"], n_nodes=inputs["search_nodes"],
                n_steps=inputs["search_steps"])
            sched = _gate_builder(gate, final, inputs["n_samples"])(**rec.best_params)
            grid = average_infidelity(sched, final, delta_max=inputs["delta_max"],
                                      n_nodes=inputs["final_nodes"],
                                      n_steps=inputs["final_steps"])
        except Exception as exc:  # a raising gate fails its own units only
            out.failures[name] = f"{type(exc).__name__}: {exc}"
            continue
        out.units[name] = rec.n_evaluations + 1
        out.counts["evaluations"] = out.counts.get("evaluations", 0) + rec.n_evaluations
        out.counts["infeasible"] = out.counts.get("infeasible", 0) + sum(
            h["score"] >= INFEASIBLE_SCORE for h in rec.history)
        out.counts["gates"] = out.counts.get("gates", 0) + 1
        out.values[f"{name}.best_score"] = float(rec.best_score)
        out.values[f"{name}.best_infidelity"] = grid.average
        out.values[f"{name}.worst_node"] = grid.worst
    return out


def invariants_gate_search(inputs: dict, outcome: Outcome) -> list[tuple[str, bool, str]]:
    checks = []
    expected = expected_gate_search(inputs)
    for name in expected:
        if name in outcome.failures:
            continue
        checks.append((name, outcome.units[name] == expected[name],
                       f"{name}: {outcome.units[name]} units, expected {expected[name]}"))
        for key in ("best_score", "best_infidelity", "worst_node"):
            checks.append(_finite_in_unit(name, outcome.values[f"{name}.{key}"]))
    return checks


def cross_gate_search(inputs, outcome, metrics, spans):
    c = outcome.counts
    feasible = c["evaluations"] - c["infeasible"]
    nodes, steps = inputs["search_nodes"], inputs["search_steps"]
    final_nodes, final_steps = inputs["final_nodes"], inputs["final_steps"]
    return [
        ("optimize.evaluations", metrics["optimize.evaluations"], c["evaluations"]),
        ("fidelity.grids", metrics["fidelity.grids"], feasible + c["gates"]),
        ("pulses.schedules_built", metrics["pulses.schedules_built"],
         c["evaluations"] + c["gates"]),
        ("propagation.propagators", metrics["propagation.propagators"],
         feasible * nodes + c["gates"] * final_nodes),
        ("propagation.steps", metrics["propagation.steps"],
         feasible * nodes * steps + c["gates"] * final_nodes * final_steps),
    ]


# --- spectral_scan ------------------------------------------------------------
#
# ``kerrcat spectrum`` in-process at the default dim 40. The command's grids
# are fixed ranges, so this workload has no seeded inputs: every seed runs
# the same landscape, checked against one reference.

SPECTRAL_GRID_N = 20


def generate_spectral_scan(seed: int) -> dict:
    return {"config": {"n_delta": SPECTRAL_GRID_N, "n_alpha2": SPECTRAL_GRID_N}}


def expected_spectral_scan(inputs: dict) -> dict[str, int]:
    return {"all": inputs["config"]["n_delta"] * inputs["config"]["n_alpha2"]}


def _run_cli(command: str, config: dict, work: Path) -> Path:
    out = work / command
    cfg_path = work / f"{command}.json"
    cfg_path.write_text(json.dumps(config, sort_keys=True))
    rc = kerrcat.cli.main(["--config", str(cfg_path), "--out", str(out), command])
    if rc != 0:
        raise RuntimeError(f"kerrcat {command} exited with {rc}")
    return out


def warm_spectral_scan(inputs: dict, work: Path) -> None:
    _run_cli("spectrum", {**inputs["config"], "n_delta": 1, "n_alpha2": 1}, work)


def pass_spectral_scan(inputs: dict, work: Path) -> Outcome:
    out = Outcome(units=expected_spectral_scan(inputs))
    try:
        result_dir = _run_cli("spectrum", inputs["config"], work)
        with open(result_dir / "gap_landscape.csv", newline="") as fh:
            rows = [(float(r["gap"]), float(r["gap_deriv"])) for r in csv.DictReader(fh)]
        with open(result_dir / "robust_line.csv", newline="") as fh:
            line = [(float(r["alpha2"]), float(r["delta_rob"])) for r in csv.DictReader(fh)]
    except Exception as exc:
        out.failures["all"] = f"{type(exc).__name__}: {exc}"
        return out
    gaps = np.array([g for g, _ in rows])
    derivs = np.array([d for _, d in rows])
    weights = 1.0 + np.arange(len(rows)) / max(len(rows), 1)
    out.values["landscape.points"] = float(len(rows))
    out.values["landscape.gap_checksum"] = float(np.sum(weights * gaps))
    out.values["landscape.deriv_checksum"] = float(np.sum(weights * derivs))
    out.values["robust_line.points"] = float(len(line))
    for a2, d in line:
        out.values[f"delta_rob@{a2:.6g}"] = d
    return out


def invariants_spectral_scan(inputs: dict, outcome: Outcome) -> list[tuple[str, bool, str]]:
    if "all" in outcome.failures:
        return []
    n = expected_spectral_scan(inputs)["all"]
    checks = [("all", outcome.values["landscape.points"] == n,
               f"landscape has {outcome.values['landscape.points']:.0f} points, expected {n}")]
    checks.append(("all", outcome.values["robust_line.points"] >= 1,
                   "robust line is empty"))
    for key, value in outcome.values.items():
        checks.append(("all", math.isfinite(value), f"{key} = {value!r} is not finite"))
        if key.startswith("delta_rob@"):
            checks.append(("all", 0.0 < value < 1.0, f"{key} = {value!r} is outside (0, K)"))
    return checks


def cross_spectral_scan(inputs, outcome, metrics, spans):
    cfg = inputs["config"]
    return [
        ("cli.commands", metrics["cli.commands"], 1),
        ("spectral.robust_line_calls", metrics["spectral.robust_line_calls"], cfg["n_alpha2"]),
        ("landscape spectrum_at calls",
         count_under(spans, "spectral.spectrum_at", "spectral.gap_landscape"),
         outcome.values["landscape.points"]),
        ("propagation.calls", metrics["propagation.calls"], 0),
    ]


# --- noise_ensemble -----------------------------------------------------------
#
# ``kerrcat noise`` in-process on the calibrated straight-line Z gate at
# dim 30: OU noise (sigma 1e-2, tau_c 300) seeded from the workload seed,
# Monte-Carlo over traces of 1,000 steps, plus filter weight and spectral
# estimate.

NOISE_TRACES = 16
#: the noise command leaves monte_carlo_infidelity at its default step count
NOISE_MC_STEPS = 1000


def generate_noise_ensemble(seed: int) -> dict:
    return {"config": {
        "scheme": "Z_STRAIGHT", "alpha2": 2.0, "T": 30.0, "fock_dim": 30, "seed": seed,
        "pulse_params": {"delta_max": 0.58872, "eps2_ramp0": -1.07378},
        "noise": {"kind": "ornstein-uhlenbeck",
                  "parameters": {"sigma": 1e-2, "tau_c": 300.0}, "seed": seed},
        "monte_carlo": True, "n_traces": NOISE_TRACES,
    }}


def expected_noise_ensemble(inputs: dict) -> dict[str, int]:
    return {"all": inputs["config"]["n_traces"]}


def warm_noise_ensemble(inputs: dict, work: Path) -> None:
    _run_cli("noise", {**inputs["config"], "n_traces": 1}, work)


def pass_noise_ensemble(inputs: dict, work: Path) -> Outcome:
    out = Outcome(units=expected_noise_ensemble(inputs))
    try:
        report = json.loads((_run_cli("noise", inputs["config"], work)
                             / "noise_report.json").read_text())
    except Exception as exc:
        out.failures["all"] = f"{type(exc).__name__}: {exc}"
        return out
    out.values["monte_carlo_infidelity"] = float(report["monte_carlo_infidelity"])
    out.values["spectral_infidelity"] = float(report["spectral_infidelity"])
    return out


def invariants_noise_ensemble(inputs: dict, outcome: Outcome) -> list[tuple[str, bool, str]]:
    if "all" in outcome.failures:
        return []
    return [_finite_in_unit("all", outcome.values[k])
            for k in ("monte_carlo_infidelity", "spectral_infidelity")]


def cross_noise_ensemble(inputs, outcome, metrics, spans):
    n = inputs["config"]["n_traces"]
    return [
        ("cli.commands", metrics["cli.commands"], 1),
        ("noise.traces_sampled", metrics["noise.traces_sampled"], n),
        ("propagation.propagators", metrics["propagation.propagators"], n),
        ("propagation.steps", metrics["propagation.steps"], n * NOISE_MC_STEPS),
    ]


# --- twoqubit_full ------------------------------------------------------------
#
# Criterion-09 shape: per-mode dim 16 (256 x 256), constant coupling
# envelope of length 10, propagated with g = 0 and g != 0, then projected
# onto the cat pair to extract the XX / YY generator. The step count is
# halved from the criterion's 200 so that several passes fit a run.

TWOQUBIT_STEPS = 100
XX = np.kron(PAULI_X, PAULI_X)
YY = np.kron(PAULI_Y, PAULI_Y)


def generate_twoqubit_full(seed: int) -> dict:
    rng = random.Random(f"twoqubit_full/{seed}")
    return {"alpha2_A": 1.5 + rng.uniform(-0.05, 0.05),
            "alpha2_B": 1.5 + rng.uniform(-0.05, 0.05),
            "g0": 1e-3 * (1.0 + rng.uniform(-0.1, 0.1)),
            "T": 10.0, "n_samples": 201, "dim": 16, "n_steps": TWOQUBIT_STEPS}


def expected_twoqubit_full(inputs: dict) -> dict[str, int]:
    return {"all": 2}


def warm_twoqubit_full(inputs: dict, work: Path) -> None:
    times, g = scheme_xx_envelope(inputs["T"], inputs["g0"], n_samples=inputs["n_samples"],
                                  constant=True)
    p = KerrCatParams.from_alpha2(inputs["alpha2_A"])
    full_two_mode_propagate(p, p, FockSpace(inputs["dim"]), (times, g), n_steps=2)


def pass_twoqubit_full(inputs: dict, work: Path) -> Outcome:
    out = Outcome(units=expected_twoqubit_full(inputs))
    try:
        space = FockSpace(inputs["dim"])
        pa = KerrCatParams.from_alpha2(inputs["alpha2_A"])
        pb = KerrCatParams.from_alpha2(inputs["alpha2_B"])
        times, g = scheme_xx_envelope(inputs["T"], inputs["g0"],
                                      n_samples=inputs["n_samples"], constant=True)
        U0 = full_two_mode_propagate(pa, pb, space, (times, np.zeros_like(g)),
                                     n_steps=inputs["n_steps"])
        Ug = full_two_mode_propagate(pa, pb, space, (times, g), n_steps=inputs["n_steps"])
        P = two_mode_computational_projector(pa, pb, space)
        block = (P.conj().T @ Ug @ P) @ np.linalg.inv(P.conj().T @ U0 @ P)
        gen = 1j * logm(block) / (inputs["g0"] * inputs["T"])
    except Exception as exc:
        out.failures["all"] = f"{type(exc).__name__}: {exc}"
        return out
    out.values["xx_coefficient"] = float(np.real(np.trace(XX @ gen)) / 4.0)
    out.values["yy_coefficient"] = float(np.real(np.trace(YY @ gen)) / 4.0)
    out.health["unitarity_defect_g0"] = _unitarity_defect(U0)
    out.health["unitarity_defect_g"] = _unitarity_defect(Ug)
    return out


def invariants_twoqubit_full(inputs: dict, outcome: Outcome) -> list[tuple[str, bool, str]]:
    if "all" in outcome.failures:
        return []
    checks = [("all", math.isfinite(outcome.values[k]), f"{k} is not finite")
              for k in ("xx_coefficient", "yy_coefficient")]
    for k in ("unitarity_defect_g0", "unitarity_defect_g"):
        v = outcome.health[k]
        checks.append(("all", v < UNITARITY_TOL, f"{k} = {v:.3g} >= {UNITARITY_TOL}"))
    return checks


def cross_twoqubit_full(inputs, outcome, metrics, spans):
    big = inputs["dim"] ** 2
    return [
        ("twoqubit.propagations", metrics["twoqubit.propagations"], 2),
        ("twoqubit.steps", metrics["twoqubit.steps"], 2 * inputs["n_steps"]),
        ("linalg.eigh_dim_max", metrics["linalg.eigh_dim_max"], big),
        ("eigh calls at the two-mode dim",
         sum(s.name == "linalg.eigh" and s.counts["dim"] == big for s in spans),
         2 * inputs["n_steps"]),
    ]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="gate_search",
            entry="kerrcat.optimize.grid_optimize, kerrcat.fidelity.average_infidelity",
            shape="X (T=30), exact-DRAG Y (T=20), straight-line Z (T=30) at alpha^2=2: "
                  f"grid search at dim 30, 5 nodes, {GATE_SEARCH_STEPS} steps, "
                  f"{GATE_SAMPLES} samples, coarse {GATE_COARSE_N}, refine "
                  f"{GATE_REFINE_ROUNDS}; best schedule re-evaluated at dim 40, 11 nodes, "
                  f"{GATE_FINAL_STEPS} steps",
            unit="schedule evaluations (n_evaluations plus one re-evaluation per gate)",
            why="the main user task, standing in for the acceptance suite; dominated by "
                "batched static-offset propagation",
            generate=generate_gate_search, warm_up=warm_gate_search,
            run_pass=pass_gate_search, invariants=invariants_gate_search,
            expected_units=expected_gate_search, cross_checks=cross_gate_search),
        Workload(
            name="spectral_scan",
            entry="kerrcat.cli.main(['spectrum'])",
            shape=f"dim 40, {SPECTRAL_GRID_N}x{SPECTRAL_GRID_N} (delta, alpha^2) landscape "
                  f"plus robust_line at each of {SPECTRAL_GRID_N} alpha^2",
            unit="spectrum points requested (landscape points)",
            why="no propagation at all; bound by per-point labeled-spectrum overhead "
                "over many single-matrix eigh calls",
            generate=generate_spectral_scan, warm_up=warm_spectral_scan,
            run_pass=pass_spectral_scan, invariants=invariants_spectral_scan,
            expected_units=expected_spectral_scan, cross_checks=cross_spectral_scan,
            seeded=False),
        Workload(
            name="noise_ensemble",
            entry="kerrcat.cli.main(['noise'])",
            shape=f"straight-line Z, dim 30, OU sigma 1e-2 tau_c 300, {NOISE_TRACES} traces "
                  "x 1000 steps, filter weight and spectral estimate",
            unit="noise traces propagated",
            why="per-step detuning with one propagator per trace; batching across "
                "traces shows here and not in gate_search",
            generate=generate_noise_ensemble, warm_up=warm_noise_ensemble,
            run_pass=pass_noise_ensemble, invariants=invariants_noise_ensemble,
            expected_units=expected_noise_ensemble, cross_checks=cross_noise_ensemble),
        Workload(
            name="twoqubit_full",
            entry="kerrcat.twoqubit.full_two_mode_propagate",
            shape=f"per-mode dim 16 (256x256), {TWOQUBIT_STEPS} steps, g=0 and g!=0, "
                  "projected generator",
            unit="two-mode propagations",
            why="few large serial eigh calls, the opposite regime to the many small "
                "batched ones elsewhere",
            generate=generate_twoqubit_full, warm_up=warm_twoqubit_full,
            run_pass=pass_twoqubit_full, invariants=invariants_twoqubit_full,
            expected_units=expected_twoqubit_full, cross_checks=cross_twoqubit_full),
    )
}
