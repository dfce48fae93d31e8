"""Command-line front end: sweeps, spectra, noise analysis, diagnostics.

Subcommands
    spectrum     gap landscape and robust-line polyline as CSV
    robust-line  robust detuning versus cat size
    gate-sweep   optimized infidelity over (alpha^2, T) grids per scheme
    noise        filter weighting and spectral/Monte-Carlo infidelity
    twoqubit     effective-model versus full two-mode validation
    convergence  truncation and step-size drift on sampled points

Configs are JSON files; a handful of named presets reproduce the standard
sweep families. Every output carries the package version and a hash of the
resolved config, and reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cats import matrix_elements
from .fidelity import average_infidelity
from .fock import FockSpace, KerrCatParams
from .noise import (NoiseModel, default_frequency_grid, filter_weight, monte_carlo_infidelity,
                    spectral_average_infidelity)
from .optimize import ParamSpace, grid_optimize
from .pulses import (SchemeInfeasibleError, gap_traces, scheme_kerr_gate, scheme_x,
                     scheme_xx_envelope, scheme_y_drag, scheme_z_robustline, scheme_z_straight,
                     seed_eps_x0)
from .spectral import (IllConditionedError, NoRobustPointError, RobustLineCache,
                       gap_landscape, robust_line)


class ConfigError(ValueError):
    pass


PRESETS = {
    "fig2bc": {
        "scheme": "X",
        "alpha2_list": [0.0, 1.0, 2.0, 3.0],
        "T_list": [10.0, 20.0, 30.0, 40.0, 50.0],
    },
    "fig2ef": {
        "scheme": "Y_DRAG",
        "alpha2_list": [0.0, 1.0, 2.0, 3.0],
        "T_list": [10.0, 20.0, 30.0, 40.0, 50.0],
        "drag_mode": "approx",
    },
    "fig3cd": {
        "scheme": "Z_ROBUSTLINE",
        "alpha2_list": [1.0, 2.0, 3.0],
        "T_list": [25.0, 30.0, 40.0, 50.0],
    },
    "figS1": {
        "scheme": "Y_DRAG",
        "alpha2_list": [0.0, 1.0, 2.0, 3.0],
        "T_list": [10.0, 20.0, 30.0, 40.0, 50.0],
        "drag_mode": "approx",
        "eps_y_bound": 1.0,
    },
    "figS2": {
        "scheme": "Z_STRAIGHT",
        "alpha2_list": [1.0, 2.0, 3.0],
        "T_list": [10.0, 20.0, 30.0, 40.0, 50.0],
    },
}

DEFAULTS = {
    "delta_max": 5e-3,
    "fock_dim": 40,
    "seed": 0,
    "n_steps": 500,
    "n_nodes": 11,
    "coarse_n": 21,
    "refine_rounds": 2,
    "eps_y_bound": 10.0,
    "drag_mode": "approx",
    "feasibility_threshold": 1e-3,
}


def load_config(spec: str | None, overrides: dict) -> dict:
    cfg = dict(DEFAULTS)
    if spec is not None:
        if spec in PRESETS:
            cfg.update(copy.deepcopy(PRESETS[spec]))
        else:
            path = Path(spec)
            if not path.exists():
                raise ConfigError(f"config {spec!r} is neither a preset nor a file")
            try:
                cfg.update(json.loads(path.read_text()))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed config: {exc}") from exc
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    if cfg.get("delta_max", 1.0) <= 0:
        raise ConfigError("delta_max must be positive")
    for key in ("alpha2_list", "T_list"):
        if key in cfg and not cfg[key]:
            raise ConfigError(f"{key} must be non-empty")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _meta(cfg: dict) -> dict:
    return {"version": __version__, "config_hash": config_hash(cfg)}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


# --- schedule builders and bounds --------------------------------------------

def make_builder(scheme: str, alpha2: float, T: float, cfg: dict,
                 space: FockSpace, rl_cache=None):
    params = KerrCatParams.from_alpha2(alpha2)
    if scheme == "X":
        def build(eps_x0):
            return scheme_x(T, eps_x0, params)
        seed = seed_eps_x0(T, params)
        bounds = {"eps_x0": (0.5 * seed, 1.5 * seed)}
        return build, bounds
    if scheme == "Y_DRAG":
        mode = cfg.get("drag_mode", "approx")

        def build(eps_y0, eps2_ramp0):
            return scheme_y_drag(T, eps_y0, eps2_ramp0, params, space, drag_mode=mode)
        bounds = {"eps_y0": (0.0, cfg.get("eps_y_bound", 10.0)),
                  "eps2_ramp0": (-params.eps2_0, 0.0)}
        if alpha2 == 0:
            bounds["eps2_ramp0"] = (0.0, 0.0)
        return build, bounds
    if scheme == "Z_ROBUSTLINE":
        if rl_cache is None:
            raise SchemeInfeasibleError("no robust-line cache for this cat size")

        def build(tau, eps2_ramp0):
            return scheme_z_robustline(T, tau, eps2_ramp0, params, rl_cache)
        bounds = {"tau": (0.05 * T, 0.45 * T),
                  "eps2_ramp0": (-params.eps2_0, 0.0)}
        return build, bounds
    if scheme == "Z_STRAIGHT":
        def build(delta_max, eps2_ramp0):
            return scheme_z_straight(T, delta_max, eps2_ramp0, params)
        bounds = {"delta_max": (0.0, 1.0),
                  "eps2_ramp0": (-params.eps2_0, 0.0)}
        return build, bounds
    if scheme == "KERR_GATE":
        def build():
            return scheme_kerr_gate(params, space=space)
        return build, {}
    raise ConfigError(f"unknown scheme {scheme!r}")


def _robust_line_cache(alpha2: float, space: FockSpace) -> RobustLineCache:
    return RobustLineCache(0.95, max(alpha2, 1.0), space, n_points=40)


def _build_schedule(scheme: str, build, bounds: dict, pulse_params: dict):
    """The schedule for ``pulse_params``, which must name exactly the builder's parameters."""
    if set(pulse_params) != set(bounds):
        raise ConfigError(f"scheme {scheme} needs pulse_params with the keys "
                          f"{sorted(bounds)}, got {sorted(pulse_params)}")
    return build(**pulse_params)


def _sweep_point(scheme: str, alpha2: float, T: float, cfg: dict,
                 space: FockSpace, rl_cache) -> dict:
    record = {"scheme": scheme, "alpha2": alpha2, "T": T, "feasible": True}
    try:
        build, bounds = make_builder(scheme, alpha2, T, cfg, space, rl_cache)
    except (SchemeInfeasibleError, ConfigError) as exc:
        record.update({"feasible": False, "reason": str(exc)})
        return record
    if bounds:
        opt = grid_optimize(
            build, ParamSpace.from_dict(bounds), space,
            coarse_n=cfg["coarse_n"], refine_rounds=cfg["refine_rounds"],
            delta_max=cfg["delta_max"], n_nodes=cfg["n_nodes"],
            n_steps=cfg["n_steps"],
        )
        record["best_params"] = opt.best_params
        record["n_evaluations"] = opt.n_evaluations
        sched = build(**opt.best_params)
    else:
        record["best_params"] = {}
        sched = build()
    grid = average_infidelity(sched, space, delta_max=cfg["delta_max"],
                              n_nodes=cfg["n_nodes"], n_steps=2 * cfg["n_steps"])
    record["avg_infidelity"] = grid.average
    record["worst_infidelity"] = grid.worst
    record["infidelity_trace"] = [
        {"delta": float(d), "infidelity": float(i)}
        for d, i in zip(grid.delta_nodes, grid.infidelities)
    ]
    if record["avg_infidelity"] > cfg["feasibility_threshold"] and scheme.startswith("Z"):
        record["feasible"] = False
        record["reason"] = "optimum above feasibility threshold"
    return record


# --- subcommands --------------------------------------------------------------

def cmd_spectrum(cfg: dict, out: Path) -> int:
    space = FockSpace(cfg["fock_dim"])
    deltas = np.linspace(0.0, 1.0, int(cfg.get("n_delta", 50)))
    alpha2s = np.linspace(0.0, 3.0, int(cfg.get("n_alpha2", 50)))
    land = gap_landscape(deltas, alpha2s, space)
    out.mkdir(parents=True, exist_ok=True)
    land.to_csv(out / "gap_landscape.csv")
    meta = _meta(cfg)
    with open(out / "robust_line.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha2", "delta_rob", "version", "config_hash"])
        for a2 in alpha2s:
            try:
                writer.writerow([f"{a2:.12g}", f"{robust_line(float(a2), space):.12g}",
                                 meta["version"], meta["config_hash"]])
            except (NoRobustPointError, IllConditionedError):
                continue
    return 0


def cmd_robust_line(cfg: dict, out: Path) -> int:
    space = FockSpace(cfg["fock_dim"])
    alpha2s = cfg.get("alpha2_list", [1.0, 1.5, 2.0, 2.5, 3.0])
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(cfg)
    with open(out / "robust_line.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha2", "delta_rob", "gap", "version", "config_hash"])
        for a2 in alpha2s:
            try:
                d = robust_line(float(a2), space)
            except (NoRobustPointError, IllConditionedError):
                continue
            from .spectral import spectrum_at
            spec = spectrum_at(KerrCatParams.from_alpha2(a2), d, space)
            writer.writerow([f"{a2:.12g}", f"{d:.12g}", f"{spec.gap:.12g}",
                             meta["version"], meta["config_hash"]])
    return 0


def cmd_gate_sweep(cfg: dict, out: Path) -> int:
    scheme = cfg.get("scheme")
    if scheme is None:
        raise ConfigError("gate-sweep needs a 'scheme' entry")
    space = FockSpace(cfg["fock_dim"])
    rl_caches: dict[float, RobustLineCache | None] = {}
    if scheme == "Z_ROBUSTLINE":
        for a2 in cfg["alpha2_list"]:
            try:
                rl_caches[a2] = _robust_line_cache(float(a2), space)
            except NoRobustPointError:
                rl_caches[a2] = None

    def run(a2, T):
        try:
            return _sweep_point(scheme, float(a2), float(T), cfg, space,
                                rl_caches.get(a2))
        except Exception as exc:  # per-point failures recorded, sweep continues
            return {"scheme": scheme, "alpha2": a2, "T": T,
                    "feasible": False, "reason": f"{type(exc).__name__}: {exc}"}

    records = [run(a2, T) for a2 in cfg["alpha2_list"] for T in cfg["T_list"]]
    payload = {**_meta(cfg), "config": cfg, "records": records}
    _write_json(out / "gate_sweep.json", payload)
    with open(out / "gate_sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "alpha2", "T", "avg_infidelity", "feasible",
                         "version", "config_hash"])
        for r in records:
            writer.writerow([r["scheme"], r["alpha2"], r["T"],
                             r.get("avg_infidelity", ""), r["feasible"],
                             __version__, config_hash(cfg)])
    return 0


def cmd_noise(cfg: dict, out: Path) -> int:
    scheme = cfg.get("scheme", "Z_STRAIGHT")
    alpha2 = float(cfg.get("alpha2", 2.0))
    T = float(cfg.get("T", 30.0))
    space = FockSpace(cfg["fock_dim"])
    rl_cache = _robust_line_cache(alpha2, space) if scheme == "Z_ROBUSTLINE" else None
    build, bounds = make_builder(scheme, alpha2, T, cfg, space, rl_cache)
    sched = _build_schedule(scheme, build, bounds, cfg.get("pulse_params") or {})
    omegas = default_frequency_grid(T)
    t, _, slope = gap_traces(sched, space)
    deriv = (t, slope)
    ff = filter_weight(sched, omegas, space, deriv_trace=deriv)
    out.mkdir(parents=True, exist_ok=True)
    ff.to_csv(out / "filter_weight.csv")
    noise_cfg = cfg.get("noise", {"kind": "ornstein-uhlenbeck",
                                  "parameters": {"sigma": 1e-3, "tau_c": 10 * T},
                                  "seed": cfg["seed"]})
    model = NoiseModel(**noise_cfg)
    result = {**_meta(cfg),
              "spectral_infidelity": spectral_average_infidelity(
                  sched, model, omegas, space, deriv_trace=deriv)}
    if cfg.get("monte_carlo", False):
        result["monte_carlo_infidelity"] = monte_carlo_infidelity(
            sched, model, space, n_traces=int(cfg.get("n_traces", 100)))
    _write_json(out / "noise_report.json", result)
    return 0


def cmd_twoqubit(cfg: dict, out: Path) -> int:
    from .twoqubit import (TwoQubitEffectiveModel, echo_xx, makhlin_invariants,
                           phase_optimized_distance, xx_target)

    a2a = float(cfg.get("alpha2_A", 2.0))
    a2b = float(cfg.get("alpha2_B", 2.0))
    theta = float(cfg.get("theta", np.pi / 2))
    env = scheme_xx_envelope(float(cfg.get("T", 20.0)), 1.0, n_samples=401)
    model = TwoQubitEffectiveModel(
        params_A=KerrCatParams.from_alpha2(a2a),
        params_B=KerrCatParams.from_alpha2(a2b),
        envelope=env, phase=float(cfg.get("phase", 0.0)))
    U = echo_xx(theta, model)
    g1, g2 = makhlin_invariants(U)
    payload = {**_meta(cfg),
               "echo_distance": phase_optimized_distance(U, xx_target(theta)),
               "makhlin_g1": [g1.real, g1.imag], "makhlin_g2": g2,
               "h_elems": list(model.h_elems)}
    _write_json(out / "twoqubit_report.json", payload)
    return 0


def cmd_convergence(cfg: dict, out: Path) -> int:
    scheme = cfg.get("scheme", "X")
    alpha2 = float(cfg.get("alpha2", 2.0))
    T = float(cfg.get("T", 30.0))
    pulse_params = cfg.get("pulse_params") or {}
    if not pulse_params and scheme == "X":
        pulse_params = {"eps_x0": seed_eps_x0(T, KerrCatParams.from_alpha2(alpha2))}
    drifts = {}
    for label, dim, steps in (("base", cfg["fock_dim"], cfg["n_steps"]),
                              ("dim2x", 2 * cfg["fock_dim"], cfg["n_steps"]),
                              ("dthalf", cfg["fock_dim"], 2 * cfg["n_steps"])):
        space = FockSpace(dim)
        rl_cache = _robust_line_cache(alpha2, space) if scheme == "Z_ROBUSTLINE" else None
        build, bounds = make_builder(scheme, alpha2, T, cfg, space, rl_cache)
        sched = _build_schedule(scheme, build, bounds, pulse_params)
        grid = average_infidelity(sched, space, delta_max=cfg["delta_max"],
                                  n_nodes=cfg["n_nodes"], n_steps=steps)
        drifts[label] = grid.average
    drift = max(abs(drifts["dim2x"] - drifts["base"]),
                abs(drifts["dthalf"] - drifts["base"]))
    payload = {**_meta(cfg), "values": drifts, "max_drift": drift,
               "pass": drift < float(cfg.get("drift_tol", 1e-8))}
    _write_json(out / "convergence_report.json", payload)
    return 0


# --- entry point ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="kerrcat",
                                     description="Kerr-cat qubit gate simulation toolkit")
    parser.add_argument("--config", help="JSON config path or preset name "
                        f"({', '.join(PRESETS)})")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--fock-dim", type=int, dest="fock_dim")
    parser.add_argument("command", choices=["spectrum", "gate-sweep", "robust-line",
                                            "noise", "twoqubit", "convergence"])
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, {"seed": args.seed, "fock_dim": args.fock_dim})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    try:
        if args.command == "spectrum":
            return cmd_spectrum(cfg, out)
        if args.command == "robust-line":
            return cmd_robust_line(cfg, out)
        if args.command == "gate-sweep":
            return cmd_gate_sweep(cfg, out)
        if args.command == "noise":
            return cmd_noise(cfg, out)
        if args.command == "twoqubit":
            return cmd_twoqubit(cfg, out)
        if args.command == "convergence":
            return cmd_convergence(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
