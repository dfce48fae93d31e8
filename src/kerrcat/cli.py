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
A config fault exits 1 and a numerical failure exits 2; an ``alpha2``, ``alpha2_A``,
``alpha2_B`` or ``alpha2_list`` entry that is not a finite number >= 0, or a ``T`` or
``T_list`` entry that is not a finite number > 0, is a config fault. The Z_ROBUSTLINE
scheme builds its robust-line table for each sweep point.
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
from .fidelity import average_infidelity
from .fock import FockSpace, KerrCatParams
from .noise import (InvalidNoiseModelError, NoiseModel, default_frequency_grid, filter_weight,
                    monte_carlo_infidelity)
from .optimize import ParamSpace, grid_optimize
from .pulses import (PulseSchedule, SchemeInfeasibleError, gap_traces, scheme_kerr_gate,
                     scheme_x, scheme_xx_envelope, scheme_y_drag, scheme_z_robustline,
                     scheme_z_straight, seed_eps_x0)
from .spectral import (IllConditionedError, NoRobustPointError, RobustLineCache,
                       gap_landscape, robust_line, spectrum_at)
from .twoqubit import (TwoQubitEffectiveModel, echo_xx, makhlin_invariants,
                       phase_optimized_distance, xx_target)


class ConfigError(ValueError):
    pass


COMMANDS = ("spectrum", "gate-sweep", "robust-line", "noise", "twoqubit", "convergence")


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
    # JSON true and false load as bool, a subclass of int, so each check rejects bool itself;
    # keys without a default are checked only when given: one would change every config hash
    for key, low in (("fock_dim", 2), ("n_steps", 1), ("n_nodes", 3), ("n_traces", 1),
                     ("n_delta", 1), ("n_alpha2", 1), ("coarse_n", 1), ("refine_rounds", 0)):
        if key in cfg and (isinstance(cfg[key], bool) or not isinstance(cfg[key], int)
                           or cfg[key] < low):
            raise ConfigError(f"{key} must be an integer >= {low}, got {cfg[key]!r}")
    if cfg["n_nodes"] % 2 == 0:
        raise ConfigError(f"n_nodes must be odd, got {cfg['n_nodes']}")
    if cfg["drag_mode"] not in ("off", "approx", "exact"):
        raise ConfigError(f"drag_mode must be off, approx or exact, got {cfg['drag_mode']!r}")
    # a cat size may be 0, the bare oscillator
    for key, bound in (("delta_max", "> 0"), ("alpha2", ">= 0"), ("alpha2_A", ">= 0"),
                       ("alpha2_B", ">= 0"), ("alpha2_list", ">= 0"), ("T", "> 0"),
                       ("T_list", "> 0")):
        if key not in cfg:
            continue
        listed = key.endswith("_list")
        entries = cfg[key] if listed else [cfg[key]]
        if not (isinstance(entries, list) and entries) or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) or not v < float("inf")
                or not (v > 0 if bound == "> 0" else v >= 0) for v in entries):
            kind = "a non-empty list of finite numbers" if listed else "a finite number"
            raise ConfigError(f"{key} must be {kind} {bound}, got {cfg[key]!r}")
    return cfg


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def _meta(cfg: dict) -> dict:
    return {"version": __version__, "config_hash": config_hash(cfg)}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


# --- schedule builders and bounds --------------------------------------------

def make_builder(scheme: str, alpha2: float, T: float, cfg: dict, space: FockSpace):
    params = KerrCatParams.from_alpha2(alpha2)
    if scheme == "X":
        def build(eps_x0):
            return scheme_x(T, eps_x0, params)
        seed = seed_eps_x0(T, params)
        bounds = {"eps_x0": (0.5 * seed, 1.5 * seed)}
        return build, bounds
    if scheme == "Y_DRAG":
        def build(eps_y0, eps2_ramp0):
            return scheme_y_drag(T, eps_y0, eps2_ramp0, params, space,
                                 drag_mode=cfg["drag_mode"])
        bounds = {"eps_y0": (0.0, cfg["eps_y_bound"]),
                  "eps2_ramp0": (-params.eps2_0, 0.0)}
        if alpha2 == 0:
            bounds["eps2_ramp0"] = (0.0, 0.0)
        return build, bounds
    if scheme == "Z_ROBUSTLINE":
        try:
            rl_cache = RobustLineCache(0.95, max(alpha2, 1.0), space, n_points=40)
        except NoRobustPointError as exc:
            raise SchemeInfeasibleError("no robust-line cache for this cat size") from exc

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


def _configured_schedule(cfg: dict, space: FockSpace, default_scheme: str,
                        seed_x: bool = False) -> tuple[PulseSchedule, float]:
    """The configured ``scheme`` at (``alpha2``, ``T``) built from ``pulse_params``, and ``T``.

    ``pulse_params`` must name exactly the builder's parameters; with ``seed_x``
    an X schedule without them takes the analytic amplitude seed.
    """
    scheme = cfg.get("scheme", default_scheme)
    alpha2 = float(cfg.get("alpha2", 2.0))
    T = float(cfg.get("T", 30.0))
    pulse_params = cfg.get("pulse_params") or {}
    if seed_x and not pulse_params and scheme == "X":
        pulse_params = {"eps_x0": seed_eps_x0(T, KerrCatParams.from_alpha2(alpha2))}
    build, bounds = make_builder(scheme, alpha2, T, cfg, space)
    if set(pulse_params) != set(bounds):
        raise ConfigError(f"scheme {scheme} needs pulse_params with the keys "
                          f"{sorted(bounds)}, got {sorted(pulse_params)}")
    return build(**pulse_params), T


def _sweep_point(scheme: str, alpha2: float, T: float, cfg: dict, space: FockSpace) -> dict:
    record = {"scheme": scheme, "alpha2": alpha2, "T": T, "feasible": True}
    try:
        build, bounds = make_builder(scheme, alpha2, T, cfg, space)
    except SchemeInfeasibleError as exc:
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


def _write_robust_line(path: Path, alpha2s, space: FockSpace, meta: dict,
                       with_gap: bool = False) -> None:
    """One row per cat size with a robust point; ``with_gap`` adds the gap there."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha2", "delta_rob", *(["gap"] if with_gap else []),
                         "version", "config_hash"])
        for a2 in alpha2s:
            try:
                d = robust_line(float(a2), space)
            except (NoRobustPointError, IllConditionedError):
                continue
            gap = ([f"{spectrum_at(KerrCatParams.from_alpha2(a2), d, space).gap:.12g}"]
                   if with_gap else [])
            writer.writerow([f"{a2:.12g}", f"{d:.12g}", *gap,
                             meta["version"], meta["config_hash"]])


# --- subcommands --------------------------------------------------------------

def cmd_spectrum(cfg: dict, out: Path) -> int:
    space = FockSpace(cfg["fock_dim"])
    deltas = np.linspace(0.0, 1.0, cfg.get("n_delta", 50))
    alpha2s = np.linspace(0.0, 3.0, cfg.get("n_alpha2", 50))
    land = gap_landscape(deltas, alpha2s, space)
    out.mkdir(parents=True, exist_ok=True)
    land.to_csv(out / "gap_landscape.csv")
    _write_robust_line(out / "robust_line.csv", alpha2s, space, _meta(cfg))
    return 0


def cmd_robust_line(cfg: dict, out: Path) -> int:
    space = FockSpace(cfg["fock_dim"])
    alpha2s = cfg.get("alpha2_list", [1.0, 1.5, 2.0, 2.5, 3.0])
    out.mkdir(parents=True, exist_ok=True)
    _write_robust_line(out / "robust_line.csv", alpha2s, space, _meta(cfg), with_gap=True)
    return 0


def cmd_gate_sweep(cfg: dict, out: Path) -> int:
    scheme = cfg.get("scheme")
    if scheme is None:
        raise ConfigError("gate-sweep needs a 'scheme' entry")
    space = FockSpace(cfg["fock_dim"])
    meta = _meta(cfg)

    def run(a2, T):
        try:
            return _sweep_point(scheme, float(a2), float(T), cfg, space)
        except ConfigError:
            raise
        except Exception as exc:  # per-point failures recorded, sweep continues
            return {"scheme": scheme, "alpha2": a2, "T": T,
                    "feasible": False, "reason": f"{type(exc).__name__}: {exc}"}

    records = [run(a2, T) for a2 in cfg["alpha2_list"] for T in cfg["T_list"]]
    _write_json(out / "gate_sweep.json", {**meta, "config": cfg, "records": records})
    with open(out / "gate_sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "alpha2", "T", "avg_infidelity", "feasible",
                         "version", "config_hash"])
        for r in records:
            writer.writerow([r["scheme"], r["alpha2"], r["T"],
                             r.get("avg_infidelity", ""), r["feasible"],
                             meta["version"], meta["config_hash"]])
    return 0


def cmd_noise(cfg: dict, out: Path) -> int:
    space = FockSpace(cfg["fock_dim"])
    sched, T = _configured_schedule(cfg, space, "Z_STRAIGHT")
    t, _, deriv = gap_traces(sched, space)
    ff = filter_weight(t, deriv, default_frequency_grid(T))
    out.mkdir(parents=True, exist_ok=True)
    ff.to_csv(out / "filter_weight.csv")
    noise_cfg = cfg.get("noise", {"kind": "ornstein-uhlenbeck",
                                  "parameters": {"sigma": 1e-3, "tau_c": 10 * T},
                                  "seed": cfg["seed"]})
    try:
        model = NoiseModel(**noise_cfg)
    except InvalidNoiseModelError as exc:
        raise ConfigError(f"noise: {exc}") from exc
    result = {**_meta(cfg), "spectral_infidelity": ff.spectral_infidelity(model)}
    if cfg.get("monte_carlo", False):
        result["monte_carlo_infidelity"] = monte_carlo_infidelity(
            sched, model, space, n_traces=cfg.get("n_traces", 100))
    _write_json(out / "noise_report.json", result)
    return 0


def cmd_twoqubit(cfg: dict, out: Path) -> int:
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
    drifts = {}
    for label, dim, steps in (("base", cfg["fock_dim"], cfg["n_steps"]),
                              ("dim2x", 2 * cfg["fock_dim"], cfg["n_steps"]),
                              ("dthalf", cfg["fock_dim"], 2 * cfg["n_steps"])):
        space = FockSpace(dim)
        sched, _ = _configured_schedule(cfg, space, "X", seed_x=True)
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
    parser.add_argument("command", choices=COMMANDS)
    args = parser.parse_args(argv)

    # looked up by name at call time, so a wrapped ``cmd_*`` attribute is the one called
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        cfg = load_config(args.config, {"seed": args.seed, "fock_dim": args.fock_dim})
        return command(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
