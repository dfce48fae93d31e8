import json
from unittest import mock

import pytest

from kerrcat import cli, noise
from kerrcat.cli import (ConfigError, DEFAULTS, PRESETS, config_hash,
                         load_config, main)


def test_presets_complete():
    for name, preset in PRESETS.items():
        cfg = load_config(name, {})
        assert "scheme" in cfg
        assert cfg["alpha2_list"]
        assert cfg["T_list"]
        # defaults filled in
        assert cfg["fock_dim"] == DEFAULTS["fock_dim"]


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scheme": "X", "alpha2_list": [2.0], "T_list": [10.0]}))
    cfg = load_config(str(path), {"fock_dim": 12, "seed": None})
    assert cfg["fock_dim"] == 12
    assert cfg["seed"] == DEFAULTS["seed"]
    assert cfg["scheme"] == "X"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config("no-such-preset-or-file", {})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad), {})
    for i, entries in enumerate([{"delta_max": -1.0}, {"delta_max": "1e-3"},
                                 {"delta_max": float("nan")}, {"delta_max": float("inf")},
                                 {"alpha2_list": []},
                                 {"n_nodes": 4}, {"n_nodes": 1}, {"n_steps": 0},
                                 {"fock_dim": 1}, {"n_traces": 0}, {"n_traces": 2.5},
                                 {"n_delta": -1}, {"n_delta": "abc"}, {"n_delta": 2.5},
                                 {"n_alpha2": 0}, {"n_alpha2": "abc"}, {"n_alpha2": 2.5},
                                 {"delta_max": True}, {"fock_dim": True}, {"n_steps": True},
                                 {"n_nodes": True}, {"n_traces": True}, {"n_delta": True},
                                 {"n_alpha2": True}, {"n_steps": False},
                                 {"coarse_n": 0}, {"coarse_n": 2.5}, {"coarse_n": True},
                                 {"refine_rounds": -1}, {"refine_rounds": "2"},
                                 {"refine_rounds": False}, {"drag_mode": "exactt"},
                                 {"drag_mode": None},
                                 {"alpha2": -1}, {"alpha2": "2"}, {"alpha2": True},
                                 {"alpha2": float("nan")}, {"alpha2_A": -0.5},
                                 {"alpha2_B": float("inf")}, {"alpha2_list": [2.0, -1.0]},
                                 {"alpha2_list": ["a"]}, {"alpha2_list": [False]},
                                 {"alpha2_list": 2.0}, {"T": 0}, {"T": "abc"},
                                 {"T": float("inf")}, {"T": True}, {"T_list": [-5.0]},
                                 {"T_list": [0.0]}, {"T_list": [30.0, float("nan")]},
                                 {"T_list": []}]):
        path = tmp_path / f"invalid{i}.json"
        path.write_text(json.dumps(entries))
        with pytest.raises(ConfigError, match=next(iter(entries))):
            load_config(str(path), {})
    with pytest.raises(ConfigError, match="fock_dim"):
        load_config(None, {"fock_dim": 1})


def test_n_traces_is_no_default():
    # a default would enter every command's config hash
    assert "n_traces" not in load_config(None, {})
    assert load_config(None, {"n_traces": 3})["n_traces"] == 3


NOISE_CONFIG = {"scheme": "Z_STRAIGHT", "fock_dim": 12,
                "pulse_params": {"delta_max": 0.4, "eps2_ramp0": -0.5}}


@pytest.mark.parametrize("entries, message", [
    ({"monte_carlo": True, "n_traces": 0}, "n_traces"),
    ({"noise": {"kind": "ornstein-uhlenbeck", "parameters": {"tau_c": 10.0}}}, "sigma"),
    ({"noise": {"kind": "gaussian-quasistatic", "parameters": {"sigma": -1e-3}}}, "sigma"),
    ({"noise": {"kind": "static", "parameters": {}}}, "value"),
    ({"noise": {"kind": "ornstein-uhlenbeck",
                "parameters": {"sigma": float("nan"), "tau_c": 10.0}}}, "sigma"),
    ({"noise": {"kind": "ornstein-uhlenbeck",
                "parameters": {"sigma": 1e-3, "tau_c": float("inf")}}}, "tau_c"),
    ({"noise": {"kind": "static", "parameters": {"value": float("nan")}}}, "value"),
    ({"noise": {"kind": "tabulated-psd",
                "parameters": {"omegas": [0.0, float("inf")], "psd": [1.0, 1.0]}}}, "omegas"),
    ({"noise": {"kind": "tabulated-psd",
                "parameters": {"omegas": [0.0, 1.0], "psd": [1.0, float("nan")]}}}, "psd"),
    ({"noise": {"kind": "gaussian-quasistatic", "parameters": {"sigma": "1e-3"}}}, "sigma"),
    ({"noise": {"kind": "tabulated-psd",
                "parameters": {"omegas": [0.0, 1.0, 2.0], "psd": [1.0, 1.0]}}}, "omegas"),
    ({"noise": {"kind": "static", "parameters": {"value": 1e-3}, "seed": -1}}, "seed"),
    ({"noise": {"kind": "static", "parameters": {"value": 1e-3}, "seed": 1.5}}, "seed"),
    ({"noise": {"kind": "tabulated-psd",
                "parameters": {"omegas": [2.0, 1.0, 0.0], "psd": [3.0, 2.0, 1.0]}}}, "omegas"),
    ({"alpha2": -1}, "alpha2"),
    ({"T": "abc"}, "T"),
    ({"noise": {"kind": "tabulated-psd",
                "parameters": {"omegas": [0, True], "psd": [1, 1]}}}, "omegas"),
])
def test_noise_config_faults_exit_1(tmp_path, capsys, entries, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**NOISE_CONFIG, **entries}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "noise"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err


def test_noise_command_computes_filter_weight_once(tmp_path):
    calls = []
    filter_weight = noise.filter_weight

    def counted(*args, **kwargs):
        calls.append(args)
        return filter_weight(*args, **kwargs)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(NOISE_CONFIG))
    with mock.patch.object(cli, "filter_weight", counted), \
            mock.patch.object(noise, "filter_weight", counted):
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "noise"]) == 0
    assert len(calls) == 1


def test_config_hash_deterministic():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b
    assert len(a) == 16
    assert a != config_hash({"x": 2, "y": [1, 2]})


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["--config", "missing.json", "spectrum"]) == 1
    assert "config error" in capsys.readouterr().err
    # JSON true is a bool, not a point count
    cfg = tmp_path / "bool.json"
    cfg.write_text('{"n_delta": true}')
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 1
    assert "n_delta" in capsys.readouterr().err
    assert not out.exists()


def test_gate_sweep_unknown_scheme_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "Q", "alpha2_list": [2.0], "T_list": [15.0],
                               "fock_dim": 14}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "gate-sweep"]) == 1
    assert "unknown scheme 'Q'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entries", [{"coarse_n": 0}, {"refine_rounds": -1},
                                     {"drag_mode": "exactt"}, {"T_list": [-5.0]},
                                     {"alpha2_list": [-1.0]}, {"alpha2_list": ["a"]}])
def test_gate_sweep_config_fault_exits_1(tmp_path, capsys, entries):
    # each would otherwise record every point as a failure and exit 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "Y_DRAG", "alpha2_list": [2.0], "T_list": [15.0],
                               "fock_dim": 14, **entries}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "gate-sweep"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and next(iter(entries)) in err
    assert not out.exists()


def test_robust_line_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fock_dim": 25, "alpha2_list": [1.5, 2.0]}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "robust-line"]) == 0
    rows = (out / "robust_line.csv").read_text().strip().splitlines()
    assert rows[0].startswith("alpha2,delta_rob,gap")
    assert len(rows) == 3
    d15 = float(rows[1].split(",")[1])
    assert d15 == pytest.approx(0.3503, abs=2e-3)


def test_spectrum_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fock_dim": 20, "n_delta": 6, "n_alpha2": 5}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 0
    land = (out / "gap_landscape.csv").read_text().strip().splitlines()
    assert land[0] == "delta,alpha2,gap,gap_deriv"
    assert len(land) == 1 + 6 * 5


@pytest.mark.parametrize("entries", [{"n_delta": -1}, {"n_alpha2": "abc"},
                                     {"delta_max": "1e-3"}])
def test_spectrum_config_fault_exits_1(tmp_path, capsys, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fock_dim": 8, **entries}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "spectrum"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


RERUN_CASES = [
    ("spectrum", {"fock_dim": 16, "n_delta": 3, "n_alpha2": 4}),
    ("robust-line", {"fock_dim": 16, "alpha2_list": [1.5, 2.0]}),
    # at dim 8 the robust-line table cannot be built, so every point is infeasible
    ("gate-sweep", {"scheme": "Z_ROBUSTLINE", "alpha2_list": [2.0], "T_list": [25.0],
                    "fock_dim": 8}),
    ("noise", {"scheme": "Z_STRAIGHT", "fock_dim": 12, "monte_carlo": True, "n_traces": 2,
               "pulse_params": {"delta_max": 0.4, "eps2_ramp0": -0.5}}),
    ("twoqubit", {"alpha2_A": 2.0, "alpha2_B": 1.5, "T": 15.0}),
    ("convergence", {"scheme": "X", "alpha2": 2.0, "T": 15.0, "fock_dim": 8,
                     "n_steps": 40, "n_nodes": 3}),
]


@pytest.mark.parametrize("command, config", RERUN_CASES, ids=[c for c, _ in RERUN_CASES])
def test_command_reruns_byte_identical(tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(cfg), "--out", str(out1), command]) == 0
    assert main(["--config", str(cfg), "--out", str(out2), command]) == 0
    files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    assert files
    assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    if command == "twoqubit":
        report = json.loads((out1 / "twoqubit_report.json").read_bytes())
        assert report["echo_distance"] < 1e-10
        assert "config_hash" in report
    if command == "gate-sweep":
        records = json.loads((out1 / "gate_sweep.json").read_bytes())["records"]
        assert [r["reason"] for r in records] == ["no robust-line cache for this cat size"]


def test_convergence_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scheme": "X", "alpha2": 2.0, "T": 15.0,
        "fock_dim": 14, "n_steps": 150, "n_nodes": 3,
        "drift_tol": 1e-2,
    }))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "convergence"]) == 0
    report = json.loads((out / "convergence_report.json").read_text())
    assert set(report["values"]) == {"base", "dim2x", "dthalf"}
    assert report["max_drift"] >= 0.0


@pytest.mark.parametrize("scheme, extra", [
    ("KERR_GATE", {}),
    ("Z_ROBUSTLINE", {"T": 40.0, "pulse_params": {"tau": 5.0, "eps2_ramp0": -0.5}}),
    ("Z_STRAIGHT", {"pulse_params": {"delta_max": 0.4, "eps2_ramp0": -0.5}}),
    ("Y_DRAG", {"pulse_params": {"eps_y0": 0.3, "eps2_ramp0": -0.5}}),
])
def test_convergence_other_schemes(tmp_path, scheme, extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": scheme, "alpha2": 2.0, "T": 15.0, "fock_dim": 14,
                               "n_steps": 150, "n_nodes": 3, **extra}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "convergence"]) == 0
    report = json.loads((out / "convergence_report.json").read_text())
    assert all(0.0 <= v < 1.0 for v in report["values"].values())


@pytest.mark.parametrize("command", ["convergence", "noise"])
@pytest.mark.parametrize("scheme, pulse_params, key", [
    ("Y_DRAG", None, "eps2_ramp0"),
    ("Z_STRAIGHT", {"delta_max": 0.4}, "eps2_ramp0"),
    ("X", {"eps_x": 0.1}, "eps_x0"),
])
def test_pulse_params_checked(tmp_path, capsys, command, scheme, pulse_params, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": scheme, "fock_dim": 14, "n_steps": 150,
                               "n_nodes": 3, "pulse_params": pulse_params}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), command]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "pulse_params" in err and key in err


def test_gate_sweep_small(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scheme": "X", "alpha2_list": [2.0], "T_list": [15.0],
        "fock_dim": 20, "n_steps": 100, "n_nodes": 3,
        "coarse_n": 5, "refine_rounds": 1,
    }))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out), "gate-sweep"]) == 0
    payload = json.loads((out / "gate_sweep.json").read_text())
    rec = payload["records"][0]
    assert rec["feasible"]
    assert rec["avg_infidelity"] < 1e-2
    csv_rows = (out / "gate_sweep.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 2
