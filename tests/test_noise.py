import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest

from kerrcat import propagation
from kerrcat.fock import FockSpace, InvalidInputError, KerrCatParams
from kerrcat.noise import (CoverageWarning, FilterFunction, InvalidNoiseModelError,
                           NoiseModel, angle_error_functional,
                           default_frequency_grid, filter_weight,
                           monte_carlo_infidelity, sample_noise,
                           spectral_average_infidelity)
from kerrcat.propagation import propagate, propagate_noise_trace
from kerrcat.fidelity import computational_pair, infidelity
from kerrcat.pulses import gap_traces, idle_schedule, scheme_z_robustline, scheme_z_straight
from kerrcat.spectral import RobustLineCache

SPACE = FockSpace(25)


def test_model_validation():
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel(kind="pink", parameters={})
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel(kind="ornstein-uhlenbeck", parameters={"sigma": 1.0})
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel(kind="tabulated-psd",
                   parameters={"omegas": [0, 1], "psd": [1.0, -0.5]})
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel(kind="static", parameters={"value": 1e-3}).psd(np.array([0.0]))


def test_bool_inside_noise_list_rejected():
    # numpy turns [0, True] into an integer array; the model still refuses the bool
    with pytest.raises(InvalidNoiseModelError, match="omegas"):
        NoiseModel(kind="tabulated-psd", parameters={"omegas": [0, True], "psd": [1, 1]})
    NoiseModel(kind="tabulated-psd", parameters={"omegas": [0, 1], "psd": [1, 1]})


def test_variances():
    assert NoiseModel("static", {"value": 2e-3}).variance() == pytest.approx(4e-6)
    assert NoiseModel("gaussian-quasistatic", {"sigma": 3e-3}).variance() == pytest.approx(9e-6)
    om = np.linspace(-10, 10, 2001)
    psd = np.exp(-om**2 / 2.0)
    tab = NoiseModel("tabulated-psd", {"omegas": om, "psd": psd})
    assert tab.variance() == pytest.approx(np.sqrt(2 * np.pi) / (2 * np.pi), rel=1e-4)


def test_static_and_quasistatic_traces():
    static = NoiseModel("static", {"value": 5e-4})
    tr = sample_noise(static, T=10.0, dt=0.1, n_traces=3)
    assert tr.shape == (3, 100)
    assert np.all(tr == 5e-4)

    qs = NoiseModel("gaussian-quasistatic", {"sigma": 1.0}, seed=7)
    tr = sample_noise(qs, T=1.0, dt=0.01, n_traces=4000)
    # constant within a trace
    assert np.all(np.ptp(tr, axis=1) == 0.0)
    draws = tr[:, 0]
    se = 1.0 / np.sqrt(len(draws))
    assert abs(draws.mean()) < 3 * se
    assert abs(draws.std() - 1.0) < 3 * se


def test_ou_autocorrelation_and_variance():
    sigma, tau = 1.0, 2.0
    ou = NoiseModel("ornstein-uhlenbeck", {"sigma": sigma, "tau_c": tau}, seed=3)
    dt = 0.25
    tr = sample_noise(ou, T=50.0, dt=dt, n_traces=600)
    var = np.mean(tr**2)
    assert var == pytest.approx(sigma**2, rel=0.05)
    for lag in (1, 4, 8):
        corr = np.mean(tr[:, :-lag] * tr[:, lag:]) / var
        assert corr == pytest.approx(np.exp(-lag * dt / tau), abs=0.05)


def test_ou_reproducible():
    ou = NoiseModel("ornstein-uhlenbeck", {"sigma": 0.5, "tau_c": 1.0}, seed=11)
    a = sample_noise(ou, T=5.0, dt=0.05, n_traces=3)
    b = sample_noise(ou, T=5.0, dt=0.05, n_traces=3)
    assert np.array_equal(a, b)


def test_tabulated_not_sampleable():
    tab = NoiseModel("tabulated-psd", {"omegas": [0, 1], "psd": [1.0, 1.0]})
    with pytest.raises(InvalidNoiseModelError):
        sample_noise(tab, T=1.0, dt=0.1)


def test_filter_weight_constant_derivative():
    # idle schedule at fixed nonzero static detuning: dE01/ddelta is constant,
    # so W(omega) has the sinc-squared closed form
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    T = 12.0
    sched = idle_schedule(T, p, n_samples=201)
    t, _, deriv = gap_traces(sched, SPACE, n_samples=201)
    assert np.ptp(deriv) < 1e-10
    c = deriv[0]
    omegas = np.array([0.0, 0.3, 0.9, 2.7])
    ff = filter_weight(t, deriv, omegas)
    safe = np.where(omegas == 0.0, 1.0, omegas)
    expected = np.where(
        omegas == 0.0,
        c**2 * T**2 / 4.0,
        c**2 * (2.0 - 2.0 * np.cos(omegas * T)) / (4.0 * safe**2),
    )
    # trapezoid quadrature of the Fourier phase limits the match at omega > 0
    assert np.allclose(ff.W, expected, rtol=5e-3)
    assert ff.at_zero() == pytest.approx(c**2 * T**2 / 4.0, rel=1e-9)


def test_robust_line_segment_filter_bound_detects_offset():
    # the acceptance bound on the robust-line segment t in [tau, T - tau]
    # holds on the line and fails once the middle detuning leaves it
    p = KerrCatParams.from_alpha2(2.0)
    T, tau = 40.0, 5.172
    cache = RobustLineCache(1.1, 2.0, SPACE, n_points=12)
    sched = scheme_z_robustline(T, tau, -0.85, p, cache, n_samples=801)
    middle = (sched.times >= tau) & (sched.times <= T - tau)
    shifted = dict(sched.channels)
    shifted["delta"] = sched.channels["delta"] + 1e-4 * middle
    off_line = dataclasses.replace(sched, channels=shifted)
    omegas = default_frequency_grid(T)
    bound = 1e-10 * (T * 4.0 * 2.0 * np.exp(-2.0 * 2.0)) ** 2

    def segment_max_w(schedule):
        t, _, deriv = gap_traces(schedule, SPACE, n_samples=401)
        line = (t >= tau) & (t <= T - tau)
        ff = filter_weight(t[line], deriv[line], omegas)
        return ff.W.max()

    assert segment_max_w(sched) < bound
    assert segment_max_w(off_line) > bound


def test_filter_weight_even_and_nonnegative():
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    sched = idle_schedule(8.0, p, n_samples=201)
    t, _, deriv = gap_traces(sched, SPACE, n_samples=201)
    om = np.linspace(0.1, 5.0, 9)
    plus = filter_weight(t, deriv, om)
    minus = filter_weight(t, deriv, -om)
    assert np.all(plus.W >= 0.0)
    assert np.allclose(plus.W, minus.W, rtol=1e-10)


def test_filter_function_csv(tmp_path):
    ff = FilterFunction(omegas=np.array([0.0, 1.0]), W=np.array([2.0, 0.5]))
    path = tmp_path / "ff.csv"
    ff.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "omega,W"
    assert len(rows) == 3


def test_angle_error_static_reduction():
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    T = 10.0
    sched = idle_schedule(T, p, n_samples=201)
    t, _, deriv = gap_traces(sched, SPACE, n_samples=201)
    c = deriv[0]
    delta0 = 2e-3
    err = angle_error_functional(t, deriv, np.full(301, delta0))
    assert err == pytest.approx(-delta0 * c * T, rel=1e-9)


def test_angle_error_on_a_segment_integrates_over_its_span():
    # a constant slope c on the segment [a, b] of a longer gate: the error is
    # -Delta c (b - a), not -Delta c times the gate length
    a, b, c, delta0 = 2.0, 6.0, 0.7, 2e-3
    t = np.linspace(a, b, 41)
    err = angle_error_functional(t, np.full_like(t, c), np.full(101, delta0))
    assert err == pytest.approx(-delta0 * c * (b - a), rel=1e-12)


def test_spectral_static_equals_variance_times_w0():
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    sched = idle_schedule(6.0, p, n_samples=201)
    t, _, deriv = gap_traces(sched, SPACE, n_samples=201)
    noise = NoiseModel("gaussian-quasistatic", {"sigma": 1e-3})
    avg = spectral_average_infidelity(t, deriv, noise)
    ff = filter_weight(t, deriv, np.array([0.0]))
    assert avg == pytest.approx(1e-6 * ff.W[0], rel=1e-12)


def test_w_at_zero_needs_zero_on_the_grid():
    # a grid without omega = 0 must not stand in W(omega_min) for W(0)
    ff = FilterFunction(omegas=np.array([0.5, 1.0, 2.0]), W=np.array([3e-4, 1e-4, 1e-5]))
    for noise in (NoiseModel("static", {"value": 1e-3}),
                  NoiseModel("gaussian-quasistatic", {"sigma": 1e-3})):
        with pytest.raises(ValueError, match="omega = 0"):
            ff.spectral_infidelity(noise)


def test_default_grid():
    grid = default_frequency_grid(10.0, n_points=101)
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1e2)
    assert len(grid) == 101


def test_coverage_warning():
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    sched = idle_schedule(6.0, p, n_samples=201)
    t, _, deriv = gap_traces(sched, SPACE, n_samples=201)
    om = np.linspace(0.0, 50.0, 301)
    # spectral weight concentrated in the top decade of the grid
    tab = NoiseModel("tabulated-psd", {"omegas": om, "psd": om**6})
    with pytest.warns(CoverageWarning):
        spectral_average_infidelity(t, deriv, tab, omegas=om)


def test_monte_carlo_static_matches_direct():
    p = KerrCatParams.from_alpha2(1.0)
    space = FockSpace(20)
    sched = idle_schedule(5.0, p, n_samples=201)
    noise = NoiseModel("static", {"value": 1.5e-3})
    mc = monte_carlo_infidelity(sched, noise, space, n_traces=1, n_steps=200)
    res = propagate(sched, space, delta_offset=1.5e-3, n_steps=200)
    psi0, psi1 = computational_pair(p, space)
    direct = infidelity(res.unitary, sched.target, psi0, psi1, sched.frame_rotation)
    assert mc == pytest.approx(direct, rel=1e-6, abs=1e-14)


def test_monte_carlo_is_one_kernel_call_equal_to_per_trace_mean():
    p = KerrCatParams.from_alpha2(2.0)
    space = FockSpace(20)
    sched = scheme_z_straight(20.0, 0.4, -0.5, p, n_samples=201)
    noise = NoiseModel("ornstein-uhlenbeck", {"sigma": 1e-2, "tau_c": 30.0}, seed=5)
    n_traces, n_steps = 5, 400
    kernel = propagation._propagate_steps
    with mock.patch.object(propagation, "_propagate_steps", side_effect=kernel) as spy:
        mc = monte_carlo_infidelity(sched, noise, space, n_traces=n_traces, n_steps=n_steps)
    assert spy.call_count == 1
    assert spy.call_args.args[2].shape[:2] == (n_traces, n_steps)
    psi0, psi1 = computational_pair(p, space)
    total = 0.0
    for tr in sample_noise(noise, sched.duration, sched.duration / n_steps, n_traces):
        res = propagate_noise_trace(sched, space, tr, n_steps=n_steps)
        total += infidelity(res.unitary, sched.target, psi0, psi1, sched.frame_rotation)
    assert mc == total / n_traces


@pytest.mark.parametrize("n_traces", [0, -3])
def test_monte_carlo_needs_a_trace(n_traces):
    sched = idle_schedule(5.0, KerrCatParams.from_alpha2(1.0), n_samples=21)
    noise = NoiseModel("static", {"value": 1e-3})
    with pytest.raises(ValueError, match="n_traces"):
        monte_carlo_infidelity(sched, noise, FockSpace(10), n_traces=n_traces, n_steps=20)


@pytest.mark.parametrize("bad, name", [({"n_steps": 0}, "n_steps"),
                                       ({"n_steps": -3}, "n_steps"),
                                       ({"n_traces": 0}, "n_traces")])
def test_monte_carlo_input_faults_are_typed(bad, name):
    sched = idle_schedule(5.0, KerrCatParams.from_alpha2(1.0), n_samples=21)
    noise = NoiseModel("ornstein-uhlenbeck", {"sigma": 1e-3, "tau_c": 10.0})
    kwargs = {"n_traces": 2, "n_steps": 20, **bad}
    with mock.patch("kerrcat.noise.sample_noise") as sampler, warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=name):
            monte_carlo_infidelity(sched, noise, FockSpace(10), **kwargs)
    sampler.assert_not_called()


@pytest.mark.parametrize("kind, parameters", [("static", {"value": 1e-3}),
                                              ("ornstein-uhlenbeck", {"sigma": 1.0, "tau_c": 2.0})])
@pytest.mark.parametrize("T, n_traces, name", [
    (-1.0, 2, "duration"), (float("nan"), 2, "duration"), (float("inf"), 2, "duration"),
    (0.0, 2, "duration"), (1.0, -1, "n_traces"), (1.0, 0, "n_traces"),
    (1.0, True, "n_traces"), (1.0, 2.0, "n_traces")])
def test_sample_noise_rejects_bad_duration_and_trace_count(kind, parameters, T, n_traces, name):
    # numpy raised "negative dimensions", a NaN-to-integer error or OverflowError
    # for such a T, and a ValueError or an empty (0, n) array for such a count
    with pytest.raises(InvalidInputError, match=name):
        sample_noise(NoiseModel(kind, parameters), T=T, dt=0.1, n_traces=n_traces)


@pytest.mark.parametrize("kind, parameters", [("static", {"value": 1e-3}),
                                              ("ornstein-uhlenbeck", {"sigma": 1.0, "tau_c": 2.0})])
@pytest.mark.parametrize("dt", [0.0, -0.1, float("nan"), float("inf")])
def test_sample_noise_needs_a_positive_step(kind, parameters, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="dt"):
            sample_noise(NoiseModel(kind, parameters), T=1.0, dt=dt, n_traces=2)


@pytest.mark.parametrize("kind, parameters", [
    ("ornstein-uhlenbeck", {"tau_c": 10.0}),
    ("gaussian-quasistatic", {}),
    ("static", {"sigma": 1e-3}),
    ("ornstein-uhlenbeck", {"sigma": -1e-3, "tau_c": 10.0}),
    ("gaussian-quasistatic", {"sigma": -1e-3}),
])
def test_model_rejects_missing_or_negative_parameters(kind, parameters):
    with pytest.raises(InvalidNoiseModelError):
        NoiseModel(kind, parameters)


def test_spectral_infidelity_is_the_filter_weights_estimate():
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    sched = idle_schedule(6.0, p, n_samples=201)
    t, _, deriv = gap_traces(sched, SPACE, n_samples=201)
    om = default_frequency_grid(sched.duration)
    ff = filter_weight(t, deriv, om)
    for noise in (NoiseModel("ornstein-uhlenbeck", {"sigma": 1e-3, "tau_c": 60.0}),
                  NoiseModel("gaussian-quasistatic", {"sigma": 1e-3})):
        assert ff.spectral_infidelity(noise) == spectral_average_infidelity(t, deriv, noise)


def test_monte_carlo_refuses_unresolved_step_phases():
    # at sigma 1e200 the step phases w dt ~ 1e199 are rounding noise, which
    # used to give a plausible infidelity (0.87) instead of an error
    p = KerrCatParams.from_alpha2(2.0)
    sched = scheme_z_straight(30.0, 0.58872, -1.07378, p, n_samples=301)
    space = FockSpace(20)
    calm = NoiseModel("gaussian-quasistatic", {"sigma": 1e-3}, seed=1)
    assert 0.0 < monte_carlo_infidelity(sched, calm, space, n_traces=2, n_steps=10) < 0.1
    wild = NoiseModel("gaussian-quasistatic", {"sigma": 1e200}, seed=1)
    with pytest.raises(InvalidInputError, match="step phase"):
        monte_carlo_infidelity(sched, wild, space, n_traces=2, n_steps=10)


@pytest.mark.parametrize("T", [0.0, -1.0, float("nan"), float("inf"), True])
def test_default_frequency_grid_needs_a_duration(T):
    # T = 0 raised ZeroDivisionError and T = nan returned a NaN grid
    with pytest.raises(InvalidInputError, match="duration"):
        default_frequency_grid(T)


def test_filter_function_refuses_non_finite_weight():
    # a NaN weight passed the sign check and made spectral_infidelity NaN
    omegas = np.array([0.0, 1.0, 2.0])
    with pytest.raises(InvalidInputError, match="finite"):
        FilterFunction(omegas=omegas, W=np.array([1.0, np.nan, 0.5]))
    with pytest.raises(InvalidInputError, match="finite"):
        filter_weight(np.linspace(0.0, 1.0, 5), np.ones(5), np.array([0.0, np.nan]))


def test_degenerate_noise_inputs_refused():
    # a one-point grid ([0.0]) or a one-sample trace gave W = 0 and so a
    # noise-free estimate, and a one-sample detuning trace an angle error of -0.0
    p = KerrCatParams.from_alpha2(2.0)
    t, _, deriv = gap_traces(scheme_z_straight(30.0, 0.58872, -1.07378, p), FockSpace(20))
    ou = NoiseModel("ornstein-uhlenbeck", {"sigma": 1e-2, "tau_c": 3.0})
    est = filter_weight(t, deriv, default_frequency_grid(30.0)).spectral_infidelity(ou)
    assert est == pytest.approx(4.04e-5, rel=1e-2)
    assert angle_error_functional(t, deriv, np.full(100, 1e-3)) != 0.0
    for n_points in (1, 0, 2.5, True):
        with pytest.raises(InvalidInputError, match="n_points"):
            default_frequency_grid(30.0, n_points)
    assert default_frequency_grid(30.0, 2) == pytest.approx([0.0, 1e-3 / 30.0])
    with pytest.raises(InvalidInputError, match="2 or more"):
        filter_weight(t[:1], deriv[:1], default_frequency_grid(30.0))
    for trace in ([1e-3], []):
        with pytest.raises(InvalidInputError, match="2 or more"):
            angle_error_functional(t, deriv, trace)
    with pytest.raises(InvalidInputError, match="2 or more"):
        angle_error_functional(t[:1], deriv[:1], np.full(100, 1e-3))
