import dataclasses

import numpy as np
import pytest

from kerrcat.fock import FockSpace, KerrCatParams
from kerrcat.noise import (CoverageWarning, FilterFunction, InvalidNoiseModelError,
                           NoiseModel, angle_error_functional,
                           default_frequency_grid, filter_weight,
                           monte_carlo_infidelity, sample_noise,
                           spectral_average_infidelity)
from kerrcat.propagation import propagate
from kerrcat.fidelity import computational_pair, infidelity
from kerrcat.pulses import gap_traces, idle_schedule, scheme_z_robustline
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
    ff = filter_weight(sched, omegas, SPACE, deriv_trace=(t, deriv))
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
        ff = filter_weight(schedule, omegas, SPACE,
                           deriv_trace=(t[line], deriv[line]))
        return ff.W.max()

    assert segment_max_w(sched) < bound
    assert segment_max_w(off_line) > bound


def test_filter_weight_even_and_nonnegative():
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    sched = idle_schedule(8.0, p, n_samples=201)
    dtr = gap_traces(sched, SPACE, n_samples=201)
    dtr = (dtr[0], dtr[2])
    om = np.linspace(0.1, 5.0, 9)
    plus = filter_weight(sched, om, SPACE, deriv_trace=dtr)
    minus = filter_weight(sched, -om, SPACE, deriv_trace=dtr)
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
    err = angle_error_functional(sched, np.full(301, delta0), SPACE,
                                 deriv_trace=(t, deriv))
    assert err == pytest.approx(-delta0 * c * T, rel=1e-9)


def test_spectral_static_equals_variance_times_w0():
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    sched = idle_schedule(6.0, p, n_samples=201)
    dtr = gap_traces(sched, SPACE, n_samples=201)
    dtr = (dtr[0], dtr[2])
    noise = NoiseModel("gaussian-quasistatic", {"sigma": 1e-3})
    avg = spectral_average_infidelity(sched, noise, space=SPACE, deriv_trace=dtr)
    ff = filter_weight(sched, np.array([0.0]), SPACE, deriv_trace=dtr)
    assert avg == pytest.approx(1e-6 * ff.W[0], rel=1e-12)


def test_filter_weight_needs_space_or_trace():
    sched = idle_schedule(6.0, KerrCatParams.from_alpha2(2.0), n_samples=21)
    noise = NoiseModel("gaussian-quasistatic", {"sigma": 1e-3})
    with pytest.raises(ValueError, match="space.*deriv_trace"):
        filter_weight(sched, np.array([0.0]), None)
    with pytest.raises(ValueError, match="space.*deriv_trace"):
        spectral_average_infidelity(sched, noise)
    with pytest.raises(ValueError, match="space.*deriv_trace"):
        angle_error_functional(sched, np.full(21, 1e-3), None)


def test_default_grid():
    grid = default_frequency_grid(10.0, n_points=101)
    assert grid[0] == 0.0
    assert grid[1] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1e2)
    assert len(grid) == 101


def test_coverage_warning():
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    sched = idle_schedule(6.0, p, n_samples=201)
    dtr = gap_traces(sched, SPACE, n_samples=201)
    dtr = (dtr[0], dtr[2])
    om = np.linspace(0.0, 50.0, 301)
    # spectral weight concentrated in the top decade of the grid
    tab = NoiseModel("tabulated-psd", {"omegas": om, "psd": om**6})
    with pytest.warns(CoverageWarning):
        spectral_average_infidelity(sched, tab, omegas=om, space=SPACE, deriv_trace=dtr)


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
