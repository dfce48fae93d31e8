import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcat import fock
from kerrcat.fock import FockSpace, HamiltonianAssembly, InvalidInputError, KerrCatParams
from kerrcat.noise import first_order_coefficient
from kerrcat.propagation import adiabaticity_diagnostic, propagate
from kerrcat.pulses import (AdiabaticityLossError, InvalidRampError, PulseSchedule,
                            SchemeInfeasibleError, _drag_exact, envelope_integral, gap_traces,
                            idle_schedule, predicted_angle, ramp_down, ramp_up,
                            rot_x, rot_y, rot_z, scheme_kerr_gate, scheme_x,
                            scheme_xx_envelope, scheme_y_drag, scheme_z_robustline,
                            scheme_z_straight, seed_eps_x0, truncated_gaussian,
                            truncated_gaussian_deriv)
from kerrcat.spectral import ParityLabelError, RobustLineCache, energy_gap, gap_derivative

SPACE = FockSpace(30)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_schedule_samples_raise():
    space = FockSpace(8)
    p = KerrCatParams.from_alpha2(2.0)
    x = scheme_x(20.0, 0.05, p)
    # no step midpoint of a 10-step propagation reads sample 50
    eps_x = x.channels["eps_x"].copy()
    eps_x[50] = np.nan
    one_nan = dataclasses.replace(x, channels={"eps_x": eps_x})
    all_nan = dataclasses.replace(x, channels={"eps_x": np.full_like(eps_x, np.nan)})
    for sched in (one_nan, all_nan):
        with pytest.raises(InvalidInputError, match="non-finite"):
            propagate(sched, space, n_steps=10)
    z = scheme_z_straight(30.0, 0.5, -1.0, p)
    z = dataclasses.replace(z, channels={**z.channels, "delta": np.full_like(z.times, np.inf)})
    for read in (lambda: propagate(z, space, n_steps=10), lambda: gap_traces(z, space),
                 lambda: adiabaticity_diagnostic(z, space)):
        with pytest.raises(InvalidInputError, match="non-finite"):
            read()
    # finite samples whose Hamiltonian overflows: no spectrum to read
    z = scheme_z_straight(30.0, 0.5, -1.0, p)
    z = dataclasses.replace(z, channels={**z.channels, "delta": 1e308 * z.channels["delta"]})
    for read in (lambda: gap_traces(z, space), lambda: adiabaticity_diagnostic(z, space)):
        with pytest.raises(InvalidInputError, match="overflows"):
            read()
    times = x.times.copy()
    times[3] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        propagate(dataclasses.replace(x, times=times), space, n_steps=10)


def test_degenerate_time_grids_raise():
    # a one-sample grid spans no time: its gate would score as a plausible number
    space = FockSpace(8)
    p = KerrCatParams.from_alpha2(2.0)
    z = scheme_z_straight(30.0, 0.5, -1.0, p, n_samples=21)
    repeated = z.times.copy()
    repeated[5] = repeated[4]
    # the builders refuse one sample (test_sample_counts_below_two_raise), so cut z to one
    one = dataclasses.replace(z, times=z.times[:1],
                              channels={k: v[:1] for k, v in z.channels.items()})
    unordered = (dataclasses.replace(z, times=z.times + 1.0), dataclasses.replace(z, times=repeated))
    for sched in (one, *unordered):
        with pytest.raises(InvalidInputError, match="start at 0 and strictly increase"):
            propagate(sched, space, n_steps=10)
    for sched in unordered:
        with pytest.raises(InvalidInputError, match="start at 0 and strictly increase"):
            gap_traces(sched, space)
    # one sample spans a duration of 0, which gap_traces cannot sample
    with pytest.raises(InvalidInputError, match="duration"):
        gap_traces(one, space)


@pytest.mark.parametrize("n", [1, 0, -3, True, 2.0, 101.0])
def test_sample_counts_below_two_raise(n):
    # one sample read as a perfectly robust gate (first-order coefficient 0.0,
    # predicted angle -0.0) or failed in numpy, and no sample built a schedule
    p = KerrCatParams.from_alpha2(2.0)
    space = FockSpace(20)
    z = scheme_z_straight(20.0, 0.3, -0.5, p, n_samples=101)
    for read in (lambda: first_order_coefficient(z, space, n_samples=n),
                 lambda: predicted_angle(z, 1e-3, space, n_samples=n),
                 lambda: gap_traces(z, space, n_samples=n),
                 lambda: adiabaticity_diagnostic(z, space, n_samples=n),
                 lambda: idle_schedule(20.0, p, n_samples=n),
                 lambda: scheme_x(20.0, 0.1, p, n_samples=n),
                 lambda: scheme_y_drag(20.0, 0.1, -0.5, p, space, n_samples=n),
                 lambda: scheme_z_robustline(20.0, 1.0, -0.5, p, lambda a2: 0.3 * np.ones_like(a2),
                                             n_samples=n),
                 lambda: scheme_z_straight(20.0, 0.3, -0.5, p, n_samples=n),
                 lambda: scheme_kerr_gate(p, n_samples=n, space=space),
                 lambda: scheme_xx_envelope(20.0, 1e-3, n_samples=n)):
        with pytest.raises(InvalidInputError, match="n_samples"):
            read()


def test_unknown_channel_name_raises():
    # a misspelt channel built and then failed in propagate with KeyError
    x = scheme_x(20.0, 0.1, KerrCatParams.from_alpha2(2.0), n_samples=11)
    with pytest.raises(InvalidInputError, match="epsx"):
        PulseSchedule(x.times, {"epsx": x.channels["eps_x"]}, x.target, "X", x.base)


def test_envelope_endpoints_and_peak():
    T = 17.0
    assert truncated_gaussian(0.0, T) == pytest.approx(0.0, abs=1e-15)
    assert truncated_gaussian(T, T) == pytest.approx(0.0, abs=1e-15)
    assert truncated_gaussian(T / 2, T) == pytest.approx(1.0)
    assert truncated_gaussian_deriv(0.0, T) == pytest.approx(0.0, abs=1e-15)
    assert truncated_gaussian_deriv(T, T) == pytest.approx(0.0, abs=1e-15)


def test_envelope_quarter_value():
    # closed-form value at t = T/4
    val = ((np.exp(-1 / 32) - np.exp(-1 / 8)) / (1 - np.exp(-1 / 8))) ** 2
    assert truncated_gaussian(10.0, 40.0) == pytest.approx(val)
    assert val == pytest.approx(0.544883, abs=5e-6)
    # the envelope integral matches its closed form in erf
    from scipy.special import erf

    E = np.exp(-1 / 8)
    for T in (1.0, 15.0, 20.0, 40.0):
        closed = T / (1 - E) ** 2 * (np.sqrt(np.pi) * erf(0.5)
                                     - 2 * E * np.sqrt(2 * np.pi) * erf(1 / (2 * np.sqrt(2)))
                                     + E**2)
        assert envelope_integral(T) == pytest.approx(closed, rel=1e-12)


def test_envelope_integral_is_quads_result():
    # the dqk21 sum is quad's first and only panel: bit-equal with scipy 1.17's
    # QUADPACK, and 2 ulp leave room for a build that rounds differently
    from scipy.integrate import quad

    for T in (10.0, 15.0, 20.0, 30.0, 40.0, *np.geomspace(0.1, 500.0, 61)):
        T = float(T)
        ref, _ = quad(lambda t: truncated_gaussian(t, T), 0.0, T, limit=200)
        assert abs(envelope_integral(T) - ref) <= 2 * np.spacing(ref), T


@pytest.mark.parametrize("T", [0.0, -1.0, np.inf, np.nan, True, "30"])
def test_bad_duration_raises(T):
    p = KerrCatParams.from_alpha2(2.0)
    with pytest.raises(InvalidInputError, match="duration"):
        envelope_integral(T)
    with pytest.raises(InvalidInputError, match="duration"):
        seed_eps_x0(T, p)
    for build in (lambda: scheme_x(T, 0.05, p), lambda: idle_schedule(T, p),
                  lambda: scheme_y_drag(T, 0.1, -0.5, p, FockSpace(20)),
                  lambda: scheme_z_robustline(T, 1.0, -0.5, p, lambda a2: 0.3 * np.ones_like(a2)),
                  lambda: scheme_z_straight(T, 0.5, -0.5, p),
                  lambda: scheme_xx_envelope(T, 1e-3)):
        with pytest.raises(InvalidInputError, match="duration"):
            build()


@pytest.mark.parametrize("T", [np.nan, np.inf, 0.0, -1.0])
def test_envelope_bad_duration_raises(T):
    # a NaN duration gave a NaN envelope and an infinite one 0.0 everywhere;
    # the ramps inherit the check through their duration 2 tau
    for envelope in (lambda: truncated_gaussian(0.0, T), lambda: truncated_gaussian_deriv(0.0, T),
                     lambda: ramp_up(0.0, T / 2), lambda: ramp_down(0.0, T / 2)):
        with pytest.raises(InvalidInputError, match="duration"):
            envelope()


def test_envelope_domain_guard():
    with pytest.raises(ValueError):
        truncated_gaussian(-0.1, 10.0)
    with pytest.raises(ValueError):
        truncated_gaussian(10.2, 10.0)
    # the derivative has the same support; past it the Gaussian would continue
    for t in (-0.1, 10.2, [0.0, 5.0, 10.2]):
        with pytest.raises(ValueError, match="outside"):
            truncated_gaussian_deriv(t, 10.0)
    assert truncated_gaussian_deriv(10.0 + 1e-13, 10.0) == pytest.approx(0.0, abs=1e-12)


@given(st.floats(min_value=0.02, max_value=0.98))
@settings(max_examples=30, deadline=None)
def test_envelope_derivative_matches_finite_difference(frac):
    T = 23.0
    t = frac * T
    h = 1e-6
    fd = (truncated_gaussian(t + h, T) - truncated_gaussian(t - h, T)) / (2 * h)
    assert truncated_gaussian_deriv(t, T) == pytest.approx(fd, abs=1e-8)


def test_ramps():
    tau = 5.0
    assert ramp_up(0.0, tau) == pytest.approx(0.0, abs=1e-15)
    assert ramp_up(tau, tau) == pytest.approx(1.0)
    assert ramp_down(0.0, tau) == pytest.approx(1.0)
    assert ramp_down(tau, tau) == pytest.approx(0.0, abs=1e-15)


def test_rotation_helpers():
    assert np.allclose(rot_x(np.pi / 2) @ rot_x(np.pi / 2), rot_x(np.pi))
    assert np.allclose(rot_z(np.pi / 2).conj().T @ rot_z(np.pi / 2), np.eye(2))
    # rot_y(pi) flips |0> to |1> up to sign
    v = rot_y(np.pi) @ np.array([1.0, 0.0])
    assert abs(v[1]) == pytest.approx(1.0)


def test_scheme_x_channels_and_seed():
    p = KerrCatParams.from_alpha2(2.0)
    T = 30.0
    s = scheme_x(T, 0.1, p, n_samples=101)
    assert set(s.channels) == {"eps_x"}
    assert s.channels["eps_x"][0] == pytest.approx(0.0, abs=1e-15)
    assert s.channels["eps_x"][50] == pytest.approx(0.1)
    assert s.scheme == "X"
    # seed amplitude reproduces theta = h_x * eps * int(f)
    from kerrcat.cats import matrix_elements
    hx, _ = matrix_elements(p.alpha)
    seed = seed_eps_x0(T, p)
    assert seed * hx * envelope_integral(T) == pytest.approx(np.pi / 2, rel=1e-9)


def test_scheme_y_validation_and_envelope():
    p = KerrCatParams.from_alpha2(2.0)
    with pytest.raises(InvalidRampError):
        scheme_y_drag(20.0, 0.5, 0.1, p, SPACE)  # positive ramp
    with pytest.raises(InvalidRampError):
        scheme_y_drag(20.0, 0.5, -2.5, p, SPACE)  # cat size would go negative
    for mode in ("approx", "exact"):
        with pytest.raises(InvalidRampError):
            scheme_y_drag(20.0, 0.5, np.nan, p, SPACE, drag_mode=mode)
    s = scheme_y_drag(20.0, 0.5, -1.0, p, SPACE, drag_mode="off", n_samples=101)
    assert np.allclose(s.channels["eps_x"], 0.0)
    assert s.alpha2_of_t().min() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        scheme_y_drag(20.0, 0.5, -1.0, p, SPACE, drag_mode="bogus")


@pytest.mark.parametrize("mode", ["off", "approx", "exact"])
@pytest.mark.parametrize("eps_y0", [np.nan, np.inf, -np.inf])
def test_scheme_y_non_finite_amplitude_raises(mode, eps_y0):
    # a NaN amplitude gave NaN schedules (off, approx) or numpy's LinAlgError (exact)
    p = KerrCatParams.from_alpha2(2.0)
    with pytest.raises(InvalidInputError, match="eps_y0"):
        scheme_y_drag(20.0, eps_y0, -0.5, p, FockSpace(20), drag_mode=mode, n_samples=21)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_drag_overflowing_amplitude_raises():
    # a finite amplitude whose Hamiltonian overflows gave numpy's LinAlgError at
    # 101 samples; at the default 2001 the first piece stayed finite and the
    # subspace check raised AdiabaticityLossError, which grid_optimize scores
    # as infeasible: the table is now checked whole, whatever the piece size
    p = KerrCatParams.from_alpha2(2.0)
    for n_samples in (101, 2001):
        with pytest.raises(InvalidInputError, match="overflows"):
            scheme_y_drag(20.0, 1e308, -0.5, p, FockSpace(20), drag_mode="exact",
                          n_samples=n_samples)


def test_approx_drag_vanishes_at_endpoints():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_y_drag(25.0, 0.5, -0.8, p, SPACE, drag_mode="approx", n_samples=201)
    ex = s.channels["eps_x"]
    assert ex[0] == pytest.approx(0.0, abs=1e-12)
    assert ex[-1] == pytest.approx(0.0, abs=1e-12)
    assert np.abs(ex).max() > 0


def test_exact_drag_cancels_transition():
    # the correction must null the transition amplitude that a real eps_x can
    # reach, between the top two eigenvectors of each sample's H, at every
    # checked interior sample, whatever phases and order eigh gives the pair
    for alpha2, T, n, ey0, r0, checked in [
        (2.0, 25.0, 101, 0.6, -0.8, 100),
        # the pair splits by < 1e-6 at the first samples; samples past T/2 are
        # the mirror eps_x(T - t) = -eps_x(t), where the sampled H differs from
        # its mirror in the last bits and 1 / (E0 - E1) near t = T amplifies
        # that to the eigensolver's ~1e-7 conditioning (9.4e-8), so only the
        # diagonalized half is held to the residual bound
        (3.0, 20.0, 801, 1.6, -1.7, 401),
    ]:
        p = KerrCatParams.from_alpha2(alpha2)
        times = np.linspace(0.0, T, n)
        f = truncated_gaussian(times, T)
        fdot = truncated_gaussian_deriv(times, T)
        eps_x = _drag_exact(times, r0 * f, r0 * fdot, ey0 * f, ey0 * fdot, p, SPACE)
        assert np.array_equal(eps_x[::-1], -eps_x)
        asm = HamiltonianAssembly.build(p, SPACE)
        hx, h2, hy = (asm.channels[k] for k in ("eps_x", "eps2_mod", "eps_y"))
        for k in range(1, checked):
            energies, states = np.linalg.eigh(asm.drift + r0 * f[k] * h2 + ey0 * f[k] * hy)
            psi1, psi0 = states[:, -2], states[:, -1]
            hdot = r0 * fdot[k] * h2 + ey0 * fdot[k] * hy
            mx = np.vdot(psi1, hx @ psi0)
            coupling = np.vdot(psi1, hdot @ psi0) / (energies[-1] - energies[-2])
            resid = (1j * eps_x[k] * mx + coupling) / (1j * mx / abs(mx))
            assert abs(resid.real) < 1e-8


def test_exact_drag_raises_on_lost_subspace():
    p = KerrCatParams.from_alpha2(2.0)
    with pytest.raises(AdiabaticityLossError):
        scheme_y_drag(20.0, 10.0, -0.5, p, SPACE, drag_mode="exact", n_samples=5)
    # the pairs are checked piece by piece: with one sample per piece the first
    # failing sample (t = 20/3, sample 2) lies in the third piece
    for budget in (fock.STACK_ENTRIES, 1):
        with mock.patch.object(fock, "STACK_ENTRIES", budget):
            with pytest.raises(AdiabaticityLossError, match=r"0\.601 < 0\.81 at t=6\.667"):
                scheme_y_drag(20.0, 6.0, -0.5, p, SPACE, drag_mode="exact", n_samples=7)


def test_scheme_z_robustline_trajectory(robust_cache_2):
    p = KerrCatParams.from_alpha2(2.0)
    T, tau = 40.0, 6.0
    s = scheme_z_robustline(T, tau, -0.8, p, robust_cache_2, n_samples=801)
    delta = s.channels["delta"]
    # closes at both ends and reaches the robust line at the segment joints
    assert delta[0] == pytest.approx(0.0, abs=1e-12)
    assert delta[-1] == pytest.approx(0.0, abs=1e-12)
    assert s.alpha2_of_t()[0] == pytest.approx(2.0)
    assert s.alpha2_of_t().min() == pytest.approx(1.2, abs=1e-9)
    joint = np.argmin(np.abs(s.times - tau))
    assert delta[joint] == pytest.approx(float(robust_cache_2(2.0)), abs=1e-6)


def test_scheme_z_robustline_tracks_derivative_zero(robust_cache_2):
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_z_robustline(40.0, 6.0, -0.8, p, robust_cache_2, n_samples=801)
    mid = (s.times > 8.0) & (s.times < 32.0)
    idx = np.flatnonzero(mid)[::40]
    for k in idx:
        d = gap_derivative(KerrCatParams.from_alpha2(s.alpha2_of_t()[k]),
                           s.channels["delta"][k], SPACE)
        assert abs(d) < 1e-4  # interpolation tolerance of the cached line


def test_scheme_z_robustline_guards(robust_cache_2):
    p = KerrCatParams.from_alpha2(2.0)
    with pytest.raises(SchemeInfeasibleError):
        scheme_z_robustline(40.0, 25.0, -0.5, p, robust_cache_2)  # tau > T/2
    with pytest.raises(SchemeInfeasibleError):
        # dip leaves the cached robust-line range
        scheme_z_robustline(40.0, 6.0, -1.8, p, robust_cache_2)


def test_scheme_z_straight():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_z_straight(30.0, 0.5, -1.0, p, n_samples=201)
    # trajectory is a straight segment: delta proportional to (2 - alpha2)
    delta = s.channels["delta"]
    a2 = s.alpha2_of_t()
    mask = delta > 1e-6
    slope = delta[mask] / (2.0 - a2[mask])
    assert np.ptp(slope) < 1e-9
    with pytest.raises(InvalidRampError):
        scheme_z_straight(30.0, 0.5, -2.5, p)


def test_kerr_gate_schedule():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_kerr_gate(p, space=FockSpace(20), n_samples=51)
    assert s.duration == pytest.approx(np.pi)
    assert np.allclose(s.channels["eps2_mod"], -2.0)
    assert s.frame_rotation is not None
    assert np.allclose(np.abs(np.diag(s.frame_rotation)), 1.0)
    # without a Fock space there is no frame rotation to score the gate in
    with pytest.raises(TypeError):
        scheme_kerr_gate(p)


def test_predicted_angle_static_term(robust_cache_2):
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_z_robustline(40.0, 6.0, -0.8, p, robust_cache_2, n_samples=401)
    t, gap, deriv = gap_traces(s, SPACE, n_samples=101)
    # each row of the stacked trace equals a single-point spectrum
    for k in (0, 30, 50, 100):
        pk = KerrCatParams(eps2_0=2.0 + s.channel_at("eps2_mod", t[k]))
        dk = s.channel_at("delta", t[k])
        assert gap[k] == pytest.approx(energy_gap(pk, dk, SPACE), abs=1e-11)
        assert deriv[k] == pytest.approx(gap_derivative(pk, dk, SPACE), abs=1e-11)
    theta0 = predicted_angle(s, 0.0, SPACE, n_samples=101)
    assert theta0 == pytest.approx(-np.trapezoid(gap, t), rel=1e-12)
    # first-order coefficient enters linearly in the detuning shift
    theta1 = predicted_angle(s, 1e-3, SPACE, n_samples=101)
    assert theta1 - theta0 == pytest.approx(-1e-3 * np.trapezoid(deriv, t), rel=1e-9)


def test_gap_traces_follow_any_parity_preserving_schedule():
    # a custom schedule with only a pump ramp: its scheme name plays no part
    p = KerrCatParams(eps2_0=2.0, delta=0.3)
    times = np.linspace(0.0, 10.0, 21)
    s = PulseSchedule(times=times, channels={"eps2_mod": -0.05 * times}, target=rot_z(0.0),
                      scheme="RAMP", base=p)
    t, gap, deriv = gap_traces(s, SPACE, n_samples=11)
    points = [KerrCatParams(eps2_0=2.0 + s.channel_at("eps2_mod", tk), delta=0.3) for tk in t]
    assert gap == pytest.approx(np.array([energy_gap(pk, 0.0, SPACE) for pk in points]),
                              abs=1e-11)
    slopes = np.array([gap_derivative(pk, 0.0, SPACE) for pk in points])
    assert deriv == pytest.approx(slopes, abs=1e-11)
    assert first_order_coefficient(s, SPACE, n_samples=11) == pytest.approx(
        np.trapezoid(slopes, t), abs=1e-11)


def test_gap_traces_refuse_parity_breaking_channel():
    # a single-photon drive couples the parity sectors, whatever the scheme name
    z = scheme_z_straight(30.0, 0.5, -0.5, KerrCatParams.from_alpha2(2.0), n_samples=101)
    s = dataclasses.replace(z, channels={**z.channels, "eps_x": 1e-3 * z.channel("delta")})
    with pytest.raises(ParityLabelError):
        gap_traces(s, SPACE)
    with pytest.raises(ParityLabelError):
        first_order_coefficient(s, SPACE)


def test_idle_schedule_and_csv(tmp_path):
    s = idle_schedule(10.0, KerrCatParams.from_alpha2(1.0), n_samples=11)
    assert np.allclose(s.delta_of_t(), 0.0)
    x = scheme_x(10.0, 0.2, KerrCatParams.from_alpha2(1.0), n_samples=11)
    path = tmp_path / "sched.csv"
    x.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,eps_x"
    assert len(rows) == 12
