from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kerrcat.fock import FockSpace, InvalidInputError, KerrCatParams, number_operator
from kerrcat.pulses import scheme_xx_envelope
from kerrcat.twoqubit import (TwoQubitEffectiveModel, echo_xx,
                              effective_interaction, effective_unitary,
                              full_two_mode_propagate, makhlin_invariants,
                              phase_optimized_distance, projected_generator,
                              two_mode_computational_projector, two_mode_hamiltonian_parts,
                              xx_target, _XX, _YY)
from test_propagation import recorded_eigh


def _model(a2a, a2b, T=20.0, g0=1e-3, phase=0.0, constant=False):
    env = scheme_xx_envelope(T, g0, n_samples=401, constant=constant)
    return TwoQubitEffectiveModel(
        params_A=KerrCatParams.from_alpha2(a2a),
        params_B=KerrCatParams.from_alpha2(a2b),
        envelope=env,
        phase=phase,
    )


def test_echo_is_exact_xx():
    model = _model(2.0, 1.5)
    theta = np.pi / 2
    U = echo_xx(theta, model)
    assert phase_optimized_distance(U, xx_target(theta)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    a2a=st.floats(0.5, 3.0),
    a2b=st.floats(0.5, 3.0),
    theta=st.floats(0.1, np.pi),
)
def test_echo_exact_for_any_cat_sizes(a2a, a2b, theta):
    model = _model(a2a, a2b)
    for q in ("A", "B"):
        U = echo_xx(theta, model, echo_qubit=q)
        assert phase_optimized_distance(U, xx_target(theta)) < 1e-9


def test_echo_qubit_validation():
    with pytest.raises(ValueError):
        echo_xx(np.pi / 2, _model(2.0, 2.0), echo_qubit="C")


def test_yy_to_xx_ratio():
    # h_y/h_x = exp(-2 alpha^2) per qubit, so YY/XX = exp(-2(a2A + a2B))
    model = _model(3.0, 3.0)
    hxa, hya, hxb, hyb = model.h_elems
    ratio = (hya * hyb) / (hxa * hxb)
    assert ratio == pytest.approx(np.exp(-12.0), rel=1e-9)


def test_phase_quadrature_kills_xx():
    model = _model(2.0, 2.0, phase=np.pi / 2)
    H = effective_interaction(model, 1.0)
    assert abs(np.trace(_XX @ H)) < 1e-12
    assert abs(np.trace(_YY @ H)) < 1e-12


def test_xx_angle_matches_generator():
    model = _model(1.5, 2.5)
    H = effective_interaction(model, model.integrated_coupling)
    # coefficient of XX/2 in the accumulated generator
    angle = np.real(np.trace(_XX @ H)) / 2.0
    assert angle == pytest.approx(model.xx_angle(), rel=1e-12)


def test_constant_envelope_integral():
    T, g0 = 10.0, 2e-3
    times, g = scheme_xx_envelope(T, g0, n_samples=101, constant=True)
    assert np.trapezoid(g, times) == pytest.approx(g0 * T)
    model = _model(2.0, 2.0, T=T, g0=g0, constant=True)
    assert model.integrated_coupling == pytest.approx(g0 * T)


def test_makhlin_cnot_class():
    # a pi/2 XX rotation is locally equivalent to CNOT: G1 = 0, G2 = 1
    g1, g2 = makhlin_invariants(xx_target(np.pi / 2))
    assert abs(g1) < 1e-12
    assert g2 == pytest.approx(1.0, abs=1e-12)
    # identity class for reference
    g1, g2 = makhlin_invariants(np.eye(4, dtype=complex))
    assert g1 == pytest.approx(1.0, abs=1e-12)
    assert g2 == pytest.approx(3.0, abs=1e-12)


def test_iswap_generator_identity():
    iswap = np.array([
        [1, 0, 0, 0],
        [0, 0, 1j, 0],
        [0, 1j, 0, 0],
        [0, 0, 0, 1],
    ], dtype=complex)
    U = expm(1j * (np.pi / 4.0) * (_XX + _YY))
    assert np.allclose(U, iswap, atol=1e-12)


def test_full_two_mode_g_zero_is_drift_product():
    space = FockSpace(12)
    pa = KerrCatParams.from_alpha2(1.0)
    pb = KerrCatParams.from_alpha2(1.5)
    times = np.linspace(0.0, 5.0, 51)
    U = full_two_mode_propagate(pa, pb, space, (times, np.zeros(51)), n_steps=50)
    from kerrcat.fock import HamiltonianAssembly
    Ua = expm(-1j * HamiltonianAssembly.build(pa, space).drift * 5.0)
    Ub = expm(-1j * HamiltonianAssembly.build(pb, space).drift * 5.0)
    assert np.max(np.abs(U - np.kron(Ua, Ub))) < 1e-8


def test_full_two_mode_matches_effective_model():
    space = FockSpace(16)
    pa = KerrCatParams.from_alpha2(1.5)
    pb = KerrCatParams.from_alpha2(1.5)
    T, g0 = 10.0, 1e-3
    env = scheme_xx_envelope(T, g0, n_samples=201, constant=True)
    U0 = full_two_mode_propagate(pa, pb, space, (env[0], np.zeros_like(env[1])),
                                 n_steps=200)
    Ug = full_two_mode_propagate(pa, pb, space, env, n_steps=200)
    P = two_mode_computational_projector(pa, pb, space)
    block0 = P.conj().T @ U0 @ P
    blockg = P.conj().T @ Ug @ P
    gen = projected_generator(blockg @ np.linalg.inv(block0), np.eye(4), g0 * T)

    model = TwoQubitEffectiveModel(params_A=pa, params_B=pb, envelope=env)
    H_unit = effective_interaction(model, 1.0)
    cxx = np.real(np.trace(_XX @ gen)) / 4.0
    cyy = np.real(np.trace(_YY @ gen)) / 4.0
    assert cxx == pytest.approx(np.real(np.trace(_XX @ H_unit)) / 4.0, rel=0.05)
    assert cyy == pytest.approx(np.real(np.trace(_YY @ H_unit)) / 4.0, rel=0.05)


def test_full_two_mode_real_path_matches_complex():
    # phase 0 gives a real coupling (real path); phase 2 pi leaves a
    # round-off imaginary part, which forces the complex path
    space = FockSpace(6)
    pa = KerrCatParams.from_alpha2(1.0, delta=0.01)
    pb = KerrCatParams.from_alpha2(1.5)
    env = scheme_xx_envelope(4.0, 0.2, n_samples=41)
    U_real = full_two_mode_propagate(pa, pb, space, env, n_steps=30)
    U_cplx = full_two_mode_propagate(pa, pb, space, env, phase=2.0 * np.pi, n_steps=30)
    assert np.max(np.abs(U_real - U_cplx)) < 1e-10
    assert np.max(np.abs(U_real.conj().T @ U_real - np.eye(36))) < 1e-12


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("phase", [0.0, 0.7])
def test_full_two_mode_one_eigh_per_step_matches_expm(dim, phase):
    # one full-dimension eigh per step (real at phase 0, complex otherwise),
    # and the result is the per-step expm product; each mode's params.delta
    # detunes that mode
    space = FockSpace(dim)
    pa = KerrCatParams.from_alpha2(1.0)
    pb = KerrCatParams.from_alpha2(1.5)
    times, g = scheme_xx_envelope(4.0, 0.2, n_samples=41)
    n_steps, dA, dB = 25, 0.03, -0.02
    with recorded_eigh() as seen:
        U = full_two_mode_propagate(replace(pa, delta=dA), replace(pb, delta=dB), space,
                                    (times, g), phase=phase, n_steps=n_steps)
    real = np.float64 if phase == 0.0 else np.complex128
    assert seen == [(real, (dim**2, dim**2))] * n_steps
    H0, coupling = two_mode_hamiltonian_parts(pa, pb, space, phase)
    n, eye = number_operator(space), np.eye(dim)
    H0 = H0 + dA * np.kron(n, eye) + dB * np.kron(eye, n)
    dt = 4.0 / n_steps
    ref = np.eye(dim**2, dtype=complex)
    for gk in np.interp((np.arange(n_steps) + 0.5) * dt, times, g):
        ref = expm(-1j * (H0 + gk * coupling) * dt) @ ref
    assert np.linalg.norm(U - ref, ord=2) < 1e-12


def test_full_two_mode_rejects_bad_input():
    pa = KerrCatParams.from_alpha2(1.0)
    space = FockSpace(3)
    times = np.linspace(0, 1, 11)
    with pytest.raises(InvalidInputError, match="n_steps"):
        full_two_mode_propagate(pa, pa, space, (times, np.zeros(11)), n_steps=0)
    bad = np.zeros(11)
    bad[3] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        full_two_mode_propagate(pa, pa, space, (times, bad), n_steps=5)
    with pytest.raises(InvalidInputError, match="non-finite"):
        replace(pa, delta=np.nan)


def test_dim_guard():
    pa = KerrCatParams.from_alpha2(1.0)
    times = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        full_two_mode_propagate(pa, pa, FockSpace(30), (times, np.zeros(11)))


def test_effective_unitary_is_unitary():
    model = _model(2.0, 2.0, phase=0.3)
    U = effective_unitary(model)
    assert np.max(np.abs(U.conj().T @ U - np.eye(4))) < 1e-12
