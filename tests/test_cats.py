import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcat.cats import (TruncationError, axis_from_drive_phase, cat_vectors,
                          coherent_vector, drive_phase_for_axis, matrix_elements,
                          projected_number_operator)
from kerrcat.fock import FockSpace, InvalidInputError, destroy, parity_operator

SPACE = FockSpace(40)


def test_coherent_is_annihilation_eigenvector():
    a = destroy(SPACE)
    for alpha in (0.5, 1.2, 1.7):
        v = coherent_vector(alpha, SPACE)
        resid = a @ v - alpha * v
        assert np.linalg.norm(resid) < 1e-10
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_coherent_vector_negative_amplitude():
    # |-alpha> = Pi |alpha>, the second component of every cat
    for alpha in (0.5, 1.2, 1.7):
        assert np.array_equal(coherent_vector(-alpha, SPACE),
                              parity_operator(SPACE) @ coherent_vector(alpha, SPACE))


def test_cat_vectors_orthonormal_and_parity():
    basis = cat_vectors(np.sqrt(2.0), SPACE)
    assert np.linalg.norm(basis.plus_cat) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(basis.minus_cat) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(basis.plus_cat, basis.minus_cat)) < 1e-12
    sign = (-1.0) ** np.arange(SPACE.dim)
    assert np.allclose(sign * basis.plus_cat, basis.plus_cat)
    assert np.allclose(sign * basis.minus_cat, -basis.minus_cat)


def test_alpha_zero_limit():
    basis = cat_vectors(0.0, SPACE)
    assert abs(basis.plus_cat[0]) == pytest.approx(1.0)
    assert abs(basis.minus_cat[1]) == pytest.approx(1.0)
    assert matrix_elements(0.0) == (1.0, 1.0)


def test_truncation_guard():
    with pytest.raises(TruncationError):
        cat_vectors(3.0, FockSpace(10))


@pytest.mark.parametrize("alpha2", [0.3, 1.0, 2.0, 3.0])
def test_hx_matches_numeric_matrix_element(alpha2):
    alpha = np.sqrt(alpha2)
    basis = cat_vectors(alpha, SPACE)
    a = destroy(SPACE)
    x_op = a + a.conj().T
    numeric = abs(np.vdot(basis.minus_cat, x_op @ basis.plus_cat))
    hx, _ = matrix_elements(alpha)
    assert numeric == pytest.approx(hx, abs=1e-8)


@given(st.floats(min_value=0.01, max_value=3.5))
@settings(max_examples=40, deadline=None)
def test_hy_hx_ratio_property(alpha2):
    hx, hy = matrix_elements(np.sqrt(alpha2))
    assert hy / hx == pytest.approx(np.exp(-2.0 * alpha2), abs=1e-10)
    assert hx >= 1.0  # grows from the bare-qubit value


def test_cats_are_two_photon_eigenvectors():
    # a^2 |C_pm> = alpha^2 |C_pm>
    alpha = np.sqrt(2.5)
    basis = cat_vectors(alpha, SPACE)
    a2_op = destroy(SPACE) @ destroy(SPACE)
    for v in (basis.plus_cat, basis.minus_cat):
        assert np.linalg.norm(a2_op @ v - alpha**2 * v) < 1e-8


def test_mean_photon_numbers():
    alpha2 = 1.8
    basis = cat_vectors(np.sqrt(alpha2), SPACE)
    n_op = np.diag(np.arange(SPACE.dim))
    n_plus = np.vdot(basis.plus_cat, n_op @ basis.plus_cat).real
    n_minus = np.vdot(basis.minus_cat, n_op @ basis.minus_cat).real
    assert n_plus == pytest.approx(alpha2 * np.tanh(alpha2), abs=1e-10)
    assert n_minus == pytest.approx(alpha2 / np.tanh(alpha2), abs=1e-10)


def test_projected_number_operator():
    proj = projected_number_operator(np.sqrt(3.0))
    # exact and asymptotic forms converge for large cats
    assert proj.identity_coeff == pytest.approx(proj.asymptotic_identity, rel=2e-2)
    assert proj.z_coeff == pytest.approx(proj.asymptotic_z, rel=2e-2)
    bare = projected_number_operator(0.0)
    assert bare.identity_coeff == pytest.approx(0.5)
    assert bare.z_coeff == pytest.approx(-0.5)


@given(st.floats(min_value=-np.pi, max_value=np.pi),
       st.floats(min_value=0.2, max_value=1.8))
@settings(max_examples=40, deadline=None)
def test_axis_roundtrip(phi_tilde, alpha):
    axis = axis_from_drive_phase(phi_tilde, alpha)
    back = drive_phase_for_axis(axis.phi, alpha)
    # compare as angles (the map is bijective on (-pi, pi])
    assert np.cos(back - phi_tilde) == pytest.approx(1.0, abs=1e-9)


def test_axis_limits():
    # pure X drive maps to phi = 0 with h_phi = h_x
    axis = axis_from_drive_phase(0.0, 1.5)
    hx, hy = matrix_elements(1.5)
    assert axis.phi == pytest.approx(0.0)
    assert axis.h_phi == pytest.approx(hx)
    # pure Y drive: phi = -pi/2 with the suppressed element h_y
    axis_y = axis_from_drive_phase(np.pi / 2, 1.5)
    assert abs(axis_y.phi) == pytest.approx(np.pi / 2, abs=1e-12)
    assert axis_y.h_phi == pytest.approx(hy, abs=1e-12)


def test_import_and_x_seed_leave_scipy_unloaded():
    import kerrcat

    src = os.path.dirname(os.path.dirname(kerrcat.__file__))
    code = ("import sys, kerrcat.cli\n"
            "from kerrcat import KerrCatParams, seed_eps_x0\n"
            "seed_eps_x0(30.0, KerrCatParams.from_alpha2(2.0))\n"
            "print(sorted({'scipy.special', 'scipy.integrate', 'scipy.linalg'} & set(sys.modules)))")
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_nan_alpha_refused():
    # a NaN alpha passed the `alpha < 0` checks and gave NaN vectors and fields
    nan = float("nan")
    calls = (lambda: cat_vectors(nan, FockSpace(20)), lambda: matrix_elements(nan),
             lambda: projected_number_operator(nan), lambda: axis_from_drive_phase(0.3, nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidInputError, match="alpha"):
                call()
    with pytest.raises(ValueError):  # still a ValueError for a negative alpha
        matrix_elements(-0.5)
