import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcat.fock import (FockSpace, InvalidInputError, KerrCatParams, build_hamiltonian,
                          destroy, number_operator, parity_operator)
from kerrcat.propagation import adiabaticity_diagnostic
from kerrcat.pulses import scheme_x
from kerrcat.spectral import (IllConditionedError, NoRobustPointError,
                              ParityLabelError, RobustLineCache, _parity_spectra,
                              diagonalize_labeled, energy_gap, gap_derivative,
                              gap_landscape, robust_line, spectrum_at)

SPACE = FockSpace(40)


def test_pure_kerr_labeling():
    # at alpha^2 = 0 the computational pair is |0>, |1> at the top (E = 0)
    space = FockSpace(8)
    spec = spectrum_at(KerrCatParams(), 0.0, space)
    assert spec.gap == pytest.approx(0.0, abs=1e-12)
    assert abs(spec.psi0[0]) == pytest.approx(1.0)
    assert abs(spec.psi1[1]) == pytest.approx(1.0)


@pytest.mark.parametrize("delta", [0.0, 0.37, -1.5])
def test_spectrum_at_equals_labeled_explicit_hamiltonian(delta):
    params = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.1)
    spec = spectrum_at(params, delta, SPACE)
    a = destroy(SPACE)
    ad = a.conj().T
    n = ad @ a
    explicit = (0.1 * n - 0.5 * (ad @ ad @ a @ a) + 2.0 * (0.5 * (a @ a + ad @ ad))) + delta * n
    for H in (build_hamiltonian(params, SPACE, {"delta": delta}), explicit):
        ref = diagonalize_labeled(H)
        assert np.array_equal(spec.energies, ref.energies)
        assert np.array_equal(spec.states, ref.states)
    # one Hamiltonian broadcast over a stack gives its spectrum in every row,
    # and adding delta through a channel gives the same spectrum
    H = build_hamiltonian(params, SPACE, {"delta": delta})
    single = _parity_spectra(H, [], np.empty(0))
    energies, states = _parity_spectra(H, [], np.empty((3, 0)))
    assert np.array_equal(energies, np.broadcast_to(single[0], energies.shape))
    assert np.array_equal(states, np.broadcast_to(single[1], states.shape))
    if delta:
        energies, states = _parity_spectra(build_hamiltonian(params, SPACE),
                                           [number_operator(SPACE)], np.full((2, 1), delta))
        assert np.allclose(energies, single[0], rtol=0, atol=1e-11)
        assert np.allclose(states, single[1], rtol=0, atol=1e-9)


@pytest.mark.parametrize("alpha2", [0.5, 1.0, 2.0, 3.0])
def test_zero_detuning_degeneracy(alpha2):
    gap = energy_gap(KerrCatParams.from_alpha2(alpha2), 0.0, SPACE)
    assert abs(gap) < 1e-9


@pytest.mark.parametrize("alpha2", [1.0, 2.0, 3.0])
def test_gap_positive_in_protected_window(alpha2):
    p = KerrCatParams.from_alpha2(alpha2)
    for delta in (0.1, 0.3, 0.6):
        assert energy_gap(p, delta, SPACE) > 0


def test_hellmann_feynman_vs_finite_difference():
    p = KerrCatParams.from_alpha2(2.0)
    h = 1e-6
    for delta in (0.05, 0.2, 0.4):
        hf = gap_derivative(p, delta, SPACE)
        fd = (energy_gap(p, delta + h, SPACE) - energy_gap(p, delta - h, SPACE)) / (2 * h)
        assert hf == pytest.approx(fd, abs=1e-6)


@pytest.mark.parametrize("alpha2", [1.5, 2.0, 2.5, 3.0])
def test_derivative_asymptote(alpha2):
    deriv = gap_derivative(KerrCatParams.from_alpha2(alpha2), 0.0, SPACE)
    asym = 4.0 * alpha2 * np.exp(-2.0 * alpha2)
    assert deriv == pytest.approx(asym, rel=0.15)


# robust-line reference values frozen from a direct bisection of the
# Hellmann-Feynman derivative at dim = 40
ROBUST_REFERENCE = {1.0: 0.3913, 1.5: 0.3503, 2.0: 0.3224, 3.0: 0.2876}


@pytest.mark.parametrize("alpha2,expected", sorted(ROBUST_REFERENCE.items()))
def test_robust_line_reference_points(alpha2, expected):
    assert robust_line(alpha2, SPACE) == pytest.approx(expected, abs=2e-4)


@pytest.mark.parametrize("alpha2", [0.2, 0.5, 0.8])
def test_no_robust_point_for_small_cats(alpha2):
    with pytest.raises(NoRobustPointError, match="avoided crossing"):
        robust_line(alpha2, SPACE)


def test_robust_line_derivative_vanishes():
    for alpha2 in (1.0, 1.5, 2.0, 2.5, 3.0):
        d = robust_line(alpha2, SPACE)
        assert abs(gap_derivative(KerrCatParams.from_alpha2(alpha2), d, SPACE)) < 1e-11


@pytest.mark.parametrize("kerr", [0.5, 2.5])
def test_robust_line_is_in_units_of_K(kerr):
    # H / K depends on delta / K and alpha^2 only, so the robust point of a
    # Kerr-K oscillator is K times the robust line
    space = FockSpace(30)
    params = KerrCatParams.from_alpha2(2.0, kerr=kerr)
    assert abs(gap_derivative(params, kerr * robust_line(2.0, space), space)) < 1e-12


def test_parity_label_error():
    space = FockSpace(10)
    H = build_hamiltonian(KerrCatParams(), space, {"eps_x": 0.5})
    with pytest.raises(ParityLabelError):
        diagonalize_labeled(H)
    # the X drive couples the parity sectors, so no schedule step can be labeled
    with pytest.raises(ParityLabelError):
        adiabaticity_diagnostic(scheme_x(10.0, 0.1, KerrCatParams.from_alpha2(2.0),
                                         n_samples=21), space, n_samples=5)


def test_labeled_input_guards():
    space = FockSpace(6)
    H = build_hamiltonian(KerrCatParams.from_alpha2(1.0), space)
    H[0, 2] += 1e-3
    with pytest.raises(InvalidInputError):
        diagonalize_labeled(H)


def test_degenerate_pair_rotated_to_parity_basis():
    # small truncations split the delta = 0 pair by more than rounding; the
    # states must still carry no amplitude in the other parity sector
    for dim, alpha2 in ((40, 2.0), (20, 2.2), (16, 1.35)):
        space = FockSpace(dim)
        spec = spectrum_at(KerrCatParams.from_alpha2(alpha2), 0.0, space)
        pi = parity_operator(space)
        for idx, sign in ((0, 1), (1, -1)):
            v = spec.states[:, idx]
            assert np.vdot(v, pi @ v).real == pytest.approx(sign, abs=1e-9)
        assert np.max(np.abs(spec.psi0[1::2])) < 1e-12
        assert np.max(np.abs(spec.psi1[0::2])) < 1e-12


def _random_parity_operators(dim, count, complex_, rng):
    """Random Hermitian matrices with no even<->odd Fock entries."""
    A = rng.normal(size=(count, dim, dim))
    if complex_:
        A = A + 1j * rng.normal(size=(count, dim, dim))
    H = 0.5 * (A + np.swapaxes(A, -1, -2).conj())
    H[:, 0::2, 1::2] = 0.0
    H[:, 1::2, 0::2] = 0.0
    return H


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 12), batch=st.integers(1, 4), n_ops=st.integers(0, 1),
       complex_=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_kernel_rows_equal_single_calls(dim, batch, n_ops, complex_, seed):
    # at most one operator, so each row's H = drift + v * op is the same
    # floating-point matrix in the stacked and the single call
    rng = np.random.default_rng(seed)
    drift, *ops = _random_parity_operators(dim, 1 + n_ops, complex_, rng)
    values = rng.uniform(-1.0, 1.0, size=(batch, n_ops))
    energies, states = _parity_spectra(drift, ops, values)
    for b in range(batch):
        H = drift + sum(v * op for v, op in zip(values[b], ops))
        spec = diagonalize_labeled(H)
        assert np.allclose(spec.energies, energies[b], rtol=0, atol=1e-12)
        assert np.allclose(spec.states, states[b], rtol=0, atol=1e-12)
        # an exact eigensystem: orthonormal, eigen-equation, column k of parity (-1)^k
        V = spec.states
        even = np.arange(dim) % 2 == 0
        assert np.allclose(V.conj().T @ V, np.eye(dim), atol=1e-12)
        assert np.allclose(H @ V, V * spec.energies, atol=1e-10)
        assert np.all(V[1::2][:, even] == 0)
        assert np.all(V[0::2][:, ~even] == 0)
        # gauge: the largest-magnitude Fock coefficient is real and positive
        pivots = V[np.argmax(np.abs(V), axis=0), np.arange(dim)]
        assert np.all(pivots.real > 0) and np.all(np.abs(pivots.imag) < 1e-14)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 12), batch=st.integers(1, 3), complex_=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_spectrum_columns_follow_the_cat_ladder(dim, batch, complex_, seed):
    # column k is the (k // 2)-th state below the top of the sector of parity
    # (-1)^k, so |0>, |1> are columns 0 and 1 of every stacked spectrum
    rng = np.random.default_rng(seed)
    drift, op = _random_parity_operators(dim, 2, complex_, rng)
    values = rng.uniform(-1.0, 1.0, size=(batch, 1))
    energies, states = _parity_spectra(drift, [op], values)
    k = np.arange(dim)
    assert np.all(states[:, np.add.outer(k, k) % 2 == 1] == 0)
    assert np.all(energies[:, 2:] < energies[:, :-2])
    for b in range(batch):
        spec = diagonalize_labeled(drift + values[b, 0] * op)
        assert np.array_equal(spec.energies, energies[b])
        assert np.array_equal(spec.states, states[b])
        assert spec.states.flags.f_contiguous  # each state a contiguous vector
        assert np.array_equal(spec.psi0, states[b, :, 0])
        assert np.array_equal(spec.psi1, states[b, :, 1])


def test_gap_derivative_ill_conditioned_guard():
    # tiny truncation with an engineered near-degeneracy is hard to hit;
    # instead check the guard triggers with an absurdly large tolerance
    with pytest.raises(IllConditionedError):
        gap_derivative(KerrCatParams.from_alpha2(2.0), 0.2, SPACE, neighbor_tol=10.0)


def test_gap_landscape_grid_and_csv(tmp_path):
    land = gap_landscape([0.0, 0.2, 0.4], [1.0, 2.0], FockSpace(30))
    assert land.gap.shape == (3, 2)
    assert np.all(land.gap[0] < 1e-9)  # delta = 0 column degenerate
    path = tmp_path / "land.csv"
    land.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "delta,alpha2,gap,gap_deriv"
    assert len(rows) == 1 + 3 * 2


def test_robust_cache_matches_direct_roots():
    cache = RobustLineCache(1.0, 3.0, FockSpace(30), n_points=40)
    rng = np.random.default_rng(7)
    for a2 in rng.uniform(1.0, 3.0, size=5):
        direct = robust_line(float(a2), FockSpace(30))
        assert abs(float(cache(float(a2))) - direct) < 1e-6


def test_robust_cache_range_guard():
    cache = RobustLineCache(1.0, 2.0, FockSpace(30), n_points=20)
    with pytest.raises(NoRobustPointError):
        cache(0.5)
    with pytest.raises(NoRobustPointError):
        cache(2.5)
