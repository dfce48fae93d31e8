from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kerrcat import spectral
from kerrcat.cats import TruncationError
from kerrcat.fock import (FockSpace, InvalidInputError, KerrCatParams, build_hamiltonian,
                          destroy, number_operator, parity_operator)
from kerrcat.propagation import adiabaticity_diagnostic
from kerrcat.pulses import scheme_x, scheme_z_robustline
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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 1e308])
def test_spectrum_at_shift_guard(delta):
    # the shift is the one value from outside the library; 1e308 is finite but
    # overflows H
    for read in (spectrum_at, energy_gap, gap_derivative):
        with pytest.raises(InvalidInputError):
            read(KerrCatParams.from_alpha2(2.0), delta, FockSpace(10))


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


def _fine_scan_root(alpha2, space):
    """The first + -> - sign change of a 256-point scan of the single-point
    derivative, solved by Brent's method; None where no usable root exists
    (no sign change, or a sector gap under ROBUST_SECTOR_GAP_MIN at the root)."""
    from scipy.optimize import brentq

    params = KerrCatParams.from_alpha2(alpha2)
    grid = np.linspace(1 / 256, 1 - 1e-9, 256)
    slope = [gap_derivative(params, d, space) for d in grid]
    k = next((i for i in range(len(grid) - 1) if slope[i] > 0 >= slope[i + 1]), None)
    if k is None:
        return None
    root = brentq(lambda d: gap_derivative(params, d, space), grid[k], grid[k + 1], xtol=1e-12)
    energies = spectrum_at(params, root, space).energies
    return root if min(energies[:2] - energies[2:4]) >= spectral.ROBUST_SECTOR_GAP_MIN else None


def test_robust_line_matches_fine_scan_root():
    # the library's 8-point bracket and Hermite-started Newton search must
    # find the fine scan's root, or refuse where it has none, also at an odd
    # dim and below alpha^2 1, where the small cats have no usable root
    for dim in (24, 25):
        space = FockSpace(dim)
        for alpha2 in [*np.linspace(0.3, 0.9, 4), *np.linspace(1.0, 3.0, 11)]:
            ref = _fine_scan_root(alpha2, space)
            if ref is None:
                with pytest.raises(NoRobustPointError):
                    robust_line(alpha2, space)
            else:
                assert abs(robust_line(alpha2, space) - ref) < 1e-9, (dim, alpha2)


def test_robust_line_newton_takes_few_spectra():
    # after its 8-point bracket, Newton's method started at the bracket's
    # Hermite-cubic root takes 2 or 3 single-point spectra per root, and at
    # the even dim 24 each spectrum is one eigh call
    space = FockSpace(24)
    for alpha2 in np.linspace(1.0, 3.0, 11):
        with mock.patch.object(spectral, "_block_spectra", wraps=spectral._block_spectra) as spy, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            robust_line(alpha2, space)
        points = [len(call.args[2]) for call in spy.call_args_list]
        assert points[0] == 8 and 2 <= len(points) - 1 <= 3, (alpha2, points)
        assert points[1:] == [1] * (len(points) - 1)
        assert eigh.call_count == len(points)


@pytest.mark.parametrize("dim", [7, 9, 10])
def test_robust_line_refuses_truncated_space(dim):
    # these dims cannot hold the cat of alpha^2 2 (cats.cat_vectors's rule);
    # the search returned 0.0763, 0.2428 and 0.3671 there, against 0.32240
    with mock.patch.object(spectral, "_block_spectra") as spectra, \
            pytest.raises(TruncationError, match=f"dim={dim}"):
        robust_line(2.0, FockSpace(dim))
    spectra.assert_not_called()


def test_robust_line_refuses_root_set_by_rounding():
    # at dim 90 the derivative changes by 4.7e-7 across the bracket at
    # alpha^2 8 but by 6.6e-13 at alpha^2 15, near its rounding of about 1e-14
    space = FockSpace(90)
    root = robust_line(8.0, space)
    assert abs(gap_derivative(KerrCatParams.from_alpha2(8.0), root, space)) < 1e-12
    with pytest.raises(IllConditionedError, match="rounding"):
        robust_line(15.0, space)


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
    for bad in (1e-3, np.nan):  # not Hermitian, not finite
        H = build_hamiltonian(KerrCatParams.from_alpha2(1.0), space)
        H[0, 2] += bad
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


def _per_block_spectrum(H):
    """Cat-ladder energies and states of H, each parity block by an eigh call of its own."""
    d = H.shape[-1]
    energies, states = np.empty(d), np.zeros((d, d), dtype=H.dtype)
    for block in (slice(0, d, 2), slice(1, d, 2)):
        w, V = np.linalg.eigh(H[block, block])
        pivot = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
        energies[block], states[block, block] = w[::-1], (V / (pivot / np.abs(pivot)))[:, ::-1]
    return energies, states


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 12), batch=st.integers(1, 3), complex_=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(dim=12, batch=3, complex_=False, seed=1)
@example(dim=11, batch=3, complex_=False, seed=2)
@example(dim=12, batch=2, complex_=True, seed=3)
@example(dim=11, batch=2, complex_=True, seed=4)
def test_spectrum_columns_follow_the_cat_ladder(dim, batch, complex_, seed):
    # column k is the (k // 2)-th state below the top of the sector of parity
    # (-1)^k, so |0>, |1> are columns 0 and 1 of every stacked spectrum; the
    # blocks share eigh calls (both in one at an even dim), yet each point's
    # spectrum equals that of its blocks diagonalized one call each, bit for bit
    rng = np.random.default_rng(seed)
    drift, op = _random_parity_operators(dim, 2, complex_, rng)
    values = rng.uniform(-1.0, 1.0, size=(batch, 1))
    energies, states = _parity_spectra(drift, [op], values)
    k = np.arange(dim)
    assert np.all(states[:, np.add.outer(k, k) % 2 == 1] == 0)
    assert np.all(energies[:, 2:] < energies[:, :-2])
    for b in range(batch):
        ref_energies, ref_states = _per_block_spectrum(drift + values[b, 0] * op)
        assert np.array_equal(energies[b], ref_energies)
        assert np.array_equal(states[b], ref_states)
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


@pytest.mark.parametrize("deltas, alpha2s, name", [
    ([[0.0, 0.2], [0.4, 0.6]], [1.0, 2.0], "delta_grid"),  # numpy's "truth value ... ambiguous"
    ([0.0, 0.2], [[1.0, 2.0], [2.5, 3.0]], "alpha2_grid"),  # numpy's "inhomogeneous shape"
    (0.2, [1.0], "delta_grid"),
])
def test_gap_landscape_refuses_grid_not_1d(deltas, alpha2s, name):
    with pytest.raises(InvalidInputError, match=name):
        gap_landscape(deltas, alpha2s, FockSpace(12))


def test_robust_cache_matches_direct_roots():
    cache = RobustLineCache(1.0, 3.0, FockSpace(30), n_points=40)
    rng = np.random.default_rng(7)
    for a2 in rng.uniform(1.0, 3.0, size=5):
        direct = robust_line(float(a2), FockSpace(30))
        assert abs(float(cache(float(a2))) - direct) < 1e-6


@pytest.mark.parametrize("n_points", [1, 0, 2.5, True])
def test_robust_cache_refuses_bad_point_count(n_points):
    # one point failed in scipy's interpolator, and 2.5 with numpy's TypeError
    with pytest.raises(InvalidInputError, match="n_points"):
        RobustLineCache(1.0, 2.0, FockSpace(20), n_points=n_points)


def test_robust_cache_rejects_non_finite_alpha2():
    # a NaN cat size gave a NaN detuning; as NoRobustPointError the robust-line
    # scheme would have scored it an infeasible point instead of a bad input
    cache = RobustLineCache(1.0, 2.0, FockSpace(30), n_points=8)
    for a2 in (np.nan, np.inf, -np.inf, [1.5, np.nan]):
        with pytest.raises(InvalidInputError, match="non-finite alpha2"):
            cache(a2)
    p = KerrCatParams.from_alpha2(2.0)
    with pytest.raises(InvalidInputError, match="non-finite alpha2"):
        scheme_z_robustline(30.0, 5.0, np.nan, p, cache)


def test_robust_cache_range_guard():
    cache = RobustLineCache(1.0, 2.0, FockSpace(30), n_points=20)
    with pytest.raises(NoRobustPointError):
        cache(0.5)
    with pytest.raises(NoRobustPointError):
        cache(2.5)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
def test_gap_derivative_refuses_bad_neighbor_tol(tol):
    # a NaN tolerance switched the near-degeneracy guard off without a word
    with pytest.raises(InvalidInputError, match="neighbor_tol"):
        gap_derivative(KerrCatParams.from_alpha2(2.0), 0.2, FockSpace(30), neighbor_tol=tol)


def test_complex_typed_real_hamiltonian_labeled_as_its_real_part():
    # outside Hamiltonians may come complex-typed; one with zero imaginary part
    # takes the real path, and its states keep H's dtype
    H = build_hamiltonian(KerrCatParams.from_alpha2(2.0), SPACE, {"delta": 0.3})
    assert H.dtype == np.float64
    real, cplx = diagonalize_labeled(H), diagonalize_labeled(H.astype(complex))
    assert cplx.states.dtype == np.complex128
    assert np.array_equal(cplx.energies, real.energies)
    assert np.array_equal(cplx.states, real.states)
    assert cplx.states.real.tobytes() == real.states.tobytes()
