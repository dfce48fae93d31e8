"""Parity-labeled spectra of the driven Kerr oscillator.

The computational pair lives at the *top* of the drift spectrum: at zero
detuning the degenerate even/odd cat states are the highest-energy
eigenstates of H = delta n - K/2 a^dag2 a^2 + eps2/2 (a^2 + a^dag2).
``|0>`` denotes the highest-energy even-parity state and ``|1>`` the
highest-energy odd-parity state; the ladder of "excited" states used for
leakage and DRAG analysis continues downward in energy.

Every Hamiltonian labeled here commutes with photon-number parity, so the
even and odd Fock sectors are diagonalized separately and the labels are exact.

The detuning derivative of the computational gap is evaluated with the
Hellmann-Feynman identity d E_j / d delta = <psi_j| a^dag a |psi_j>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cats import _check_truncation
from .fock import (
    FockSpace,
    HamiltonianAssembly,
    InvalidInputError,
    KerrCatParams,
    _count,
    _finite,
    _save_table,
    block_eigh,
    hermiticity_defect,
    keeps_parity,
    parity_blocks,
    present_channels,
    stack_pieces,
)

HERMITICITY_TOL = 1e-12
PARITY_COMM_TOL = 1e-8
#: Closest approach (units K) of a computational state to its sector neighbor.
NEIGHBOR_TOL = 1e-8


class ParityLabelError(ValueError):
    """Hamiltonian does not commute with parity; labels would be meaningless."""


class NoRobustPointError(RuntimeError):
    """No zero of the gap derivative exists in (0, K)."""


class IllConditionedError(RuntimeError):
    """Near-degeneracy with other levels spoils the requested quantity."""


@dataclass(frozen=True)
class LabeledSpectrum:
    """Eigendecomposition in the cat-ladder layout of :func:`_parity_spectra`.

    ``states[:, k]`` and ``energies[k]`` belong to the (k // 2)-th state
    below the top of the sector of parity (-1)^k, so the computational
    states |0>, |1> are columns 0 and 1.
    """

    energies: np.ndarray
    states: np.ndarray

    @property
    def psi0(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def psi1(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def gap(self) -> float:
        """Computational gap E_01 = E_1 - E_0."""
        return float(self.energies[1] - self.energies[0])


def _block_spectra(drift: np.ndarray, ops, values: np.ndarray):
    """:func:`_parity_spectra` of the table that :func:`~kerrcat.fock.present_channels` returns."""
    d = drift.shape[-1]
    energies = np.empty((*values.shape[:-1], d))
    states = np.zeros((*values.shape[:-1], d, d), dtype=np.result_type(drift, *ops))
    even, odd = parity_blocks(d)
    # blocks of one size share an eigh call: both sectors at an even d, each its own at an odd d
    for group in [(even, odd)] if d % 2 == 0 else [(even,), (odd,)]:
        w, V = block_eigh(drift, ops, values, group)
        b = V.shape[-1]
        flat = V.reshape(-1, b, b)  # each state's pivot: its largest-magnitude Fock coefficient
        pivot = flat[np.arange(len(flat))[:, None], np.abs(flat).argmax(axis=1), np.arange(b)]
        pivot = pivot.reshape(*V.shape[:-2], 1, b)
        # a real pivot's phase is its sign, by which V is multiplied exactly
        V = V * np.sign(pivot) if np.isrealobj(V) else V / (pivot / np.abs(pivot))
        for i, block in enumerate(group):
            # a sector's columns are its Fock rows, filled from the top state down
            energies[..., block] = w[..., i, ::-1]
            states[..., block, block] = V[..., i, :, ::-1]
    return energies, states


def _parity_spectra(drift: np.ndarray, ops, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies and states of H = drift + sum_j values[..., j] ops[j], stacked.

    Every operator must be Hermitian and commute with parity, which is not
    checked here (see :func:`diagonalize_labeled`); the Fock parity blocks are
    diagonalized apart, real-symmetric (float64 states) when every operator is
    float64, with one ``eigh`` call per block size: one call for both blocks
    at an even dimension, two at an odd one. Each block's eigenpairs are those
    of an ``eigh`` call of its own, bit for bit. The columns follow the cat
    ladder: column k is the (k // 2)-th state below the top of the sector of
    parity (-1)^k, so |0>, |1> are columns 0 and 1, and the next state down in
    each sector is column 2 or 3.
    Each state's largest-magnitude Fock coefficient is real and positive.
    """
    return _block_spectra(drift, *present_channels(drift, ops, values))


def _spectra_pieces(drift: np.ndarray, ops, values: np.ndarray):
    """(piece, energies, states) of :func:`_parity_spectra` over a stack, piece by piece.

    The pieces are :func:`~kerrcat.fock.stack_pieces` of the leading axis of
    ``values``, one item being that point's d x d states, so the states held
    at once stay within ``STACK_ENTRIES``. The operators' dtypes choose the
    real path for the whole stack, so each point's spectrum does not depend on
    the piece it is taken in. Raises :class:`ParityLabelError` when a present channel
    couples the parity sectors (a single-photon drive).
    """
    ops, values = present_channels(drift, ops, values)
    if not all(keeps_parity(op) for op in ops):
        raise ParityLabelError("a channel couples the parity sectors")
    for piece in stack_pieces(len(values), (*values.shape[1:-1], *drift.shape),
                              np.result_type(drift, *ops)):
        yield piece, *_block_spectra(drift, ops, values[piece])


def _gap_curvatures(energies: np.ndarray, states: np.ndarray) -> np.ndarray:
    """d^2 E_01 / ddelta^2 of stacked labeled spectra, by second-order perturbation theory.

    d^2 E_j / ddelta^2 = 2 sum_{m != j} |<m|n|j>|^2 / (E_j - E_m), where n keeps
    parity, so m runs over the states of j's sector only. Every denominator is
    at least that sector's gap, so the value is inf or nan only where the
    computational state is degenerate with its sector neighbor.
    """
    d = energies.shape[-1]
    curvature = np.zeros(energies.shape[:-1])
    for j, sign in ((1, 2.0), (0, -2.0)):  # E_01 = E_1 - E_0
        sector = slice(j, d, 2)
        V, E = states[..., sector, sector], energies[..., sector]  # the top state first
        # <m|n|j> for every m of the sector, as the row vector (n psi_j)^T conj(V)
        coupling = ((np.arange(d)[sector] * V[..., 0])[..., None, :] @ V.conj())[..., 0, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            curvature += sign * (np.abs(coupling) ** 2 / (E[..., :1] - E[..., 1:])).sum(axis=-1)
    return curvature


def _gap_slopes(drift: np.ndarray, ops, values: np.ndarray):
    """E_01, dE_01/ddelta, d^2 E_01/ddelta^2 and the smaller parity-sector gap along a stack.

    Arguments as for :func:`_parity_spectra`. The stack is diagonalized in
    the bounded pieces of :func:`_spectra_pieces`, and only the gaps, the
    curvatures (:func:`_gap_curvatures`) and the pair's population shift
    |psi_1|^2 - |psi_0|^2 (d per point) are kept, so memory does not grow with
    the stack's length times d^2.
    """
    d = drift.shape[-1]
    gap = np.empty(values.shape[:-1])
    curvature = np.empty(values.shape[:-1])
    sector_gap = np.empty(values.shape[:-1])
    shift = np.empty((*values.shape[:-1], d))
    for piece, energies, states in _spectra_pieces(drift, ops, values):
        below = energies[..., 2:4]  # the next state down in each sector, if any
        sector_gap[piece] = (energies[..., :below.shape[-1]] - below).min(
            axis=-1, initial=np.inf)
        gap[piece] = energies[..., 1] - energies[..., 0]
        curvature[piece] = _gap_curvatures(energies, states)
        shift[piece] = np.abs(states[..., 1]) ** 2 - np.abs(states[..., 0]) ** 2
    # one product over the whole stack: BLAS groups a matrix-vector product's
    # rows by the stack's length, so a product per piece can differ in the last bit
    return gap, shift @ np.arange(d), curvature, sector_gap


def diagonalize_labeled(H: np.ndarray) -> LabeledSpectrum:
    """Dense Hermitian eigendecomposition with Fock-parity labels, in ladder order.

    The even and odd Fock sectors are diagonalized separately, so the labels
    are exact also at the delta = 0 degeneracy point. Column k has parity
    (-1)^k and |0>, |1> are columns 0 and 1 (see :func:`_parity_spectra`).
    A complex H with zero imaginary part is diagonalized as ``H.real``, its
    states complex. Raises :class:`InvalidInputError` when ``H`` is not a finite
    Hermitian matrix, and :class:`ParityLabelError` when it couples the parity sectors.
    """
    if not np.all(np.isfinite(H)) or hermiticity_defect(H) > HERMITICITY_TOL:
        raise InvalidInputError("Hamiltonian is not a finite Hermitian matrix")
    # ||[H, Pi]||_F = 2 ||even<->odd entries of H||_F
    coupling = np.hypot(np.linalg.norm(H[0::2, 1::2]), np.linalg.norm(H[1::2, 0::2]))
    if 2.0 * coupling > PARITY_COMM_TOL * np.linalg.norm(H):
        raise ParityLabelError("Hamiltonian does not commute with the parity operator")
    return _labeled(*_parity_spectra(H if np.any(np.imag(H)) else H.real, [], np.empty(0)), H)


def _labeled(energies: np.ndarray, states: np.ndarray, H: np.ndarray) -> LabeledSpectrum:
    """A single point's :func:`_parity_spectra` as a spectrum with states of H's dtype."""
    # column-major, so psi0 and psi1 are contiguous vectors: BLAS can round a
    # product with a strided vector differently in the last bit
    return LabeledSpectrum(energies=energies,
                           states=states.astype(np.result_type(H, float), order="F"))


def spectrum_at(params: KerrCatParams, delta_shift: float, space: FockSpace) -> LabeledSpectrum:
    """Labeled spectrum, in ladder order, of the drift at total detuning delta + Delta.

    The same spectrum, bit for bit, as :func:`diagonalize_labeled` of the
    drift plus ``delta_shift`` times the number operator. A non-finite shift,
    or one that overflows the Hamiltonian, raises :class:`InvalidInputError`.
    """
    _finite(delta_shift, "value for channel 'delta'")
    assembly = HamiltonianAssembly.build(params, space)
    spectra = _parity_spectra(assembly.drift, [assembly.channels["delta"]],
                              np.array([delta_shift], float))
    return _labeled(*spectra, assembly.drift)


def energy_gap(params: KerrCatParams, delta_shift: float, space: FockSpace) -> float:
    """Computational gap E_01 = E_1 - E_0 at total detuning delta + Delta."""
    return spectrum_at(params, delta_shift, space).gap


def _checked_slopes(assembly: HamiltonianAssembly, deltas, neighbor_tol: float):
    """Gap derivatives, their curvatures and the sector gaps at the detuning shifts ``deltas``.

    Refuses near-degenerate states: raises :class:`IllConditionedError` when
    a sector gap falls below ``neighbor_tol`` K (InvalidInputError unless finite, >= 0).
    """
    if not 0 <= neighbor_tol < np.inf:
        raise InvalidInputError(f"neighbor_tol must be finite and >= 0, got {neighbor_tol!r}")
    _, slopes, curvatures, sector_gap = _gap_slopes(
        assembly.drift, [assembly.channels["delta"]], np.asarray(deltas, dtype=float)[:, None])
    if np.any(sector_gap < neighbor_tol * assembly.params.kerr):
        raise IllConditionedError(
            "computational state nearly degenerate with its parity-sector neighbor"
        )
    return slopes, curvatures, sector_gap


def gap_derivative(
    params: KerrCatParams,
    delta_shift: float,
    space: FockSpace,
    neighbor_tol: float = NEIGHBOR_TOL,
) -> float:
    """Detuning derivative of the gap via Hellmann-Feynman.

    d E_01 / d delta = <psi_1|n|psi_1> - <psi_0|n|psi_0>. Valid when the
    computational states are separated from their parity-sector neighbors.
    A non-finite shift, or one that overflows the Hamiltonian, raises
    :class:`InvalidInputError`.
    """
    _finite(delta_shift, "value for channel 'delta'")
    assembly = HamiltonianAssembly.build(params, space)
    (slope,), _, _ = _checked_slopes(assembly, [delta_shift], neighbor_tol)
    return float(slope)


#: Minimum parity-sector gap (units K) at the robust point for it to count
#: as usable. Below alpha^2 ~ 1 the gap maximum coincides with an avoided
#: crossing of the even computational state and an excited state (sector
#: gap ~0.3 K at alpha^2 = 0.2 vs ~1.4 K at alpha^2 = 1), so the "robust"
#: point is an artifact of state hybridization rather than protection.
ROBUST_SECTOR_GAP_MIN = 1.2


def _newton_in_bracket(fn, lo: float, hi: float, x: float):
    """Root of ``fn`` in [lo, hi], where fn(lo) > 0 >= fn(hi), by Newton's method from ``x``.

    ``fn(x)`` returns f(x), f'(x) and any further values. The bracket keeps the
    sign change; a Newton step needs f' < 0, as at a + -> - crossing, and a step
    that would leave the bracket bisects it instead. A step under 1e-10 ends the
    search and is taken without another evaluation. Returns the root and the
    further values of the last evaluation.
    """
    step = np.inf
    while abs(step) > 1e-10:
        f, slope, *rest = fn(x)
        lo, hi = (x, hi) if f > 0 else (lo, x)
        new = x - f / slope if slope < 0 else np.nan
        if not lo <= new <= hi:
            new = (lo + hi) / 2
        step, x = new - x, new
    return x, rest


def robust_line(alpha2: float, space: FockSpace) -> float:
    """Detuning delta_rob in (0, 1) where the gap derivative vanishes, in units of K.

    An 8-point scan brackets the first + -> - sign change of the
    Hellmann-Feynman derivative f = dE_01/ddelta, and Newton's method on f,
    with f' the curvature d^2 E_01/ddelta^2 from the same eigenpairs (see
    :func:`_gap_curvatures`), finds the root inside that bracket: a step that
    would leave the bracket bisects it instead. The search starts at the root
    of the cubic Hermite interpolant of f on the bracket, whose end slopes are
    the curvatures the scan already has, and ends at a Newton step under
    1e-10 K, so at dimension 16 to 60 a root takes 2 or 3 single-point
    spectra after its bracket. Raises :class:`~kerrcat.cats.TruncationError`,
    before any spectrum, when the Fock dimension cannot hold the cat (the
    rule of :func:`~kerrcat.cats.cat_vectors`). Raises
    :class:`NoRobustPointError` when the
    derivative does not change sign in (0, K), or when the zero sits on an
    avoided crossing with leakage states, both of which happen for small cat
    sizes. Raises :class:`IllConditionedError` when the root's rounding
    uncertainty 64 eps d (hi - lo) / (f(lo) - f(hi)), on the bracket at Fock
    dimension d, exceeds 1e-6 K, as for alpha^2 above about 8 at d = 90. For
    Kerr K != 1, ``KerrCatParams.from_alpha2(alpha2, kerr=K)`` has its robust point at
    ``K * robust_line(alpha2, space)``: H / K depends on delta / K and alpha^2 only.
    """
    params = KerrCatParams.from_alpha2(alpha2)
    _check_truncation(alpha2, space)
    assembly = HamiltonianAssembly.build(params, space)
    grid = np.linspace(1 / 16, 1 - 1e-9, 8)
    values, curvatures, _ = _checked_slopes(assembly, grid, NEIGHBOR_TOL)
    crossings = np.flatnonzero((values[:-1] > 0) & (values[1:] <= 0))
    if len(crossings) == 0:
        raise NoRobustPointError(
            f"gap derivative has no + -> - sign change in (0, K) at alpha2={alpha2}"
        )
    k = crossings[0]
    (lo, hi), (f_lo, f_hi), (c_lo, c_hi) = grid[k:k + 2], values[k:k + 2], curvatures[k:k + 2]
    if 64 * np.finfo(float).eps * space.dim * (hi - lo) / (f_lo - f_hi) > 1e-6:
        raise IllConditionedError(f"gap derivative at alpha2={alpha2} changes by only "
                                  f"{f_lo - f_hi:.2g} across its bracket: root set by rounding")
    # the cubic Hermite interpolant f_lo + s (c + s (b + s a)), s = (x - lo) / h,
    # takes the values and curvatures of f at both ends of the bracket
    h = hi - lo
    c = h * c_lo
    b = 3 * (f_hi - f_lo) - h * (2 * c_lo + c_hi)
    a = 2 * (f_lo - f_hi) + h * (c_lo + c_hi)

    def cubic(x):
        s = (x - lo) / h
        return f_lo + s * (c + s * (b + s * a)), (c + s * (2 * b + 3 * s * a)) / h

    start, _ = _newton_in_bracket(cubic, lo, hi, (lo * f_hi - hi * f_lo) / (f_hi - f_lo))
    root, (sector_gap,) = _newton_in_bracket(
        lambda x: [v[0] for v in _checked_slopes(assembly, [x], NEIGHBOR_TOL)], lo, hi, start)

    if sector_gap < ROBUST_SECTOR_GAP_MIN:
        raise NoRobustPointError(
            f"gap maximum at alpha2={alpha2} sits on an avoided crossing "
            f"(sector gap {sector_gap:.3g} K); no usable robust point"
        )
    return float(root)


@dataclass(frozen=True)
class GapLandscape:
    """E_01 and its detuning derivative on a (delta, alpha^2) grid."""

    delta_grid: np.ndarray
    alpha2_grid: np.ndarray
    gap: np.ndarray        # shape (n_delta, n_alpha2)
    gap_deriv: np.ndarray  # shape (n_delta, n_alpha2)

    def to_csv(self, path) -> None:
        """One row per grid point, delta outer and alpha^2 inner."""
        d, a2 = np.meshgrid(self.delta_grid, self.alpha2_grid, indexing="ij")
        _save_table(path, ["delta", "alpha2", "gap", "gap_deriv"],
                    d.ravel(), a2.ravel(), self.gap.ravel(), self.gap_deriv.ravel())


def gap_landscape(
    delta_grid: Sequence[float],
    alpha2_grid: Sequence[float],
    space: FockSpace,
) -> GapLandscape:
    """Gap and derivative over a rectangular (delta, alpha^2) grid, in units of K.

    Each grid must be one-dimensional; any other raises :class:`InvalidInputError`.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    alpha2s = np.asarray(alpha2_grid, dtype=float)
    for name, grid in (("delta_grid", deltas), ("alpha2_grid", alpha2s)):
        if grid.ndim != 1:
            raise InvalidInputError(f"{name} must be one-dimensional, got shape {grid.shape}")
    gap = np.empty((len(deltas), len(alpha2s)))
    deriv = np.empty_like(gap)
    n = np.arange(space.dim)
    for j, a2 in enumerate(alpha2s):
        params = KerrCatParams.from_alpha2(a2)
        for i, d in enumerate(deltas):
            spec = spectrum_at(params, d, space)
            gap[i, j] = spec.gap
            # Hellmann-Feynman: <psi_1|n|psi_1> - <psi_0|n|psi_0>
            deriv[i, j] = (np.abs(spec.psi1) ** 2 - np.abs(spec.psi0) ** 2) @ n
    return GapLandscape(delta_grid=deltas, alpha2_grid=alpha2s, gap=gap, gap_deriv=deriv)


class RobustLineCache:
    """:func:`robust_line` (units of K) on an alpha^2 grid, monotone-cubic interpolated."""

    def __init__(self, alpha2_min: float, alpha2_max: float, space: FockSpace,
                 n_points: int = 200):
        from scipy.interpolate import PchipInterpolator

        if not alpha2_max > alpha2_min:
            raise InvalidInputError("alpha2_max must exceed alpha2_min")
        self.alpha2_min = alpha2_min
        self.alpha2_max = alpha2_max
        grid = np.linspace(alpha2_min, alpha2_max, _count(n_points, 2, "n_points"))
        values = np.array([robust_line(a2, space) for a2 in grid])
        self._interp = PchipInterpolator(grid, values)

    def __call__(self, alpha2) -> np.ndarray | float:
        a2 = np.asarray(alpha2, dtype=float)
        if not np.all(np.isfinite(a2)):  # not a point without a robust line: a bad input
            raise InvalidInputError(f"non-finite alpha2 {alpha2!r}")
        if np.any(a2 < self.alpha2_min - 1e-12) or np.any(a2 > self.alpha2_max + 1e-12):
            raise NoRobustPointError(f"alpha2 outside cached robust-line range "
                                     f"[{self.alpha2_min}, {self.alpha2_max}]")
        out = self._interp(np.clip(a2, self.alpha2_min, self.alpha2_max))
        return float(out) if np.isscalar(alpha2) else out
