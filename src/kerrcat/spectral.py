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

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import (
    FockSpace,
    HamiltonianAssembly,
    InvalidInputError,
    KerrCatParams,
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


def _block_spectra(drift: np.ndarray, ops, values: np.ndarray, real: bool):
    """:func:`_parity_spectra` of the table that :func:`~kerrcat.fock.present_channels` returns."""
    d = drift.shape[-1]
    energies = np.empty((*values.shape[:-1], d))
    states = np.zeros((*values.shape[:-1], d, d), dtype=float if real else complex)
    for block in parity_blocks(d):
        w, V = block_eigh(drift, ops, values, block, real)
        pivot = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :], axis=-2)
        # a sector's columns are its Fock rows, filled from the top state down
        energies[..., block] = w[..., ::-1]
        states[..., block, block] = (V / (pivot / np.abs(pivot)))[..., ::-1]
    return energies, states


def _parity_spectra(drift: np.ndarray, ops, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies and states of H = drift + sum_j values[..., j] ops[j], stacked.

    Every operator must be Hermitian and commute with parity, which is not
    checked here (see :func:`diagonalize_labeled`); each Fock parity block is
    diagonalized on its own, real-symmetric (real states) when all operators
    are real. The columns follow the cat ladder: column k is the (k // 2)-th
    state below the top of the sector of parity (-1)^k, so |0>, |1> are
    columns 0 and 1, and the next state down in each sector is column 2 or 3.
    Each state's largest-magnitude Fock coefficient is real and positive.
    """
    return _block_spectra(drift, *present_channels(drift, ops, values))


def _spectra_pieces(drift: np.ndarray, ops, values: np.ndarray):
    """(piece, energies, states) of :func:`_parity_spectra` over a stack, piece by piece.

    The pieces are :func:`~kerrcat.fock.stack_pieces` of the leading axis of
    ``values``, one item being that point's d x d states, so the states held
    at once stay within ``STACK_ENTRIES``. The real path is chosen once for
    the whole stack, so each point's spectrum does not depend on the piece it
    is taken in. Raises :class:`ParityLabelError` when a present channel
    couples the parity sectors (a single-photon drive).
    """
    ops, values, real = present_channels(drift, ops, values)
    if not all(keeps_parity(op) for op in ops):
        raise ParityLabelError("a channel couples the parity sectors")
    for piece in stack_pieces(len(values), (*values.shape[1:-1], *drift.shape),
                              float if real else complex):
        yield piece, *_block_spectra(drift, ops, values[piece], real)


def _gap_slopes(drift: np.ndarray, ops, values: np.ndarray):
    """E_01, dE_01/ddelta and the smaller parity-sector gap along a stack.

    Arguments as for :func:`_parity_spectra`. The stack is diagonalized in
    the bounded pieces of :func:`_spectra_pieces`, and only the gaps and the
    pair's population shift |psi_1|^2 - |psi_0|^2 (d per point) are kept, so
    memory does not grow with the stack's length times d^2.
    """
    d = drift.shape[-1]
    gap = np.empty(values.shape[:-1])
    sector_gap = np.empty(values.shape[:-1])
    shift = np.empty((*values.shape[:-1], d))
    for piece, energies, states in _spectra_pieces(drift, ops, values):
        below = energies[..., 2:4]  # the next state down in each sector, if any
        sector_gap[piece] = np.min(energies[..., :below.shape[-1]] - below, axis=-1,
                                   initial=np.inf)
        gap[piece] = energies[..., 1] - energies[..., 0]
        shift[piece] = np.abs(states[..., 1]) ** 2 - np.abs(states[..., 0]) ** 2
    # one product over the whole stack: BLAS groups a matrix-vector product's
    # rows by the stack's length, so a product per piece can differ in the last bit
    return gap, shift @ np.arange(d), sector_gap


def diagonalize_labeled(H: np.ndarray) -> LabeledSpectrum:
    """Dense Hermitian eigendecomposition with Fock-parity labels, in ladder order.

    The even and odd Fock sectors are diagonalized separately, so the labels
    are exact also at the delta = 0 degeneracy point. Column k has parity
    (-1)^k and |0>, |1> are columns 0 and 1 (see :func:`_parity_spectra`).
    Raises :class:`InvalidInputError` when ``H`` is not a finite Hermitian
    matrix, and :class:`ParityLabelError` when it couples the parity sectors.
    """
    if not np.all(np.isfinite(H)) or hermiticity_defect(H) > HERMITICITY_TOL:
        raise InvalidInputError("Hamiltonian is not a finite Hermitian matrix")
    # ||[H, Pi]||_F = 2 ||even<->odd entries of H||_F
    coupling = np.hypot(np.linalg.norm(H[0::2, 1::2]), np.linalg.norm(H[1::2, 0::2]))
    if 2.0 * coupling > PARITY_COMM_TOL * np.linalg.norm(H):
        raise ParityLabelError("Hamiltonian does not commute with the parity operator")
    return _labeled(*_parity_spectra(H, [], np.empty(0)), H)


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
    if not np.isfinite(delta_shift):
        raise InvalidInputError(f"non-finite value for channel 'delta': {delta_shift}")
    assembly = HamiltonianAssembly.build(params, space)
    spectra = _parity_spectra(assembly.drift, [assembly.channels["delta"]],
                              np.array([delta_shift], float))
    return _labeled(*spectra, assembly.drift)


def energy_gap(params: KerrCatParams, delta_shift: float, space: FockSpace) -> float:
    """Computational gap E_01 = E_1 - E_0 at total detuning delta + Delta."""
    return spectrum_at(params, delta_shift, space).gap


def _checked_slopes(assembly: HamiltonianAssembly, deltas, neighbor_tol: float):
    """Gap derivatives and sector gaps at the detuning shifts ``deltas``.

    Refuses near-degenerate states: raises :class:`IllConditionedError` when
    a sector gap falls below ``neighbor_tol`` K.
    """
    _, slopes, sector_gap = _gap_slopes(assembly.drift, [assembly.channels["delta"]],
                                        np.asarray(deltas, dtype=float)[:, None])
    if np.any(sector_gap < neighbor_tol * assembly.params.kerr):
        raise IllConditionedError(
            "computational state nearly degenerate with its parity-sector neighbor"
        )
    return slopes, sector_gap


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
    if not np.isfinite(delta_shift):
        raise InvalidInputError(f"non-finite value for channel 'delta': {delta_shift}")
    assembly = HamiltonianAssembly.build(params, space)
    (slope,), _ = _checked_slopes(assembly, [delta_shift], neighbor_tol)
    return float(slope)


#: Minimum parity-sector gap (units K) at the robust point for it to count
#: as usable. Below alpha^2 ~ 1 the gap maximum coincides with an avoided
#: crossing of the even computational state and an excited state (sector
#: gap ~0.3 K at alpha^2 = 0.2 vs ~1.4 K at alpha^2 = 1), so the "robust"
#: point is an artifact of state hybridization rather than protection.
ROBUST_SECTOR_GAP_MIN = 1.2


def robust_line(alpha2: float, space: FockSpace) -> float:
    """Detuning delta_rob in (0, 1) where the gap derivative vanishes, in units of K.

    A 16-point scan brackets the first + -> - sign change of the
    Hellmann-Feynman derivative, and Illinois false position finds the root
    inside that bracket. Raises :class:`NoRobustPointError` when the
    derivative does not change sign in (0, K), or when the zero sits on an
    avoided crossing with leakage states, both of which happen for small cat
    sizes. Raises :class:`IllConditionedError` when the root's rounding
    uncertainty 64 eps d (hi - lo) / (f(lo) - f(hi)), on the bracket at Fock
    dimension d, exceeds 1e-6 K, as for alpha^2 above about 8 at d = 90. For
    Kerr K != 1, ``KerrCatParams.from_alpha2(alpha2, kerr=K)`` has its robust point at
    ``K * robust_line(alpha2, space)``: H / K depends on delta / K and alpha^2 only.
    """
    params = KerrCatParams.from_alpha2(alpha2)
    assembly = HamiltonianAssembly.build(params, space)
    grid = np.linspace(1 / 16, 1 - 1e-9, 16)
    values, sector_gaps = _checked_slopes(assembly, grid, NEIGHBOR_TOL)
    crossings = np.flatnonzero((values[:-1] > 0) & (values[1:] <= 0))
    if len(crossings) == 0:
        raise NoRobustPointError(
            f"gap derivative has no + -> - sign change in (0, K) at alpha2={alpha2}"
        )
    k = crossings[0]
    (lo, hi), (f_lo, f_hi) = grid[k:k + 2], values[k:k + 2]
    if 64 * np.finfo(float).eps * space.dim * (hi - lo) / (f_lo - f_hi) > 1e-6:
        raise IllConditionedError(f"gap derivative at alpha2={alpha2} changes by only "
                                  f"{f_lo - f_hi:.2g} across its bracket: root set by rounding")
    root, step, side, sector_gap = lo, hi - lo, 0, sector_gaps[k]
    # Illinois false position: the bracket keeps f(lo) > 0 >= f(hi), and the
    # value at an end kept twice in a row is halved, so both ends close in and
    # the steps shrink superlinearly; a step under 1e-10 K ends the search
    while abs(step) > 1e-10:
        new = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        step, root = new - root, new
        (f,), (sector_gap,) = _checked_slopes(assembly, [root], NEIGHBOR_TOL)
        if f > 0:
            f_hi = f_hi / 2 if side > 0 else f_hi
            lo, f_lo, side = root, f, 1
        else:
            f_lo = f_lo / 2 if side < 0 else f_lo
            hi, f_hi, side = root, f, -1

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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["delta", "alpha2", "gap", "gap_deriv"])
            for i, d in enumerate(self.delta_grid):
                for j, a2 in enumerate(self.alpha2_grid):
                    writer.writerow([f"{d:.12g}", f"{a2:.12g}",
                                     f"{self.gap[i, j]:.12g}", f"{self.gap_deriv[i, j]:.12g}"])


def gap_landscape(
    delta_grid: Sequence[float],
    alpha2_grid: Sequence[float],
    space: FockSpace,
) -> GapLandscape:
    """Gap and derivative over a rectangular (delta, alpha^2) grid, in units of K."""
    deltas = np.asarray(delta_grid, dtype=float)
    alpha2s = np.asarray(alpha2_grid, dtype=float)
    gap = np.empty((len(deltas), len(alpha2s)))
    deriv = np.empty_like(gap)
    for j, a2 in enumerate(alpha2s):
        params = KerrCatParams.from_alpha2(a2)
        for i, d in enumerate(deltas):
            spec = spectrum_at(params, d, space)
            gap[i, j] = spec.gap
            # Hellmann-Feynman: <psi_1|n|psi_1> - <psi_0|n|psi_0>
            deriv[i, j] = (np.abs(spec.psi1) ** 2 - np.abs(spec.psi0) ** 2) @ np.arange(space.dim)
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
        grid = np.linspace(alpha2_min, alpha2_max, n_points)
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
