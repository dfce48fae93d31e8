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
    block_hamiltonians,
    hermiticity_defect,
    is_real,
    parity_blocks,
    present_channels,
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
    """Eigendecomposition with parity labels and computational-state indices.

    energies ascend; ``states[:, k]`` matches ``energies[k]``.
    ``comp_indices = (i0, i1)`` locate the computational states: the
    even- and odd-parity states of highest energy.
    """

    energies: np.ndarray
    states: np.ndarray
    parities: np.ndarray
    comp_indices: tuple[int, int]

    @property
    def psi0(self) -> np.ndarray:
        return self.states[:, self.comp_indices[0]]

    @property
    def psi1(self) -> np.ndarray:
        return self.states[:, self.comp_indices[1]]

    @property
    def gap(self) -> float:
        """Computational gap E_01 = E_1 - E_0."""
        return float(self.energies[self.comp_indices[1]] - self.energies[self.comp_indices[0]])

    def excited_indices(self, count: int | None = None) -> list[int]:
        """Indices of the ``count`` levels adjacent to the computational pair, by energy."""
        comp = set(self.comp_indices)
        order = np.argsort(self.energies)[::-1]  # descending from the cat manifold
        out = [int(k) for k in order if int(k) not in comp]
        return out if count is None else out[:count]


def _comp_columns(dim: int) -> tuple[int, int]:
    """Columns of |0> and |1> in the block order of :func:`_parity_spectra`."""
    return (dim + 1) // 2 - 1, dim - 1


def _parity_spectra(drift: np.ndarray, ops, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies and states of H = drift + sum_j values[..., j] ops[j], stacked.

    Every operator must be Hermitian and commute with parity; each Fock
    parity block is diagonalized on its own, real-symmetric (real states)
    when all operators are real. Block order: even sector, then odd, each
    ascending, so |0>, |1> sit at :func:`_comp_columns` and the next state
    down in a sector one column before. Each state's largest-magnitude
    Fock coefficient is real and positive.
    """
    ops, values = present_channels(ops, values)
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("non-finite Hamiltonian coefficient")
    for op in (drift, *ops):
        if not np.all(np.isfinite(op)) or hermiticity_defect(op) > HERMITICITY_TOL:
            raise InvalidInputError("Hamiltonian is not a finite Hermitian matrix")
        # ||[op, Pi]||_F = 2 ||even<->odd entries of op||_F
        coupling = np.hypot(np.linalg.norm(op[0::2, 1::2]), np.linalg.norm(op[1::2, 0::2]))
        if 2.0 * coupling > PARITY_COMM_TOL * np.linalg.norm(op):
            raise ParityLabelError("Hamiltonian does not commute with the parity operator")

    real = all(is_real(op) for op in (drift, *ops))
    d = drift.shape[-1]
    energies = np.empty((*values.shape[:-1], d))
    states = np.zeros((*values.shape[:-1], d, d), dtype=float if real else complex)
    column = 0
    for block in parity_blocks(d):
        w, V = np.linalg.eigh(block_hamiltonians(drift, ops, values, block, real))
        pivot = np.take_along_axis(V, np.argmax(np.abs(V), axis=-2)[..., None, :], axis=-2)
        cols = slice(column, column + w.shape[-1])
        energies[..., cols] = w
        states[..., block, cols] = V / (pivot / np.abs(pivot))
        column += w.shape[-1]
    return energies, states


def _hf_slope(psi0: np.ndarray, psi1: np.ndarray) -> np.ndarray:
    """Hellmann-Feynman gap slope <psi_1|n|psi_1> - <psi_0|n|psi_0> (stackable)."""
    return (np.abs(psi1) ** 2 - np.abs(psi0) ** 2) @ np.arange(psi0.shape[-1])


def _gap_slopes(drift: np.ndarray, ops, values: np.ndarray):
    """E_01, dE_01/ddelta and the smaller parity-sector gap along a stack.

    Arguments as for :func:`_parity_spectra`.
    """
    energies, states = _parity_spectra(drift, ops, values)
    i0, i1 = _comp_columns(drift.shape[-1])
    sector_gap = np.full(values.shape[:-1], np.inf)
    for top, size in ((i0, i0 + 1), (i1, i1 - i0)):
        if size > 1:
            sector_gap = np.minimum(sector_gap, energies[..., top] - energies[..., top - 1])
    gap = energies[..., i1] - energies[..., i0]
    return gap, _hf_slope(states[..., i0], states[..., i1]), sector_gap


def diagonalize_labeled(H: np.ndarray) -> LabeledSpectrum:
    """Dense Hermitian eigendecomposition with Fock-parity labels.

    The even and odd Fock sectors are diagonalized separately, so the labels
    are exact also at the delta = 0 degeneracy point.
    """
    d = H.shape[-1]
    energies, states = _parity_spectra(H, [], np.empty(0))
    parities = np.where(np.arange(d) <= _comp_columns(d)[0], 1, -1)
    order = np.argsort(energies, kind="stable")
    rank = np.argsort(order)
    i0, i1 = (int(rank[i]) for i in _comp_columns(d))
    return LabeledSpectrum(energies=energies[order],
                           states=states[:, order].astype(np.result_type(H, float)),
                           parities=parities[order], comp_indices=(i0, i1))


def spectrum_at(params: KerrCatParams, delta_shift: float, space: FockSpace) -> LabeledSpectrum:
    """Labeled spectrum of the drift Hamiltonian at total detuning delta + Delta."""
    H = HamiltonianAssembly.build(params, space).at({"delta": delta_shift})
    return diagonalize_labeled(H)


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
    """
    assembly = HamiltonianAssembly.build(params, space)
    (slope,), _ = _checked_slopes(assembly, [delta_shift], neighbor_tol)
    return float(slope)


#: Minimum parity-sector gap (units K) at the robust point for it to count
#: as usable. Below alpha^2 ~ 1 the gap maximum coincides with an avoided
#: crossing of the even computational state and an excited state (sector
#: gap ~0.3 K at alpha^2 = 0.2 vs ~1.4 K at alpha^2 = 1), so the "robust"
#: point is an artifact of state hybridization rather than protection.
ROBUST_SECTOR_GAP_MIN = 1.2


def robust_line(alpha2: float, space: FockSpace, kerr: float = 1.0) -> float:
    """Detuning delta_rob in (0, K) where the gap derivative vanishes.

    A 64-point scan brackets the first + -> - sign change of the
    Hellmann-Feynman derivative, and Illinois false position finds the root
    inside that bracket. Raises :class:`NoRobustPointError` when the
    derivative does not change sign in (0, K), or when the zero sits on an
    avoided crossing with leakage states, both of which happen for small cat
    sizes.
    """
    params = KerrCatParams.from_alpha2(alpha2, kerr=kerr)
    assembly = HamiltonianAssembly.build(params, space)
    grid = np.linspace(kerr / 64, kerr * (1 - 1e-9), 64)
    values, sector_gaps = _checked_slopes(assembly, grid, NEIGHBOR_TOL)
    crossings = np.flatnonzero((values[:-1] > 0) & (values[1:] <= 0))
    if len(crossings) == 0:
        raise NoRobustPointError(
            f"gap derivative has no + -> - sign change in (0, K) at alpha2={alpha2}"
        )
    k = crossings[0]
    (lo, hi), (f_lo, f_hi) = grid[k:k + 2], values[k:k + 2]
    root, step, side, sector_gap = lo, hi - lo, 0, sector_gaps[k]
    # Illinois false position: the bracket keeps f(lo) > 0 >= f(hi), and the
    # value at an end kept twice in a row is halved, so both ends close in and
    # the steps shrink superlinearly; a step under 1e-10 K ends the search
    while abs(step) > 1e-10 * kerr:
        new = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        step, root = new - root, new
        (f,), (sector_gap,) = _checked_slopes(assembly, [root], NEIGHBOR_TOL)
        if f > 0:
            f_hi = f_hi / 2 if side > 0 else f_hi
            lo, f_lo, side = root, f, 1
        else:
            f_lo = f_lo / 2 if side < 0 else f_lo
            hi, f_hi, side = root, f, -1

    if sector_gap < ROBUST_SECTOR_GAP_MIN * kerr:
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
    kerr: float = 1.0,
) -> GapLandscape:
    """Evaluate gap and derivative over a rectangular (delta, alpha^2) grid."""
    deltas = np.asarray(delta_grid, dtype=float)
    alpha2s = np.asarray(alpha2_grid, dtype=float)
    gap = np.empty((len(deltas), len(alpha2s)))
    deriv = np.empty_like(gap)
    for j, a2 in enumerate(alpha2s):
        params = KerrCatParams.from_alpha2(a2, kerr=kerr)
        for i, d in enumerate(deltas):
            spec = spectrum_at(params, d, space)
            gap[i, j] = spec.gap
            deriv[i, j] = _hf_slope(spec.psi0, spec.psi1)
    return GapLandscape(delta_grid=deltas, alpha2_grid=alpha2s, gap=gap, gap_deriv=deriv)


class RobustLineCache:
    """delta_rob(alpha^2) precomputed on a grid with monotone cubic interpolation."""

    def __init__(self, alpha2_min: float, alpha2_max: float, space: FockSpace,
                 kerr: float = 1.0, n_points: int = 200):
        from scipy.interpolate import PchipInterpolator

        if not alpha2_max > alpha2_min:
            raise InvalidInputError("alpha2_max must exceed alpha2_min")
        self.alpha2_min = alpha2_min
        self.alpha2_max = alpha2_max
        self.kerr = kerr
        self.space = space
        grid = np.linspace(alpha2_min, alpha2_max, n_points)
        values = np.array([robust_line(a2, space, kerr=kerr) for a2 in grid])
        self._interp = PchipInterpolator(grid, values)

    def __call__(self, alpha2) -> np.ndarray | float:
        a2 = np.asarray(alpha2, dtype=float)
        if np.any(a2 < self.alpha2_min - 1e-12) or np.any(a2 > self.alpha2_max + 1e-12):
            raise NoRobustPointError(
                f"alpha2 outside cached robust-line range [{self.alpha2_min}, {self.alpha2_max}]"
            )
        out = self._interp(np.clip(a2, self.alpha2_min, self.alpha2_max))
        return float(out) if np.isscalar(alpha2) else out
