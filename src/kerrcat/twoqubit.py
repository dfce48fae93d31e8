"""Two-qubit XX gate via a tunable beamsplitter coupling.

Projecting the coupling g(t)(e^{i phase} a_A^dag a_B + h.c.) onto the
computational cat pair of each oscillator, with a -> (h_x X + i h_y Y)/2,
gives the effective two-qubit Hamiltonian

    H_eff = (g/2) [cos(phase) (h_xA h_xB XX + h_yA h_yB YY)
                   - sin(phase) (h_xA h_yB XY - h_yA h_xB YX)].

Since h_y/h_x = exp(-2 alpha^2), the XX term dominates for large cats and an
echo sequence removes the YY remainder exactly. The full two-mode propagation
here validates the projection at reduced truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

from .cats import matrix_elements
from .fock import FockSpace, HamiltonianAssembly, KerrCatParams, destroy, is_real
from .propagation import _step_exponentials
from .pulses import PAULI_X, PAULI_Y
from .spectral import spectrum_at

_XX = np.kron(PAULI_X, PAULI_X)
_YY = np.kron(PAULI_Y, PAULI_Y)
_XY = np.kron(PAULI_X, PAULI_Y)
_YX = np.kron(PAULI_Y, PAULI_X)
_XA = np.kron(PAULI_X, np.eye(2))
_XB = np.kron(np.eye(2), PAULI_X)


@dataclass(frozen=True)
class TwoQubitEffectiveModel:
    """Projected beamsplitter interaction between two cat qubits.

    ``envelope`` is (times, g_values); ``phase`` is the beamsplitter phase.
    The h elements are fixed by each qubit's cat size at construction.
    """

    params_A: KerrCatParams
    params_B: KerrCatParams
    envelope: tuple[np.ndarray, np.ndarray]
    phase: float = 0.0

    @property
    def h_elems(self) -> tuple[float, float, float, float]:
        hxa, hya = matrix_elements(self.params_A.alpha)
        hxb, hyb = matrix_elements(self.params_B.alpha)
        return hxa, hya, hxb, hyb

    @property
    def integrated_coupling(self) -> float:
        times, g = self.envelope
        return float(np.trapezoid(g, times))

    def xx_angle(self) -> float:
        """eta = int g(t) h_xA h_xB dt, the accumulated XX rotation angle."""
        hxa, _, hxb, _ = self.h_elems
        return self.integrated_coupling * hxa * hxb


def effective_interaction(model: TwoQubitEffectiveModel, g: float) -> np.ndarray:
    """Instantaneous 4x4 effective Hamiltonian at coupling strength g."""
    hxa, hya, hxb, hyb = model.h_elems
    c, s = np.cos(model.phase), np.sin(model.phase)
    H = c * (hxa * hxb * _XX + hya * hyb * _YY) - s * (hxa * hyb * _XY - hya * hxb * _YX)
    return (g / 2.0) * H


def effective_unitary(model: TwoQubitEffectiveModel) -> np.ndarray:
    """Evolution under the full envelope; exact since H(t) commutes with itself."""
    return expm(-1j * effective_interaction(model, model.integrated_coupling))


def xx_target(theta: float) -> np.ndarray:
    return expm(-1j * (theta / 2.0) * _XX)


def echo_xx(theta: float, model: TwoQubitEffectiveModel, echo_qubit: str = "A") -> np.ndarray:
    """Composed echo unitary X_i R(theta/2) X_i R(theta/2).

    The model's envelope is rescaled so each interaction segment accumulates
    an XX angle of theta/2; the interleaved flip inverts the YY term, which
    commutes with XX, so the composition equals exp(-i(theta/2)XX) exactly
    when the beamsplitter phase is zero.
    """
    if echo_qubit not in ("A", "B"):
        raise ValueError("echo_qubit must be 'A' or 'B'")
    flip = _XA if echo_qubit == "A" else _XB
    hxa, _, hxb, _ = model.h_elems
    # each segment has G h_xA h_xB = theta/2, so R = exp(-i theta/4 XX); the echo cancels YY
    G_half = theta / (2.0 * hxa * hxb)
    R = expm(-1j * effective_interaction(model, G_half))
    return flip @ R @ flip @ R


def phase_optimized_distance(U: np.ndarray, V: np.ndarray) -> float:
    """min over global phase of ||U - e^{i phi} V||_2."""
    tr = np.trace(V.conj().T @ U)
    phi = np.angle(tr) if abs(tr) > 0 else 0.0
    return float(np.linalg.norm(U - np.exp(1j * phi) * V, ord=2))


def makhlin_invariants(U: np.ndarray) -> tuple[complex, float]:
    """Local invariants (G1, G2); CNOT/CZ class has G1 = 0, G2 = 1."""
    Q = np.array([
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ], dtype=complex) / np.sqrt(2.0)
    m = Q.conj().T @ U @ Q
    M = m.T @ m
    detU = np.linalg.det(U)
    g1 = np.trace(M) ** 2 / (16.0 * detU)
    g2 = (np.trace(M) ** 2 - np.trace(M @ M)) / (4.0 * detU)
    return complex(g1), float(np.real(g2))


# --- full two-mode validation -------------------------------------------------

def two_mode_hamiltonian_parts(
    params_A: KerrCatParams,
    params_B: KerrCatParams,
    space: FockSpace,
    phase: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_A x I + I x H_B, coupling operator, number-sum) on the dim^2 space."""
    eye = np.eye(space.dim)
    drift_A = HamiltonianAssembly.build(params_A, space).drift
    drift_B = HamiltonianAssembly.build(params_B, space).drift
    H0 = np.kron(drift_A, eye) + np.kron(eye, drift_B)
    a = destroy(space)
    bs = np.exp(1j * phase) * np.kron(a.conj().T, a)
    coupling = bs + bs.conj().T
    n = a.conj().T @ a
    n_sum = np.kron(n, eye) + np.kron(eye, n)
    return H0, coupling, n_sum


def two_mode_computational_projector(
    params_A: KerrCatParams,
    params_B: KerrCatParams,
    space: FockSpace,
) -> np.ndarray:
    """Columns = tensor products of the single-mode computational pairs."""
    specs = [spectrum_at(p, 0.0, space) for p in (params_A, params_B)]
    cols = []
    for va in (specs[0].psi0, specs[0].psi1):
        for vb in (specs[1].psi0, specs[1].psi1):
            cols.append(np.kron(va, vb))
    return np.column_stack(cols)


def full_two_mode_propagate(
    params_A: KerrCatParams,
    params_B: KerrCatParams,
    space: FockSpace,
    g_envelope: tuple[np.ndarray, np.ndarray],
    phase: float = 0.0,
    delta_A: float = 0.0,
    delta_B: float = 0.0,
    n_steps: int = 400,
) -> np.ndarray:
    """Midpoint-exponential propagation of the coupled two-mode system.

    One full-dimension step exponential per step; real when the
    beamsplitter phase makes the coupling real.
    """
    if space.dim > 24:
        raise ValueError("per-mode dim > 24 is beyond the intended scale here")
    H0, coupling, _ = two_mode_hamiltonian_parts(params_A, params_B, space, phase)
    eye = np.eye(space.dim)
    a = destroy(space)
    n = a.conj().T @ a
    H0 = H0 + delta_A * np.kron(n, eye) + delta_B * np.kron(eye, n)
    times, g = g_envelope
    T = times[-1]
    grid = np.linspace(0.0, T, n_steps + 1)
    dt = grid[1] - grid[0]
    mid = 0.5 * (grid[:-1] + grid[1:])
    g_mid = np.interp(mid, times, g)
    if is_real(H0) and is_real(coupling):
        H0, coupling = H0.real, coupling.real
    U = np.eye(H0.shape[0], dtype=complex)
    for gk in g_mid:
        U = _step_exponentials(H0 + gk * coupling, dt) @ U
    return U


def projected_generator(
    U: np.ndarray,
    projector: np.ndarray,
    total_time_coupling: float,
) -> np.ndarray:
    """Effective 4x4 generator -i log(P^dag U P) / (integrated coupling).

    Drift phases must be removed by the caller (propagate with g = 0 and
    divide out) before the log is meaningful at small couplings.
    """
    block = projector.conj().T @ U @ projector
    return 1j * logm(block) / total_time_coupling
