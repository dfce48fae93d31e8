"""Two-qubit XX gate via a tunable beamsplitter coupling.

Projecting the coupling g(t)(e^{i phase} a_A^dag a_B + h.c.) onto the
computational cat pair of each oscillator, with a -> (h_x X + i h_y Y)/2,
gives the effective two-qubit Hamiltonian

    H_eff = (g/2) [cos(phase) (h_xA h_xB XX + h_yA h_yB YY)
                   - sin(phase) (h_xA h_yB XY - h_yA h_xB YX)].

Since h_y/h_x = exp(-2 alpha^2), the XX term dominates for large cats and an
echo sequence removes the YY remainder exactly. The full two-mode propagation,
on the single-mode kernel's step code, validates the projection at reduced truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cats import matrix_elements
from .fidelity import computational_pair
from .fock import FockSpace, HamiltonianAssembly, KerrCatParams, destroy, present_channels
from .propagation import _step_eigenpairs, _step_grid, _time_ordered
from .pulses import PAULI_X, PAULI_Y, _check_grid

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
    from scipy.linalg import expm  # kept local: importing kerrcat loads no scipy subpackage

    return expm(-1j * effective_interaction(model, model.integrated_coupling))


def xx_target(theta: float) -> np.ndarray:
    from scipy.linalg import expm  # kept local, as in effective_unitary

    return expm(-1j * (theta / 2.0) * _XX)


def echo_xx(theta: float, model: TwoQubitEffectiveModel, echo_qubit: str = "A") -> np.ndarray:
    """Composed echo unitary X_i R(theta/2) X_i R(theta/2).

    The model's envelope is rescaled so each interaction segment accumulates
    an XX angle of theta/2; the interleaved flip inverts the YY term, which
    commutes with XX, so the composition equals exp(-i(theta/2)XX) exactly
    when the beamsplitter phase is zero.
    """
    from scipy.linalg import expm  # kept local, as in effective_unitary

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
) -> tuple[np.ndarray, np.ndarray]:
    """(H_A x I + I x H_B, coupling operator) on the dim^2 space.

    H_A and H_B are the single-mode drifts, each with its mode's ``params.delta``.
    Both parts are float64 at ``phase`` 0, and the coupling is complex otherwise.
    """
    eye = np.eye(space.dim)
    drift_A = HamiltonianAssembly.build(params_A, space).drift
    drift_B = HamiltonianAssembly.build(params_B, space).drift
    H0 = np.kron(drift_A, eye) + np.kron(eye, drift_B)
    a = destroy(space)
    bs = np.kron(a.T, a) * (np.exp(1j * phase) if phase else 1.0)
    return H0, bs + bs.conj().T


def two_mode_computational_projector(
    params_A: KerrCatParams,
    params_B: KerrCatParams,
    space: FockSpace,
) -> np.ndarray:
    """Columns = tensor products of the single-mode computational pairs."""
    pair_A, pair_B = (computational_pair(p, space) for p in (params_A, params_B))
    return np.column_stack([np.kron(va, vb) for va in pair_A for vb in pair_B])


def full_two_mode_propagate(
    params_A: KerrCatParams,
    params_B: KerrCatParams,
    space: FockSpace,
    g_envelope: tuple[np.ndarray, np.ndarray],
    phase: float = 0.0,
    n_steps: int = 400,
) -> np.ndarray:
    """Midpoint-exponential propagation of the coupled two-mode system.

    Each mode is detuned by its own ``params.delta``; the envelope is checked like
    a schedule's grid and the steps split [0, last time] as in ``propagate_many``.
    One full-dimension ``eigh`` per step, real when the coupling is float64 (phase 0)
    or absent (g = 0 throughout), applied by the kernel's time-ordered product.
    """
    if space.dim > 24:
        raise ValueError("per-mode dim > 24 is beyond the intended scale here")
    times, g = (np.asarray(x, dtype=float) for x in g_envelope)
    _check_grid(times, g, what="coupling envelope")
    mid, dt = _step_grid(times[-1], n_steps)
    H0, coupling = two_mode_hamiltonian_parts(params_A, params_B, space, phase)
    ops, values = present_channels(H0, [coupling], np.interp(mid, times, g)[:, None])
    return _time_ordered((_step_eigenpairs(H0, ops, row, slice(None), dt) for row in values),
                         n_steps, H0.shape)


def projected_generator(
    U: np.ndarray,
    projector: np.ndarray,
    total_time_coupling: float,
) -> np.ndarray:
    """Effective 4x4 generator -i log(P^dag U P) / (integrated coupling).

    Drift phases must be removed by the caller (propagate with g = 0 and
    divide out) before the log is meaningful at small couplings.
    """
    from scipy.linalg import logm  # kept local, as in effective_unitary

    block = projector.conj().T @ U @ projector
    return 1j * logm(block) / total_time_coupling
