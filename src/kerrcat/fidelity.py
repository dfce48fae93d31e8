"""Gate infidelity in the computational cat subspace.

The figure of merit is 1 - |Tr(V^dag P U P)|^2 / 4 with P the projector
onto the two highest drift eigenstates of definite parity and V the 2x2
target. Frequency-shift robustness is summarized by averaging over a
symmetric detuning window with composite-Simpson weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, InvalidInputError, KerrCatParams, _count, _save_table
from .pulses import PulseSchedule
from .propagation import propagate_many
from .spectral import spectrum_at

DEFAULT_DELTA_MAX = 5e-3
DEFAULT_DELTA_NODES = 11


def computational_pair(params: KerrCatParams, space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd computational basis vectors of the undetuned drift."""
    spec = spectrum_at(params, 0.0, space)
    return spec.psi0, spec.psi1


def infidelity(
    unitary: np.ndarray,
    target: np.ndarray,
    psi0: np.ndarray,
    psi1: np.ndarray,
    frame_rotation: np.ndarray | None = None,
) -> float:
    """Phase-insensitive infidelity of the projected 2x2 gate; InvalidInputError if not finite."""
    U = unitary
    if frame_rotation is not None:
        U = frame_rotation.conj().T @ U
    # a fresh C-ordered pair, so the product's last bits do not depend on how
    # the caller holds psi0 and psi1
    P = np.column_stack([psi0, psi1])
    m = P.conj().T @ (U @ P)
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("projected gate is not finite")
    tr = np.trace(target.conj().T @ m)
    return float(max(0.0, 1.0 - abs(tr) ** 2 / 4.0))


def simpson_nodes(delta_max: float = DEFAULT_DELTA_MAX,
                  n_nodes: int = DEFAULT_DELTA_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Detuning nodes and normalized composite-Simpson weights on [-dmax, dmax]."""
    if _count(n_nodes, 3, "n_nodes") % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    nodes = np.linspace(-delta_max, delta_max, n_nodes)
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= w.sum()
    return nodes, w


@dataclass(frozen=True)
class InfidelityGrid:
    """Per-node infidelities over a static detuning window."""

    delta_nodes: np.ndarray
    weights: np.ndarray
    infidelities: np.ndarray

    @property
    def average(self) -> float:
        return float(np.dot(self.weights, self.infidelities))

    @property
    def worst(self) -> float:
        return float(np.max(self.infidelities))

    @property
    def at_zero(self) -> float:
        k = int(np.argmin(np.abs(self.delta_nodes)))
        return float(self.infidelities[k])

    def to_csv(self, path) -> None:
        _save_table(path, ["delta", "weight", "infidelity"],
                    self.delta_nodes, self.weights, self.infidelities)


def average_infidelity(
    schedule: PulseSchedule,
    space: FockSpace,
    delta_max: float = DEFAULT_DELTA_MAX,
    n_nodes: int = DEFAULT_DELTA_NODES,
    n_steps: int = 2000,
) -> InfidelityGrid:
    """Infidelity across a symmetric static-detuning window, one propagation."""
    nodes, weights = simpson_nodes(delta_max, n_nodes)
    infs = np.array(_pair_infidelities(schedule, space, nodes, n_steps))
    return InfidelityGrid(delta_nodes=nodes, weights=weights, infidelities=infs)


def _pair_infidelities(
    schedule: PulseSchedule,
    space: FockSpace,
    offsets: np.ndarray,
    n_steps: int,
) -> list[float]:
    """Infidelity in the schedule's computational pair of each :func:`propagate_many` row."""
    psi0, psi1 = computational_pair(schedule.base, space)
    return [infidelity(r.unitary, schedule.target, psi0, psi1, schedule.frame_rotation)
            for r in propagate_many(schedule, space, offsets, n_steps=n_steps)]
