"""Time-ordered propagation of pulse schedules.

Second-order midpoint-exponential stepping: the Hamiltonian is sampled at
the midpoint of each interval and exponentiated exactly via its
eigendecomposition. One kernel stacks the steps of every detuning row and
calls the batched eigh, which is where nearly all the runtime goes. It
picks the cheapest exact path from the operators that enter H with
non-zero values:

* parity blocks -- every operator is real and has no even<->odd Fock
  entries (drift, ``delta``, ``eps2_mod``): two real-symmetric eigh stacks
  of half the dimension, with the time-ordered products kept per block;
* real -- every operator is real (no ``eps_y``): one real-symmetric stack;
* general -- complex Hermitian eigh.

On any path, a schedule whose steps mirror in time, H_{n-1-k} = S H_k^* S
with S the identity or photon-number parity, diagonalizes only its first
half of the steps (the gate envelopes are symmetric about T/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (FockSpace, block_hamiltonians, is_real, keeps_parity, parity_blocks,
                   present_channels)
from .pulses import PulseSchedule
from .spectral import _comp_columns, _parity_spectra


@dataclass(frozen=True)
class PropagationResult:
    unitary: np.ndarray
    unitarity_defect: float
    step_count: int

    def leakage(self, psi0: np.ndarray, psi1: np.ndarray) -> float:
        """Population leaving span{psi0, psi1} when starting inside it."""
        P = np.column_stack([psi0, psi1])
        block = P.conj().T @ self.unitary @ P
        # worst case over computational inputs: smallest singular value
        s = np.linalg.svd(block, compute_uv=False)
        return float(1.0 - s.min() ** 2)


def _step_exponentials(H: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) for a Hermitian matrix or stack of them, as complex.

    A real ``H`` takes the real-symmetric eigensolver, and the real and
    imaginary parts V cos(w dt) V^T and -V sin(w dt) V^T are built from real
    products straight into the complex result.
    """
    w, V = np.linalg.eigh(H)
    del H  # callers pass a temporary stack; free it before the products
    if np.isrealobj(V):
        Vt = np.swapaxes(V, -1, -2)
        out = np.empty(V.shape, dtype=complex)
        scaled = V * np.cos(w * dt)[..., None, :]
        part = scaled @ Vt
        out.real = part
        np.multiply(V, -np.sin(w * dt)[..., None, :], out=scaled)
        np.matmul(scaled, Vt, out=part)
        out.imag = part
        return out
    scaled = V * np.exp(-1j * w * dt)[..., None, :]
    np.conj(V, out=V)
    # the products overwrite ``scaled`` a few matrices at a time, so no third
    # full-size complex stack is live; each matrix's product is unchanged
    flat = scaled.reshape(-1, *V.shape[-2:])
    flat_vt = np.swapaxes(V, -1, -2).reshape(flat.shape)
    for i in range(0, len(flat), 64):
        np.matmul(flat[i:i + 64], flat_vt[i:i + 64], out=flat[i:i + 64])
    return scaled


def _mirror_signs(drift, ops, values):
    """Diagonal of S in {I, Pi} with S H_k^* S = H_{n-1-k} for every step k, or None.

    The operators must map to +-themselves exactly under O -> S O^* S, and the
    value table must mirror with those signs to within rounding; then
    U_{n-1-k} = S U_k^T S.
    """
    if values.shape[1] < 2:
        return None
    d = drift.shape[0]
    tol = 64 * np.finfo(float).eps * np.max(np.abs(values), axis=(0, 1))
    for s in (np.ones(d), (-1.0) ** np.arange(d)):
        ss = np.outer(s, s)
        if not np.array_equal(ss * drift.conj(), drift):
            continue
        signs = []
        for op in ops:
            mirrored = ss * op.conj()
            if np.array_equal(mirrored, op):
                signs.append(1.0)
            elif np.array_equal(mirrored, -op):
                signs.append(-1.0)
            else:
                break
        else:
            if np.all(np.abs(values[:, ::-1] - np.array(signs) * values) <= tol):
                return s
    return None


def _propagate_steps(drift, ops, values, dt) -> np.ndarray:
    """Time-ordered products of the midpoint step exponentials exp(-i H_k dt).

    ``H_k = drift + sum_j values[b, k, j] ops[j]`` for ``values`` of shape
    (batch, n_steps, len(ops)); returns the (batch, d, d) propagators.

    A mirror-symmetric schedule (see :func:`_mirror_signs`) is folded: only
    the first ceil(n/2) steps are exponentiated, and with A the product of
    the first floor(n/2) of them, U = S A^T S A, with the middle step
    between the two factors when n is odd.
    """
    batch, n_steps, _ = values.shape
    ops, values = present_channels(ops, values)
    d = drift.shape[0]
    real = all(is_real(op) for op in (drift, *ops))
    if real and all(keeps_parity(op) for op in (drift, *ops)):
        blocks = parity_blocks(d)
    else:
        blocks = (slice(0, d),)
    s = _mirror_signs(drift, ops, values)
    if s is not None:
        values = values[:, :(n_steps + 1) // 2]
    U = np.zeros((batch, d, d), dtype=complex)
    for block in blocks:
        steps = _step_exponentials(block_hamiltonians(drift, ops, values, block, real), dt)
        prod = steps[:, 0]
        for k in range(1, n_steps if s is None else n_steps // 2):
            prod = steps[:, k] @ prod
        if s is not None:
            mirror = np.outer(s[block], s[block]) * np.swapaxes(prod, -1, -2)
            if n_steps % 2:
                prod = steps[:, -1] @ prod
            prod = mirror @ prod
        U[:, block, block] = prod
    return U


def _propagate_schedule(schedule, space, n_steps, delta_rows) -> np.ndarray:
    """(batch, d, d) propagators with ``delta_rows`` (batch, n_steps) added to ``delta``."""
    times = np.linspace(0.0, schedule.duration, n_steps + 1)
    mid = 0.5 * (times[:-1] + times[1:])
    drift, ops, table = schedule.hamiltonian_table(space, mid)
    values = np.repeat(table[None], len(delta_rows), axis=0)
    values[:, :, 0] += delta_rows
    return _propagate_steps(drift, ops, values, times[1] - times[0])


def _result(U: np.ndarray, step_count: int) -> PropagationResult:
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]), ord='fro'))
    return PropagationResult(unitary=U, unitarity_defect=defect, step_count=step_count)


def propagate_many(
    schedule: PulseSchedule,
    space: FockSpace,
    delta_offsets,
    n_steps: int = 2000,
) -> list[PropagationResult]:
    """Propagate one schedule for several static detuning offsets at once."""
    delta_offsets = np.atleast_1d(np.asarray(delta_offsets, dtype=float))
    rows = np.broadcast_to(delta_offsets[:, None], (len(delta_offsets), n_steps))
    U = _propagate_schedule(schedule, space, n_steps, rows)
    return [_result(Uf, n_steps) for Uf in U]


def propagate(
    schedule: PulseSchedule,
    space: FockSpace,
    delta_offset: float = 0.0,
    n_steps: int = 2000,
) -> PropagationResult:
    """Single-offset wrapper around :func:`propagate_many`."""
    return propagate_many(schedule, space, [delta_offset], n_steps=n_steps)[0]


def propagate_noise_trace(
    schedule: PulseSchedule,
    space: FockSpace,
    delta_trace: np.ndarray,
    n_steps: int = 2000,
) -> PropagationResult:
    """Propagate with a time-dependent detuning offset sampled per step.

    ``delta_trace`` holds the offset at each midpoint and must have length
    ``n_steps``.
    """
    delta_trace = np.asarray(delta_trace, dtype=float)
    if len(delta_trace) != n_steps:
        raise ValueError(f"delta_trace length {len(delta_trace)} != n_steps {n_steps}")
    U = _propagate_schedule(schedule, space, n_steps, delta_trace[None, :])[0]
    return _result(U, n_steps)


def adiabaticity_diagnostic(
    schedule: PulseSchedule,
    space: FockSpace,
    n_samples: int = 101,
) -> float:
    """Max of |<exc| dH/dt |comp>| / (E_exc - E_comp)^2 along the schedule.

    Standard Landau-Zener figure of merit; values well below 1 indicate the
    computational manifold is followed adiabatically.
    """
    t = np.linspace(0.0, schedule.duration, n_samples)
    drift, ops, values = schedule.hamiltonian_table(space, t)
    energies, states = _parity_spectra(drift, ops, values)
    # dH/dt from the channel envelopes: forward difference, backward at t = T
    rates = np.diff(values, axis=0) / np.diff(t)[:, None]
    rates = np.concatenate([rates, rates[-1:]])
    comp = list(_comp_columns(space.dim))
    bra = np.swapaxes(states, -1, -2).conj()
    amps = np.abs(sum(rates[:, j, None, None] * (bra @ (op @ states[..., comp]))
                      for j, op in enumerate(ops)))
    gaps = energies[:, :, None] - energies[:, None, comp]
    excited = ~np.isin(np.arange(space.dim), comp)
    usable = excited[:, None] & (np.abs(gaps) >= 1e-12)
    return float(np.max(amps / np.where(usable, gaps, np.inf) ** 2))
