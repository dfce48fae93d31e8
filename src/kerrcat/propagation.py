"""Time-ordered propagation of pulse schedules.

Second-order midpoint-exponential stepping: the Hamiltonian is sampled at
the midpoint of each interval and its exact step exp(-i H dt) is applied
to the running product from the eigendecomposition H = V diag(w) V^H, as
U <- V (e^{-i w dt} * (V^H U)), without forming the exponential (two real
products per step when V is real). One kernel stacks the steps of every
detuning row and calls the batched eigh, which is where nearly all the
runtime goes; the stacks are taken in time-ordered pieces under the
library's one bound ``STACK_ENTRIES`` (see :func:`~kerrcat.fock.stack_pieces`),
so memory does not grow with rows x steps and the result does not depend
on the piece size. It picks the cheapest exact path from the operators
that enter H with non-zero values:

* parity blocks -- every operator is real and has no even<->odd Fock
  entries (drift, ``delta``, ``eps2_mod``): two real-symmetric eigh stacks
  of half the dimension, with the time-ordered products kept per block.
  The two blocks share no data, so the caller runs the even one while one
  worker thread, created and joined inside the call, runs the odd one;
  their pieces share the stack bound;
* real -- every operator is real (no ``eps_y``): one real-symmetric stack;
* general -- complex Hermitian eigh.

On any path, a schedule whose steps mirror in time, H_{n-1-k} = S H_k^* S
with S the identity or photon-number parity, diagonalizes only its first
half of the steps (the gate envelopes are symmetric about T/2).

:func:`propagate_many` runs the kernel in a kept basis when the Fock
dimension d exceeds ``KEPT_STATES`` and the drift is real and keeps parity
(every single-mode schedule): the drift is diagonalized once, and its top
``KEPT_STATES`` ladder states, the first columns of
:func:`~kerrcat.spectral._parity_spectra`, are kept, so index parity is
photon parity and kept columns 0 and 1 are the computational pair. The kernel propagates
diag(E) + sum_j v_j V^T O_j V, and the result is lifted back as
U = V U_M V^T + (1 - V V^T): unitary, and the identity on the discarded
states. A gate reads the final population of the computational columns on
the last ``EDGE_STATES`` kept states; above ``EDGE_TOL`` the call is
propagated again as the full-dimension kernel call.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fock import (FockSpace, InvalidInputError, block_hamiltonians, is_real, keeps_parity,
                   parity_blocks, present_channels, stack_pieces)
from .pulses import PulseSchedule
from .spectral import _parity_spectra, _spectra_pieces


@dataclass(frozen=True)
class PropagationResult:
    """A Fock-space propagator, its defect ||U^dag U - 1||_F and its step count.

    A propagator from the kept basis (see :func:`propagate_many`) is
    V U_M V^T + (1 - V V^T): it is the identity on the drift eigenstates that
    were not kept, and the gate holds the computational columns' population
    on the kept basis's edge to at most ``EDGE_TOL``. The gate reads that
    population at the final time only: a schedule that carries population
    to the edge and back within the kept states is not seen by it.
    """

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


def _step_eigenpairs(H: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(phases, V) with exp(-i H dt) = V diag(phases) V^H, for a Hermitian matrix or stack.

    The phases e^{-i w dt} have shape (..., b) and V has shape (..., b, b);
    a real ``H`` takes the real-symmetric eigensolver and keeps V real.
    """
    w, V = np.linalg.eigh(H)
    return np.exp(-1j * (w * dt)), V


def _apply_step(step, U: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Apply ``step = (phases, V)`` to ``U`` in place: U <- V (phases * (V^H U)).

    ``U`` is a C-contiguous complex matrix or stack of shape (..., b, b),
    and ``work`` a buffer like it for the middle product, so a loop of
    steps allocates nothing. A real V takes two real products on U's float
    view (..., b, 2b), with no complex copy of V; a complex V takes two
    complex products. exp(-i H dt) itself is never formed.
    """
    phases, V = step
    if np.isrealobj(V):
        np.matmul(np.swapaxes(V, -1, -2), U.view(float), out=work.view(float))
        work *= phases[..., :, None]
        np.matmul(V, work.view(float), out=U.view(float))
    else:
        np.matmul(np.swapaxes(V, -1, -2).conj(), U, out=work)
        work *= phases[..., :, None]
        np.matmul(V, work, out=U)
    return U


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


#: Fock dimension above which :func:`propagate_many` propagates in the drift's
#: top eigenstates, and the number of them it keeps
KEPT_STATES = 16
#: lowest kept states, the kept basis's edge that the gate reads
EDGE_STATES = 4
#: largest final population of the computational columns on the kept basis's edge
EDGE_TOL = 1e-10

def _block_steps(drift, ops, values, block, real, dt, share):
    """The ``block``'s step eigenpairs (phases, V) in time order (see :func:`_step_eigenpairs`).

    Each step's phases have shape (rows, b) and its V shape (rows, b, b).
    The steps are diagonalized in the time-ordered pieces of
    :func:`~kerrcat.fock.stack_pieces`, one step of every row being one item
    and ``share`` the number of blocks diagonalized at the same time, so the
    stack held at once stays bounded however many rows and steps there are.
    Each step's eigenpairs do not depend on the piece they are taken in.
    """
    rows, n_steps, _ = values.shape
    b = len(range(drift.shape[0])[block])
    for piece in stack_pieces(n_steps, (rows, b, b), float if real else complex, share):
        phases, V = _step_eigenpairs(
            block_hamiltonians(drift, ops, values[:, piece], block, real), dt)
        for k in range(V.shape[1]):
            yield phases[:, k], V[:, k]
        del phases, V  # free this piece before the next one is diagonalized


def _propagate_steps(drift, ops, values, dt) -> np.ndarray:
    """Time-ordered products of the midpoint steps exp(-i H_k dt).

    ``H_k = drift + sum_j values[b, k, j] ops[j]`` for ``values`` of shape
    (batch, n_steps, len(ops)); returns the (batch, d, d) propagators. Each
    step is applied to the running product from its eigenpairs (see
    :func:`_apply_step`), starting from the identity.

    A mirror-symmetric schedule (see :func:`_mirror_signs`) is folded: only
    the first ceil(n/2) steps are diagonalized, and with A the product of
    the first floor(n/2) of them, U = S A^T S A, with the middle step
    between the two factors when n is odd.

    The caller runs the first block; a second block (the odd parity block)
    goes to one worker thread that does not outlive the call, and the
    blocks share the bound ``STACK_ENTRIES`` on the step stacks held at once.
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

    def block_product(block):
        steps = _block_steps(drift, ops, values, block, real, dt, len(blocks))
        b = len(range(d)[block])
        prod = np.broadcast_to(np.eye(b, dtype=complex), (batch, b, b)).copy()
        work = np.empty_like(prod)
        for _ in range(n_steps if s is None else n_steps // 2):
            _apply_step(next(steps), prod, work)
        if s is not None:
            mirror = np.outer(s[block], s[block]) * np.swapaxes(prod, -1, -2)
            if n_steps % 2:
                _apply_step(next(steps), prod, work)
            prod = mirror @ prod
        U[:, block, block] = prod

    first, *rest = blocks
    with ThreadPoolExecutor(max_workers=1) as pool:
        workers = [pool.submit(block_product, block) for block in rest]
        try:
            block_product(first)
        finally:
            for worker in workers:
                worker.result()
    return U


def _kept_propagate(drift, ops, values, dt) -> np.ndarray:
    """:func:`_propagate_steps` in the drift's gated top eigenstates (see :func:`propagate_many`).

    A drift of dimension <= ``KEPT_STATES``, or one that is not real and
    parity-keeping, goes straight to the kernel. The gate takes the largest
    edge population over the rows.
    """
    d = drift.shape[0]
    if d <= KEPT_STATES or not (is_real(drift) and keeps_parity(drift)):
        return _propagate_steps(drift, ops, values, dt)
    energies, states = _parity_spectra(drift, [], np.empty(0))
    E, V = energies[:KEPT_STATES], states[:, :KEPT_STATES]
    U = _propagate_steps(np.diag(E), [V.T @ op @ V for op in ops], values, dt)
    edge = np.sum(np.abs(U[:, -EDGE_STATES:, :2]) ** 2, axis=(1, 2))
    if np.max(edge) > EDGE_TOL:
        return _propagate_steps(drift, ops, values, dt)
    return V @ U @ V.T + (np.eye(d) - V @ V.T)


def _step_grid(duration: float, n_steps: int) -> tuple[np.ndarray, float]:
    """Midpoints and width of ``n_steps`` >= 1 equal steps over [0, duration]."""
    if n_steps < 1:
        raise InvalidInputError(f"n_steps must be >= 1, got {n_steps}")
    times = np.linspace(0.0, duration, n_steps + 1)
    return 0.5 * (times[:-1] + times[1:]), times[1] - times[0]


def _result(U: np.ndarray, step_count: int) -> PropagationResult:
    defect = float(np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]), ord='fro'))
    return PropagationResult(unitary=U, unitarity_defect=defect, step_count=step_count)


def propagate_many(
    schedule: PulseSchedule,
    space: FockSpace,
    delta_offsets,
    n_steps: int = 2000,
) -> list[PropagationResult]:
    """Propagate one schedule for several detuning offsets at once.

    ``delta_offsets`` is 1-D, one static offset per propagator, or 2-D of
    shape (rows, n_steps), one offset per propagator and step midpoint (a
    sampled noise trace per row). All rows go through the same kernel call.
    ``n_steps`` below 1, no offset rows, non-finite offsets and offsets of
    any other shape raise :class:`InvalidInputError`.

    Above ``KEPT_STATES`` Fock levels the kernel runs in the drift's top
    ``KEPT_STATES`` ladder states (columns 0 and 1 are the computational pair), and the
    propagators are lifted back as V U_M V^T + (1 - V V^T), the identity on
    the states not kept. The gate reads the final population of columns 0
    and 1 on the last ``EDGE_STATES`` kept states; above ``EDGE_TOL`` the
    rows are propagated again in one full-dimension kernel call.
    """
    mid, dt = _step_grid(schedule.duration, n_steps)
    rows = np.asarray(delta_offsets, dtype=float)
    if not np.all(np.isfinite(rows)):
        raise InvalidInputError("non-finite detuning offset")
    if rows.ndim <= 1:
        rows = np.atleast_1d(rows)
        rows = np.broadcast_to(rows[:, None], (len(rows), n_steps))
    if rows.ndim != 2 or rows.shape[1] != n_steps:
        raise InvalidInputError(f"delta_offsets must be 1-D or of shape (rows, {n_steps}), "
                                f"got shape {rows.shape}")
    if len(rows) == 0:
        raise InvalidInputError("no detuning offset rows to propagate")
    drift, ops, table = schedule.hamiltonian_table(space, mid)
    values = np.repeat(table[None], len(rows), axis=0)
    values[:, :, 0] += rows
    return [_result(U, n_steps) for U in _kept_propagate(drift, ops, values, dt)]


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
    ``n_steps``; a single-row wrapper around :func:`propagate_many`, whose
    shape check rejects any other length.
    """
    return propagate_many(schedule, space, np.atleast_1d(delta_trace)[None], n_steps)[0]


def adiabaticity_diagnostic(
    schedule: PulseSchedule,
    space: FockSpace,
    n_samples: int = 101,
) -> float:
    """Max of |<exc| dH/dt |comp>| / (E_exc - E_comp)^2 along the schedule.

    Standard Landau-Zener figure of merit; values well below 1 indicate the
    computational manifold is followed adiabatically. The samples are
    diagonalized in pieces under ``STACK_ENTRIES`` (see
    :func:`~kerrcat.fock.stack_pieces`) and only a running maximum is kept,
    so memory does not grow with ``n_samples``.
    """
    t = np.linspace(0.0, schedule.duration, n_samples)
    drift, ops, values = schedule.hamiltonian_table(space, t)
    # dH/dt from the channel envelopes: forward difference, backward at t = T
    rates = np.diff(values, axis=0) / np.diff(t)[:, None]
    rates = np.concatenate([rates, rates[-1:]])
    comp = [0, 1]  # the columns of |0>, |1> (see _parity_spectra)
    excited = np.arange(space.dim) >= 2
    peaks = []
    for piece, energies, states in _spectra_pieces(drift, ops, values):
        bra = np.swapaxes(states, -1, -2).conj()
        amps = np.abs(sum(rates[piece, j, None, None] * (bra @ (op @ states[..., comp]))
                          for j, op in enumerate(ops)))
        gaps = energies[:, :, None] - energies[:, None, comp]
        usable = excited[:, None] & (np.abs(gaps) >= 1e-12)
        peaks.append(np.max(amps / np.where(usable, gaps, np.inf) ** 2))
    return float(np.max(peaks))
