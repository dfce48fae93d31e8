from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kerrcat.fidelity import computational_pair, infidelity
from kerrcat import propagation
from kerrcat.fock import (FockSpace, HamiltonianAssembly, KerrCatParams, block_hamiltonians,
                          is_real, keeps_parity, parity_blocks, parity_operator,
                          present_channels)
from kerrcat.noise import NoiseModel, sample_noise
from kerrcat.propagation import (_propagate_steps, _step_exponentials,
                                 adiabaticity_diagnostic, propagate, propagate_many,
                                 propagate_noise_trace)
from kerrcat.pulses import (PulseSchedule, idle_schedule, rot_z, scheme_kerr_gate,
                            scheme_x, scheme_y_drag, scheme_z_straight)
from kerrcat.spectral import diagonalize_labeled

SPACE = FockSpace(30)

#: channel sets of the kernel's three paths: parity blocks, real, general
STRUCTURE_CLASSES = {
    "parity": ("delta", "eps2_mod"),
    "real": ("delta", "eps_x"),
    "general": ("eps_x", "eps_y", "eps2_mod"),
}

#: mirror-symmetric channel sets with the sign of each channel's mirror
#: values[:, n-1-k] = sign * values[:, k]; S = I for all but "general_parity",
#: whose eps_y is symmetric and eps_x antisymmetric (S = Pi, as for DRAG)
MIRROR_CLASSES = {
    "parity": (("delta", 1.0), ("eps2_mod", 1.0)),
    "real": (("delta", 1.0), ("eps_x", 1.0)),
    "general": (("eps_x", 1.0), ("eps_y", -1.0), ("eps2_mod", 1.0)),
    "general_parity": (("eps_y", 1.0), ("eps_x", -1.0), ("eps2_mod", 1.0), ("delta", 1.0)),
}


@contextmanager
def recorded_eigh():
    """Record (dtype, shape) of every ``np.linalg.eigh`` input inside the block."""
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(H):
        seen.append((H.dtype.type, H.shape))
        return eigh(H)

    with mock.patch.object(np.linalg, "eigh", recording_eigh):
        yield seen


def _expm_product(drift, ops, values, dt):
    """Reference: the per-step ``scipy.linalg.expm`` product of each row."""
    out = []
    for row in values:
        ref = np.eye(drift.shape[0], dtype=complex)
        for step in row:
            ref = expm(-1j * (drift + sum(v * op for v, op in zip(step, ops))) * dt) @ ref
        out.append(ref)
    return np.array(out)


def _sequential_product(drift, ops, values, dt):
    """Reference: every step exponentiated and multiplied in time order, unfolded."""
    ops, values = present_channels(ops, values)
    d = drift.shape[0]
    real = all(is_real(op) for op in (drift, *ops))
    parity = real and all(keeps_parity(op) for op in (drift, *ops))
    U = np.zeros((len(values), d, d), dtype=complex)
    for block in parity_blocks(d) if parity else (slice(0, d),):
        steps = _step_exponentials(block_hamiltonians(drift, ops, values, block, real), dt)
        prod = steps[:, 0]
        for k in range(1, values.shape[1]):
            prod = steps[:, k] @ prod
        U[:, block, block] = prod
    return U


def test_drift_only_diagonal_phases():
    # pure Kerr drift: U|n> = exp(+i K/2 n(n-1) T)|n>; no channel is present,
    # so the schedule is trivially mirror-symmetric and folds
    space = FockSpace(6)
    T = 2.3
    s = idle_schedule(T, KerrCatParams(), n_samples=11)
    n = np.arange(6)
    expected = np.diag(np.exp(1j * 0.5 * n * (n - 1) * T))
    for n_steps in (50, 51):
        with recorded_eigh() as seen:
            res = propagate(s, space, n_steps=n_steps)
        assert [shape for _, shape in seen] == [(1, 25 + n_steps % 2, 3, 3)] * 2
        assert np.linalg.norm(res.unitary - expected) < 1e-10
        assert res.step_count == n_steps


def test_unitarity_defect():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_x(20.0, 0.05, p, n_samples=201)
    res = propagate(s, SPACE, n_steps=500)
    assert res.unitarity_defect < 1e-8


def test_parity_block_structure_for_z_schemes():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_z_straight(20.0, 0.4, -0.5, p, n_samples=201)
    res = propagate(s, SPACE, n_steps=400)
    pi = parity_operator(SPACE)
    assert np.linalg.norm(pi @ res.unitary @ pi - res.unitary) < 1e-8


def test_step_doubling_convergence():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_x(20.0, 0.05, p, n_samples=401)
    psi0, psi1 = computational_pair(p, SPACE)
    vals = []
    for n_steps in (400, 800):
        res = propagate(s, SPACE, delta_offset=2e-3, n_steps=n_steps)
        vals.append(infidelity(res.unitary, s.target, psi0, psi1))
    assert abs(vals[1] - vals[0]) < 1e-9


def test_time_reversal_identity():
    # evolving forward then under the time-reversed schedule with negated
    # Hamiltonian returns the identity; with a real symmetric H this is
    # equivalent to U(reverse) @ U(forward) with conjugated propagator
    p = KerrCatParams.from_alpha2(1.5)
    s = scheme_x(15.0, 0.06, p, n_samples=401)
    res = propagate(s, SPACE, n_steps=800)
    # envelope is symmetric about T/2, so the reverse schedule is itself;
    # the conjugate propagator inverts the evolution
    back = res.unitary.conj()
    assert np.linalg.norm(back @ res.unitary - np.eye(SPACE.dim), ord=2) < 1e-7


def test_propagate_many_matches_single():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_x(20.0, 0.05, p, n_samples=201)
    offsets = [-3e-3, 0.0, 4e-3]
    many = propagate_many(s, SPACE, offsets, n_steps=300)
    for off, res in zip(offsets, many):
        single = propagate(s, SPACE, delta_offset=off, n_steps=300)
        assert np.linalg.norm(res.unitary - single.unitary) < 1e-12


def test_noise_trace_static_limit():
    # X runs the real path, straight-line Z the parity-block path
    p = KerrCatParams.from_alpha2(2.0)
    n_steps = 300
    for s in (scheme_x(20.0, 0.05, p, n_samples=201),
              scheme_z_straight(20.0, 0.4, -0.5, p, n_samples=201)):
        const = propagate(s, SPACE, delta_offset=2e-3, n_steps=n_steps)
        traced = propagate_noise_trace(s, SPACE, np.full(n_steps, 2e-3), n_steps=n_steps)
        assert np.linalg.norm(const.unitary - traced.unitary) < 1e-12
        with pytest.raises(ValueError):
            propagate_noise_trace(s, SPACE, np.zeros(10), n_steps=20)


def test_leakage_diagnostic():
    p = KerrCatParams.from_alpha2(2.0)
    s = idle_schedule(5.0, p, n_samples=11)
    res = propagate(s, SPACE, n_steps=100)
    psi0, psi1 = computational_pair(p, SPACE)
    assert res.leakage(psi0, psi1) < 1e-10


def test_adiabaticity_diagnostic_ordering():
    # idling produces no transitions; a fast Z sweep produces more than a slow one
    p = KerrCatParams.from_alpha2(2.0)
    assert adiabaticity_diagnostic(idle_schedule(10.0, p), SPACE, n_samples=21) \
        == pytest.approx(0.0, abs=1e-12)
    fast = adiabaticity_diagnostic(scheme_z_straight(8.0, 0.5, -1.0, p, n_samples=201),
                                   SPACE, n_samples=41)
    slow = adiabaticity_diagnostic(scheme_z_straight(40.0, 0.5, -1.0, p, n_samples=201),
                                   SPACE, n_samples=41)
    assert fast > 2.0 * slow


def test_adiabaticity_diagnostic_includes_final_sample():
    # a linear pump ramp shrinks the cat, so the gap is smallest and the
    # ratio largest at t = T; the last sample needs a backward difference
    p = KerrCatParams.from_alpha2(2.0)
    space = FockSpace(20)
    T, rate = 10.0, -0.15
    times = np.linspace(0.0, T, 11)
    s = PulseSchedule(times=times, channels={"eps2_mod": rate * times}, target=rot_z(0.0),
                      scheme="RAMP", base=p)
    asm = HamiltonianAssembly.build(p, space)
    dH = rate * asm.channels["eps2_mod"]

    def ratio_at(t):
        spec = diagonalize_labeled(asm.at({"eps2_mod": rate * t}))
        return max(abs(np.vdot(spec.states[:, j], dH @ comp))
                   / (spec.energies[j] - spec.energies[i]) ** 2
                   for comp, i in ((spec.psi0, spec.comp_indices[0]),
                                   (spec.psi1, spec.comp_indices[1]))
                   for j in spec.excited_indices())

    assert ratio_at(T) > 1.01 * ratio_at(T - 1.0)
    assert adiabaticity_diagnostic(s, space, n_samples=11) == pytest.approx(ratio_at(T),
                                                                           rel=1e-9)


def _random_channels(kind, dim, n_steps, batch, seed):
    """Assembly, operators and (batch, n_steps, n_ops) values of one structure class."""
    rng = np.random.default_rng(seed)
    params = KerrCatParams.from_alpha2(rng.uniform(0.0, 3.0), delta=rng.uniform(-1.0, 1.0))
    asm = HamiltonianAssembly.build(params, FockSpace(dim))
    ops = [asm.channels[name] for name in STRUCTURE_CLASSES[kind]]
    return asm, ops, rng.uniform(-1.0, 1.0, size=(batch, n_steps, len(ops)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(STRUCTURE_CLASSES)), dim=st.integers(2, 12),
       n_steps=st.integers(1, 6), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(0.01, 0.2))
def test_kernel_matches_expm_product(kind, dim, n_steps, batch, seed, dt):
    asm, ops, values = _random_channels(kind, dim, n_steps, batch, seed)
    U = _propagate_steps(asm.drift, ops, values, dt)
    ref = _expm_product(asm.drift, ops, values, dt)
    for b in range(batch):
        assert np.linalg.norm(U[b] - ref[b], ord=2) < 1e-12
        assert np.linalg.norm(U[b].conj().T @ U[b] - np.eye(dim), ord=2) < 1e-12


@pytest.mark.parametrize("kind, zero, eigh_calls", [
    ("parity", None, [(np.float64, 4), (np.float64, 3)]),
    ("real", None, [(np.float64, 7)]),
    ("general", None, [(np.complex128, 7)]),
    # channels whose values are all zero do not enter the choice
    ("general", 1, [(np.float64, 7)]),
    ("general", 0, [(np.complex128, 7)]),
])
def test_kernel_path_follows_present_operators(kind, zero, eigh_calls):
    asm, ops, values = _random_channels(kind, 7, 5, 2, seed=3)
    if zero is not None:
        values[:, :, zero] = 0.0
    with recorded_eigh() as seen:
        _propagate_steps(asm.drift, ops, values, 0.1)
    assert [(dtype, shape[-1]) for dtype, shape in seen] == eigh_calls


def _mirrored_channels(kind, dim, n_steps, batch, seed):
    """Assembly, operators and a mirror-symmetric value table of one mirror class."""
    rng = np.random.default_rng(seed)
    params = KerrCatParams.from_alpha2(rng.uniform(0.0, 3.0), delta=rng.uniform(-1.0, 1.0))
    asm = HamiltonianAssembly.build(params, FockSpace(dim))
    names, signs = zip(*MIRROR_CLASSES[kind])
    signs = np.array(signs)
    half = rng.uniform(-1.0, 1.0, size=(batch, (n_steps + 1) // 2, len(names)))
    if n_steps % 2:  # the middle step is its own mirror
        half[:, -1] *= signs > 0
    values = np.concatenate([half, signs * half[:, :n_steps // 2][:, ::-1]], axis=1)
    return asm, [asm.channels[name] for name in names], values


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(MIRROR_CLASSES)), dim=st.integers(2, 12),
       n_steps=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 40)),
       batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), dt=st.floats(0.01, 0.2))
def test_mirrored_schedule_folds(kind, dim, n_steps, batch, seed, dt):
    asm, ops, values = _mirrored_channels(kind, dim, n_steps, batch, seed)
    with recorded_eigh() as seen:
        U = _propagate_steps(asm.drift, ops, values, dt)
    assert seen and all(shape[:2] == (batch, (n_steps + 1) // 2) for _, shape in seen)
    ref = _expm_product(asm.drift, ops, values, dt)
    for b in range(batch):
        assert np.linalg.norm(U[b] - ref[b], ord=2) < 1e-12
        assert np.linalg.norm(U[b].conj().T @ U[b] - np.eye(dim), ord=2) < 1e-12


@pytest.mark.parametrize("kind", sorted(MIRROR_CLASSES))
def test_broken_mirror_takes_every_step(kind):
    # one mirrored entry off by 1e-12 relative is far above the rounding
    # tolerance of the mirror test, so the kernel must not fold
    asm, ops, values = _mirrored_channels(kind, 8, 9, 2, seed=5)
    values[1, 7, -1] *= 1.0 + 1e-12
    with recorded_eigh() as seen:
        U = _propagate_steps(asm.drift, ops, values, 0.1)
    assert seen and all(shape[:2] == (2, 9) for _, shape in seen)
    ref = _expm_product(asm.drift, ops, values, 0.1)
    assert np.max(np.linalg.norm(U - ref, ord=2, axis=(1, 2))) < 1e-12


def test_unmirrored_schedules_keep_sequential_product():
    # approximate DRAG with a linear eps_x term is unmirrored on purpose and
    # an OU trace is random: both take every step, with the sequential
    # product unchanged
    p = KerrCatParams.from_alpha2(1.0)
    space = FockSpace(14)
    drag = scheme_y_drag(10.0, 0.3, -0.3, p, space, drag_mode="approx", n_samples=101)
    drag = replace(drag, channels={**drag.channels,
                                   "eps_x": drag.channels["eps_x"] + 1e-3 * drag.times})
    z = scheme_z_straight(20.0, 0.4, -0.5, p, n_samples=201)
    trace = sample_noise(NoiseModel("ornstein-uhlenbeck", {"sigma": 1e-3, "tau_c": 50.0},
                                    seed=4), z.duration, z.duration / 60)[0]
    calls = []

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    kernel = propagation._propagate_steps
    with mock.patch.object(propagation, "_propagate_steps", spy), recorded_eigh() as seen:
        results = [propagate(drag, space, delta_offset=1e-3, n_steps=60),
                   propagate_noise_trace(z, space, trace, n_steps=60)]
    assert [shape[1] for _, shape in seen] == [60, 60, 60]  # one complex, two parity blocks
    for res, args in zip(results, calls):
        assert np.array_equal(res.unitary, _sequential_product(*args)[0])
        assert res.step_count == 60


def test_exact_drag_schedule_folds():
    # exact DRAG's eps_x is antisymmetric by construction, so its static-offset
    # propagation diagonalizes only the first ceil(n/2) steps
    p = KerrCatParams.from_alpha2(1.0)
    space = FockSpace(14)
    drag = scheme_y_drag(10.0, 0.3, -0.3, p, space, drag_mode="exact", n_samples=101)
    calls = []

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    kernel = propagation._propagate_steps
    for n_steps in (60, 61):
        calls.clear()
        with mock.patch.object(propagation, "_propagate_steps", spy), recorded_eigh() as seen:
            res = propagate_many(drag, space, [-1e-3, 2e-3], n_steps=n_steps)
        assert seen and all(shape[:2] == (2, (n_steps + 1) // 2) for _, shape in seen)
        ref = _sequential_product(*calls[0])
        for b, r in enumerate(res):
            assert np.linalg.norm(r.unitary - ref[b], ord=2) < 1e-12
            assert r.step_count == n_steps


def _random_schedule(kind, seed, n_samples=9):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, rng.uniform(1.0, 4.0), n_samples)
    channels = {name: rng.uniform(-0.5, 0.5, n_samples) for name in STRUCTURE_CLASSES[kind]}
    return PulseSchedule(times=times, channels=channels, target=np.eye(2, dtype=complex),
                         scheme="RANDOM", base=KerrCatParams.from_alpha2(rng.uniform(0.5, 2.5)))


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(STRUCTURE_CLASSES)), dim=st.integers(2, 12),
       seed=st.integers(0, 2**32 - 1),
       offsets=st.lists(st.floats(-0.05, 0.05), min_size=1, max_size=4))
def test_propagate_many_rows_equal_single_calls(kind, dim, seed, offsets):
    s = _random_schedule(kind, seed)
    space = FockSpace(dim)
    many = propagate_many(s, space, offsets, n_steps=40)
    for off, res in zip(offsets, many):
        single = propagate(s, space, delta_offset=off, n_steps=40)
        assert np.linalg.norm(res.unitary - single.unitary) < 1e-12
        assert res.unitarity_defect < 1e-12


def test_kerr_gate_zero_detuning_exact():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_kerr_gate(p, space=SPACE, n_samples=101)
    res = propagate(s, SPACE, n_steps=400)
    psi0, psi1 = computational_pair(p, SPACE)
    assert infidelity(res.unitary, s.target, psi0, psi1, s.frame_rotation) < 1e-3
