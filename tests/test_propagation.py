import sys
import threading
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kerrcat.fidelity import computational_pair, infidelity
from kerrcat import fock, propagation
from kerrcat.fock import (FockSpace, HamiltonianAssembly, InvalidInputError, KerrCatParams,
                          block_hamiltonians, is_real, keeps_parity, parity_blocks,
                          parity_operator, present_channels)
from kerrcat.noise import NoiseModel, default_frequency_grid, filter_weight, sample_noise
from kerrcat.propagation import (_apply_step, _propagate_steps, _step_eigenpairs,
                                 adiabaticity_diagnostic, propagate, propagate_many,
                                 propagate_noise_trace)
from kerrcat.pulses import (PulseSchedule, _drag_exact, gap_traces, idle_schedule, rot_z,
                            scheme_kerr_gate, scheme_x, scheme_xx_envelope, scheme_y_drag,
                            scheme_z_straight, seed_eps_x0, truncated_gaussian,
                            truncated_gaussian_deriv)
from kerrcat.spectral import _gap_slopes, diagonalize_labeled, gap_derivative, spectrum_at
from kerrcat.twoqubit import full_two_mode_propagate

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


def _float_entries(dtype, shape) -> int:
    """float64 entries of a stack of ``shape`` and ``dtype``, a complex entry counting twice."""
    return int(np.prod(shape)) * np.dtype(dtype).itemsize // 8


@contextmanager
def kernel_calls():
    """Record the (drift, ops, values, dt) of every kernel call inside the block."""
    calls = []
    kernel = propagation._propagate_steps

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    with mock.patch.object(propagation, "_propagate_steps", spy):
        yield calls


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
    """Reference: every step's eigenpairs applied to the identity in time order, unfolded."""
    ops, values, real = present_channels(drift, ops, values)
    d = drift.shape[0]
    parity = real and all(keeps_parity(op) for op in (drift, *ops))
    U = np.zeros((len(values), d, d), dtype=complex)
    for block in parity_blocks(d) if parity else (slice(0, d),):
        phases, V = _step_eigenpairs(drift, ops, values, block, real, dt)
        prod = np.broadcast_to(np.eye(V.shape[-1], dtype=complex), V[:, 0].shape).copy()
        work = np.empty_like(prod)
        for k in range(values.shape[1]):
            _apply_step((phases[:, k], V[:, k]), prod, work)
        U[:, block, block] = prod
    return U


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["parity", "real", "complex"]), dim=st.integers(2, 12),
       batch_shape=st.lists(st.integers(1, 3), max_size=2).map(tuple),
       n_prior=st.integers(0, 4), seed=st.integers(0, 2**32 - 1), dt=st.floats(0.01, 0.2))
def test_apply_step_matches_expm(kind, dim, batch_shape, n_prior, seed, dt):
    # each step is applied in place to a running product of the steps before
    # it; V stays real on the parity-block and real paths
    rng = np.random.default_rng(seed)
    real = kind != "complex"
    if kind == "parity":
        asm, ops, _ = _random_channels("parity", dim, 1, 1, seed)
        drift, block = asm.drift, parity_blocks(dim)[seed % 2]
        values = rng.uniform(-1.0, 1.0, size=(n_prior + 1, *batch_shape, len(ops)))
    else:
        A = rng.standard_normal((n_prior + 1, *batch_shape, dim, dim))
        if kind == "complex":
            A = A + 1j * rng.standard_normal(A.shape)
        # the random matrices as a table: one operator each, picked by a one-hot row
        ops = list((A + np.swapaxes(A, -1, -2).conj()).reshape(-1, dim, dim))
        drift, block = np.zeros((dim, dim)), slice(0, dim)
        values = np.eye(len(ops)).reshape(*A.shape[:-2], len(ops))
    H = block_hamiltonians(drift, ops, values, block, real)
    b = H.shape[-1]
    U = np.broadcast_to(np.eye(b, dtype=complex), H.shape[1:]).copy()
    ref = U.reshape(-1, b, b).copy()
    work = np.empty_like(U)
    for k, Hk in enumerate(H):
        step = _step_eigenpairs(drift, ops, values[k], block, real, dt)
        assert np.isrealobj(step[1]) == real
        assert _apply_step(step, U, work) is U
        ref = np.array([expm(-1j * h * dt) @ r for h, r in zip(Hk.reshape(-1, b, b), ref)])
    err = np.linalg.norm(U.reshape(-1, b, b) - ref, ord=2, axis=(1, 2))
    assert np.max(err) < 1e-12


def test_kernel_entry_rejects_bad_input():
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_x(20.0, 0.05, p, n_samples=201)
    space = FockSpace(8)
    for n_steps in (0, -3):
        with pytest.raises(InvalidInputError, match="n_steps"):
            propagate_many(s, space, [0.0], n_steps=n_steps)
    with pytest.raises(InvalidInputError, match="n_steps"):
        propagate_noise_trace(s, space, [], n_steps=0)
    with pytest.raises(InvalidInputError, match="non-finite"):
        propagate_many(s, space, [0.0, np.nan], n_steps=10)
    trace = np.zeros(10)
    trace[4] = np.inf
    with pytest.raises(InvalidInputError, match="non-finite"):
        propagate_noise_trace(s, space, trace, n_steps=10)
    with pytest.raises(InvalidInputError, match="delta_offsets"):
        propagate_noise_trace(s, space, np.zeros(7), n_steps=10)
    for empty in ([], np.zeros((0, 10))):
        with pytest.raises(InvalidInputError, match="no detuning offset rows"):
            propagate_many(s, space, empty, n_steps=10)


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
        return max(abs(np.vdot(spec.states[:, j], dH @ spec.states[:, i]))
                   / (spec.energies[j] - spec.energies[i]) ** 2
                   for i in (0, 1) for j in range(2, space.dim))

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
    # the parity blocks run concurrently, so the order of their calls is not defined
    assert sorted([(dtype, shape[-1]) for dtype, shape in seen], key=str) \
        == sorted(eigh_calls, key=str)


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
    with kernel_calls() as calls, recorded_eigh() as seen:
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
    for n_steps in (60, 61):
        with kernel_calls() as calls, recorded_eigh() as seen:
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


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([("structure", k) for k in sorted(STRUCTURE_CLASSES)]
                            + [("mirror", k) for k in sorted(MIRROR_CLASSES)]),
       dim=st.integers(2, 10), half=st.integers(1, 15), odd=st.booleans(),
       batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 400))
def test_pieced_kernel_equals_unpieced(kind, dim, half, odd, batch, seed, budget):
    # pieces of at most ``budget`` entries (at least one step of every row)
    # give the same propagators bit for bit, folded or not
    family, name = kind
    make = _random_channels if family == "structure" else _mirrored_channels
    asm, ops, values = make(name, dim, 2 * half + odd, batch, seed)
    whole = _propagate_steps(asm.drift, ops, values, 0.1)
    with mock.patch.object(fock, "STACK_ENTRIES", budget), recorded_eigh() as seen:
        pieced = _propagate_steps(asm.drift, ops, values, 0.1)
    assert np.array_equal(pieced, whole)
    assert all(_float_entries(dtype, shape) <= budget or shape[1] == 1 for dtype, shape in seen)


@pytest.mark.parametrize("kind, dim, batch, budget", [
    ("parity", 30, 3, None),
    ("real", 16, 2, None),
    ("general", 16, 2, None),
    # one step of every row is over the budget: pieces of one step each
    ("parity", 12, 2, 50),
])
def test_step_stacks_bounded_on_long_tables(kind, dim, batch, budget):
    asm, ops, values = _random_channels(kind, dim, 600, batch, seed=8)
    limit = fock.STACK_ENTRIES if budget is None else budget
    with mock.patch.object(fock, "STACK_ENTRIES", limit), recorded_eigh() as seen:
        _propagate_steps(asm.drift, ops, values, 0.01)
    blocks = 2 if kind == "parity" else 1
    assert len(seen) > blocks  # the stacks were split
    assert sum(shape[1] for _, shape in seen) == blocks * 600
    for dtype, shape in seen:
        # a complex entry counts as two float64 entries
        assert _float_entries(dtype, shape) <= limit or shape[1] == 1
        assert (dtype is np.complex128) == (kind == "general")
        assert shape[0] == batch
        if kind == "parity":  # the two concurrent blocks share the budget
            assert np.prod(shape) <= limit // 2 or shape[1] == 1


def _outcome(compute):
    """``compute()``'s result, or the type and message of what it raised."""
    try:
        return compute()
    except Exception as exc:  # both piecings must raise alike
        return type(exc), str(exc)


def _same(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 12), n=st.integers(2, 60), alpha2=st.floats(0.5, 1.5),
       gauge=st.booleans(), seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 4000))
def test_pieced_spectral_reducers_equal_one_piece(dim, n, alpha2, gauge, seed, budget):
    # the slope trace, exact DRAG, the adiabaticity maximum and the filter
    # weight taken in pieces of at most ``budget`` float64 entries (a complex
    # entry counting twice; at least one item) equal their one-piece results
    # bit for bit
    rng = np.random.default_rng(seed)
    p = KerrCatParams.from_alpha2(alpha2)
    space = FockSpace(dim)
    asm = HamiltonianAssembly.build(p, space)
    ops = [asm.channels["delta"], asm.channels["eps2_mod"]]
    drift = asm.drift
    if gauge:  # a diagonal phase gauge makes the labeled stack complex
        D = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, dim)))
        drift, ops = D @ drift @ D.conj().T, [D @ op @ D.conj().T for op in ops]
    values = rng.uniform(-0.5, 0.5, size=(n, len(ops)))
    T = rng.uniform(5.0, 20.0)
    times = np.linspace(0.0, T, n)
    f, fdot = truncated_gaussian(times, T), truncated_gaussian_deriv(times, T)
    ey0, r0 = rng.uniform(0.1, 1.0), rng.uniform(-0.5, 0.0)
    z = scheme_z_straight(T, rng.uniform(0.0, 0.8), r0, p, n_samples=n)
    t = np.sort(rng.uniform(0.0, T, n))
    deriv = rng.standard_normal(n)
    omegas = rng.uniform(-5.0, 5.0, rng.integers(1, 80))
    reducers = {
        "gap slopes": lambda: _gap_slopes(drift, ops, values),
        # 13 more levels hold the cat of alpha^2 <= 1.5 (cats.TruncationError)
        "exact DRAG": lambda: _drag_exact(times, r0 * f, r0 * fdot, ey0 * f, ey0 * fdot,
                                          p, FockSpace(dim + 13)),
        "adiabaticity": lambda: adiabaticity_diagnostic(z, space, n_samples=n),
        "filter weight": lambda: filter_weight(t, deriv, omegas).W,
    }
    for name, compute in reducers.items():
        with mock.patch.object(fock, "STACK_ENTRIES", 2**60):
            whole = _outcome(compute)
        with mock.patch.object(fock, "STACK_ENTRIES", budget), recorded_eigh() as seen:
            pieced = _outcome(compute)
        assert _same(pieced, whole), name
        assert all(_float_entries(dtype, shape) <= budget or shape[0] == 1
                   for dtype, shape in seen), name


def test_stacked_spectra_peak_memory_bounded():
    # at the schedules' default 2001 samples and dim 40, unpieced stacks take
    # 44 MiB (slope trace), 52 MiB (exact DRAG) and 63 MiB (filter weight);
    # the approximate DRAG's 80 cat sizes took 4.2 MiB in one stack at dim 60;
    # the noise ensemble's kernel call propagates 16 OU rows of 1000 steps at dim 30
    space = FockSpace(40)
    p = KerrCatParams.from_alpha2(2.0)
    z = scheme_z_straight(30.0, 0.58872, -1.07378, p)
    t, _, deriv = gap_traces(z, space, n_samples=2001)
    noise = NoiseModel("ornstein-uhlenbeck", {"sigma": 1e-2, "tau_c": 300.0}, seed=7)
    traces = sample_noise(noise, z.duration, z.duration / 1000, n_traces=16)
    runs = {
        "gap_traces": lambda: gap_traces(z, space, n_samples=2001),
        "exact-DRAG scheme_y_drag": lambda: scheme_y_drag(20.0, 1.2, -0.5, p, space,
                                                          drag_mode="exact"),
        "approx-DRAG scheme_y_drag": lambda: scheme_y_drag(20.0, 1.2, -0.5, p, FockSpace(60),
                                                           drag_mode="approx"),
        "filter_weight": lambda: filter_weight(t, deriv, default_frequency_grid(30.0)),
        "noise kernel": lambda: propagate_many(z, FockSpace(30), traces, n_steps=1000),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"{name}: peak {peak / 2**20:.1f} MiB"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [8, 20])  # full dimension, and the kept basis above 16 levels
@pytest.mark.parametrize("offsets", [[1e308], [[1e308] * 10], [0.0, -1e308]],
                         ids=["static", "per-step", "second-row"])
def test_overflowing_offset_raises(dim, offsets):
    # a finite offset whose Hamiltonian overflows has no step spectrum: it gave
    # a NaN propagator, now a typed error (static, per-step and mixed rows)
    z = scheme_z_straight(30.0, 0.5, -1.0, KerrCatParams.from_alpha2(2.0), n_samples=101)
    with pytest.raises(InvalidInputError, match="overflows"):
        propagate_many(z, FockSpace(dim), offsets, n_steps=10)


def _overflowing_calls():
    """Every path by which a table reaches eigenpairs, each fed a finite value whose H overflows."""
    p = KerrCatParams.from_alpha2(2.0)
    z = scheme_z_straight(30.0, 0.5, -1.0, p, n_samples=101)
    huge_z = replace(z, channels={**z.channels, "delta": 1e308 * z.channels["delta"]})
    return {
        "kernel": lambda: propagate_many(z, FockSpace(8), [1e308], 10),
        "kept-basis": lambda: propagate_many(z, FockSpace(20), [1e308], 10),
        "second-row": lambda: propagate_many(z, FockSpace(20), [0.0, -1e308], 10),
        "spectrum_at": lambda: spectrum_at(p, 1e308, FockSpace(10)),
        "gap_derivative": lambda: gap_derivative(p, 1e308, FockSpace(10)),
        "gap_traces": lambda: gap_traces(huge_z, FockSpace(10)),
        "adiabaticity": lambda: adiabaticity_diagnostic(huge_z, FockSpace(10)),
        "exact-drag": lambda: scheme_y_drag(20.0, 1e308, -0.5, p, FockSpace(20),
                                            drag_mode="exact"),
        "approx-drag": lambda: propagate(scheme_y_drag(20.0, 1e308, -0.5, p, FockSpace(20),
                                                       drag_mode="approx"), FockSpace(20),
                                         n_steps=10),
        "x": lambda: propagate(scheme_x(20.0, 1e308, p), FockSpace(20), n_steps=10),
        "two-mode": lambda: full_two_mode_propagate(p, p, FockSpace(6),
                                                    scheme_xx_envelope(10.0, 1e308, 101),
                                                    n_steps=10),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("path", list(_overflowing_calls()))
def test_overflowing_table_refused_before_numpy_warns(path):
    # one bound per table, taken before its first piece: each path raises the
    # same typed error, with no RuntimeWarning first, whatever the piece size
    messages = set()
    for budget in (fock.STACK_ENTRIES, 1):
        with mock.patch.object(fock, "STACK_ENTRIES", budget):
            with pytest.raises(InvalidInputError, match="overflows") as raised:
                _overflowing_calls()[path]()
        messages.add(str(raised.value))
    assert len(messages) == 1, messages


@pytest.mark.parametrize("kind, size, in_worker, workers", [
    pytest.param("parity", 3, True, 1, id="3-True"),
    pytest.param("parity", 4, False, 1, id="4-False"),
    pytest.param("real", 7, False, 0, id="real-7-False"),
])
def test_parity_block_failure_propagates_and_leaves_no_thread(kind, size, in_worker, workers):
    # dim 7: on the parity path the caller takes the 4 x 4 even block and one
    # worker the 3 x 3 odd one; the real path's single 7 x 7 block runs in the
    # caller and starts no thread
    s = _random_schedule(kind, seed=6)
    space = FockSpace(7)
    before = propagate_many(s, space, [0.0, 1e-2], n_steps=30)
    threads = threading.active_count()
    failure = np.linalg.LinAlgError("block failed")
    failed_in = []
    eigh = np.linalg.eigh

    def failing_eigh(H):
        if H.shape[-1] == size:
            failed_in.append((threading.current_thread() is not threading.main_thread(),
                              threading.active_count() - threads))
            raise failure
        return eigh(H)

    with mock.patch.object(np.linalg, "eigh", failing_eigh):
        with pytest.raises(np.linalg.LinAlgError) as raised:
            propagate_many(s, space, [0.0, 1e-2], n_steps=30)
    assert raised.value is failure and failed_in == [(in_worker, workers)]
    assert threading.active_count() == threads
    after = propagate_many(s, space, [0.0, 1e-2], n_steps=30)
    for a, b in zip(before, after):
        assert np.array_equal(a.unitary, b.unitary)


def test_concurrent_kernel_calls_match_sequential():
    # more calling threads than cores, each starting its own block worker,
    # with a short switch interval: every call returns the sequential bits
    asm, ops, values = _random_channels("parity", 9, 40, 3, seed=12)
    ref = _sequential_product(asm.drift, ops, values, 0.05)
    results = [None] * 6

    def run(i):
        results[i] = _propagate_steps(asm.drift, ops, values, 0.05)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(results))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for U in results:
        assert np.array_equal(U, ref)


def test_propagate_many_noise_rows_equal_single_traces():
    # rows of 2-D offsets are pieced differently from a single row, and the
    # parity (straight-line Z) and real (X) paths both give the same bits
    p = KerrCatParams.from_alpha2(2.0)
    n_steps = 700
    noise = NoiseModel("ornstein-uhlenbeck", {"sigma": 1e-2, "tau_c": 30.0}, seed=2)
    for s in (scheme_z_straight(20.0, 0.4, -0.5, p, n_samples=201),
              scheme_x(20.0, 0.05, p, n_samples=201)):
        traces = sample_noise(noise, s.duration, s.duration / n_steps, n_traces=3)
        many = propagate_many(s, SPACE, traces, n_steps=n_steps)
        for trace, res in zip(traces, many):
            single = propagate_noise_trace(s, SPACE, trace, n_steps=n_steps)
            assert np.array_equal(res.unitary, single.unitary)
            assert res.unitarity_defect == single.unitarity_defect
            assert res.step_count == n_steps
    for wrong in (traces[:, :-1], traces[None]):
        with pytest.raises(ValueError, match="delta_offsets"):
            propagate_many(s, SPACE, wrong, n_steps=n_steps)


def _full_dimension(schedule, space, offsets, n_steps):
    """The propagators of one full-dimension kernel call, with no kept basis."""
    with mock.patch.object(propagation, "KEPT_STATES", space.dim):
        return [r.unitary for r in propagate_many(schedule, space, offsets, n_steps=n_steps)]


def _column_errors(kept, full, params, space):
    """||(U - U_full) [psi0 psi1]||_2 of each propagator pair."""
    P = np.column_stack(computational_pair(params, space))
    return [np.linalg.norm((k - f) @ P, ord=2) for k, f in zip(kept, full)]


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["X", "Z", "Y"]), alpha2=st.floats(0.5, 2.5),
       T=st.floats(10.0, 25.0), offsets=st.lists(st.floats(-1e-2, 1e-2), min_size=1, max_size=3),
       data=st.data())
def test_kept_basis_matches_full_dimension(kind, alpha2, T, offsets, data):
    # the kept basis is gated on its edge population, so the computational
    # columns may move by about the amplitude sqrt(EDGE_TOL) of that population;
    # dim starts above both KEPT_STATES and the cats' truncation bound
    # dim > alpha^2 + 8 sqrt(alpha^2 + 1) (kerrcat.cats.cat_vectors)
    min_dim = max(propagation.KEPT_STATES, int(alpha2 + 8 * np.sqrt(alpha2 + 1))) + 1
    dim = data.draw(st.integers(min_dim, 30), label="dim")
    p = KerrCatParams.from_alpha2(alpha2)
    space = FockSpace(dim)
    schedule = {"X": lambda: scheme_x(T, seed_eps_x0(T, p), p, n_samples=101),
                "Z": lambda: scheme_z_straight(T, 0.4, -0.5, p, n_samples=101),
                "Y": lambda: scheme_y_drag(T, 0.05, -0.3, p, space, drag_mode="exact",
                                           n_samples=101)}[kind]()
    with kernel_calls() as calls:
        kept = propagate_many(schedule, space, offsets, n_steps=60)
    assert calls[0][0].shape[0] == propagation.KEPT_STATES
    full = _full_dimension(schedule, space, offsets, 60)
    assert max(_column_errors([r.unitary for r in kept], full, p, space)) \
        < np.sqrt(propagation.EDGE_TOL)
    for r in kept:
        assert r.unitarity_defect < 1e-12
        assert r.step_count == 60


@pytest.mark.parametrize("alpha2", [1.5, 3.0])
def test_kept_basis_falls_back_to_full_dimension(alpha2):
    # the pump-off Kerr gate leaves the drift's top eigenstates, so the gate
    # fails and the rows are propagated again in one full-dimension call,
    # which is the full-dimension kernel call bit for bit
    p = KerrCatParams.from_alpha2(alpha2)
    s = scheme_kerr_gate(p, space=SPACE, n_samples=101)
    with kernel_calls() as calls:
        res = propagate_many(s, SPACE, [-2e-3, 3e-3], n_steps=80)
    assert [drift.shape[0] for drift, *_ in calls] == [propagation.KEPT_STATES, SPACE.dim]
    full = _full_dimension(s, SPACE, [-2e-3, 3e-3], 80)
    assert all(np.array_equal(r.unitary, f) for r, f in zip(res, full))


def test_small_dimension_is_the_direct_kernel_call():
    # at d <= KEPT_STATES the kernel runs once on the schedule's own table
    p = KerrCatParams.from_alpha2(1.5)
    space = FockSpace(propagation.KEPT_STATES)
    s = scheme_y_drag(15.0, 0.05, -0.3, p, space, drag_mode="exact", n_samples=101)
    with kernel_calls() as calls:
        res = propagate_many(s, space, [-1e-3, 0.0, 2e-3], n_steps=50)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], s.hamiltonian_table(space, [0.0])[0])
    direct = _propagate_steps(*calls[0])
    assert all(np.array_equal(r.unitary, U) for r, U in zip(res, direct))


def test_kept_basis_needs_a_real_parity_drift():
    # a drift that mixes parities, or a complex one, runs the kernel directly
    rng = np.random.default_rng(4)
    d = propagation.KEPT_STATES + 3
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    values = rng.uniform(-1.0, 1.0, size=(2, 5, 1))
    for drift in (A + A.conj().T, (A + A.conj().T).real):
        ops = [np.diag(np.arange(d, dtype=float))]
        with kernel_calls() as calls:
            U = propagation._kept_propagate(drift, ops, values, 0.1)
        assert len(calls) == 1 and calls[0][0] is drift
        assert np.array_equal(U, _propagate_steps(drift, ops, values, 0.1))


def test_kept_basis_keeps_kernel_paths():
    # interleaved even, odd, ... kept states: index parity is photon parity,
    # so straight-line Z keeps its two parity blocks and its fold, and the
    # diagonal kept drift starts with the computational pair's energies
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_z_straight(20.0, 0.4, -0.5, p, n_samples=101)
    with kernel_calls() as calls, recorded_eigh() as seen:
        propagate_many(s, SPACE, [0.0], n_steps=60)
    (drift, ops, _, _), = calls
    half = propagation.KEPT_STATES // 2
    # the drift's two blocks are diagonalized once, then the two step stacks
    assert sorted(shape for _, shape in seen) == [(1, 30, half, half)] * 2 + [(15, 15)] * 2
    assert np.array_equal(drift, np.diag(np.diag(drift)))
    spec = diagonalize_labeled(HamiltonianAssembly.build(p, SPACE).drift)
    assert np.allclose(np.diag(drift)[:2], spec.energies[:2], atol=1e-12)
    assert all(is_real(op) and keeps_parity(op) for op in ops)
