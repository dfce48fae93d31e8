import numpy as np
import pytest

from kerrcat.fidelity import (InfidelityGrid, average_infidelity,
                              computational_pair, infidelity, simpson_nodes)
from kerrcat.fock import FockSpace, InvalidInputError, KerrCatParams
from kerrcat.pulses import rot_x, scheme_x

SPACE = FockSpace(30)


def _embed(gate, psi0, psi1, dim):
    P = np.column_stack([psi0, psi1])
    U = np.eye(dim, dtype=complex) - P @ P.conj().T
    return U + P @ gate @ P.conj().T


def test_exact_gate_zero_infidelity():
    p = KerrCatParams.from_alpha2(2.0)
    psi0, psi1 = computational_pair(p, SPACE)
    target = rot_x(np.pi / 2)
    U = _embed(target, psi0, psi1, SPACE.dim)
    assert infidelity(U, target, psi0, psi1) == pytest.approx(0.0, abs=1e-12)


def test_global_phase_invariance():
    p = KerrCatParams.from_alpha2(2.0)
    psi0, psi1 = computational_pair(p, SPACE)
    target = rot_x(np.pi / 2)
    U = np.exp(1j * 0.73) * _embed(target, psi0, psi1, SPACE.dim)
    assert infidelity(U, target, psi0, psi1) == pytest.approx(0.0, abs=1e-12)


def test_full_leakage_is_one():
    p = KerrCatParams.from_alpha2(2.0)
    psi0, psi1 = computational_pair(p, SPACE)
    # permutation moving the pair entirely out of its span
    spec_states = np.eye(SPACE.dim, dtype=complex)
    P = np.column_stack([psi0, psi1])
    comp = P @ P.conj().T
    # build a unitary swapping the pair with two orthogonal directions
    rest = np.linalg.svd(np.eye(SPACE.dim) - comp)[0][:, :2]
    U = np.eye(SPACE.dim, dtype=complex)
    block = np.column_stack([psi0, psi1, rest[:, 0], rest[:, 1]])
    swap = np.zeros((4, 4))
    swap[2, 0] = swap[3, 1] = swap[0, 2] = swap[1, 3] = 1.0
    U = U - block @ block.conj().T + block @ swap @ block.conj().T
    assert infidelity(U, rot_x(np.pi / 2), psi0, psi1) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", ["nan", "inf identity"])
def test_non_finite_gate_raises(bad):
    # max(0, nan) is 0: a NaN propagator, or an inf identity, scored as a perfect gate
    p = KerrCatParams.from_alpha2(2.0)
    psi0, psi1 = computational_pair(p, FockSpace(20))
    U = np.full((20, 20), np.nan, complex) if bad == "nan" else np.inf * np.eye(20)
    with pytest.raises(InvalidInputError, match="not finite"):
        infidelity(U, rot_x(np.pi / 2), psi0, psi1)


def test_infidelity_ignores_pair_layout():
    # the same pair held C-ordered or column-major gives the same value bit for
    # bit, for propagated X gates and for random unitaries
    from kerrcat.propagation import propagate_many
    from kerrcat.pulses import seed_eps_x0

    p = KerrCatParams.from_alpha2(2.0)
    pair = np.column_stack(computational_pair(p, SPACE))
    sched = scheme_x(30.0, seed_eps_x0(30.0, p), p)
    cases = [(r.unitary, sched.frame_rotation)
             for r in propagate_many(sched, SPACE, np.linspace(-5e-3, 5e-3, 11), n_steps=500)]
    rng = np.random.default_rng(0)
    for _ in range(50):
        A = rng.normal(size=(SPACE.dim, SPACE.dim)) + 1j * rng.normal(size=(SPACE.dim, SPACE.dim))
        cases.append((np.linalg.qr(A)[0], None))
    for U, frame in cases:
        values = {infidelity(U, sched.target, *np.array(pair, order=order).T, frame)
                  for order in "CF"}
        assert len(values) == 1, values


def test_simpson_weights():
    nodes, w = simpson_nodes(5e-3, 11)
    assert len(nodes) == 11
    assert w.sum() == pytest.approx(1.0)
    # exactness on constants and quadratics
    assert np.dot(w, np.ones(11)) == pytest.approx(1.0)
    quad = nodes**2
    assert np.dot(w, quad) == pytest.approx((5e-3) ** 2 / 3.0, rel=1e-12)
    with pytest.raises(ValueError):
        simpson_nodes(1e-3, 10)


def test_grid_average_and_csv(tmp_path):
    nodes, w = simpson_nodes(5e-3, 11)
    infs = 2.0 * nodes**2
    grid = InfidelityGrid(delta_nodes=nodes, weights=w, infidelities=infs)
    assert grid.average == pytest.approx(2 * (5e-3) ** 2 / 3)
    assert grid.worst == pytest.approx(2 * (5e-3) ** 2)
    assert grid.at_zero == pytest.approx(0.0)
    path = tmp_path / "grid.csv"
    grid.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "delta,weight,infidelity"
    assert len(rows) == 12


def test_x_schedule_detuning_profile():
    # at the calibrated amplitude the error is smallest on resonance and
    # grows nearly symmetrically with the detuning offset
    from kerrcat.pulses import seed_eps_x0
    p = KerrCatParams.from_alpha2(2.0)
    s = scheme_x(20.0, seed_eps_x0(20.0, p), p, n_samples=401)
    grid = average_infidelity(s, SPACE, n_steps=300)
    assert grid.at_zero == pytest.approx(grid.infidelities.min(), rel=1e-12)
    assert grid.at_zero < 1e-6
    asym = np.max(np.abs(grid.infidelities - grid.infidelities[::-1]))
    assert asym < 0.5 * grid.worst


def test_average_infidelity_within_bounds():
    p = KerrCatParams.from_alpha2(1.0)
    s = scheme_x(15.0, 0.05, p, n_samples=201)
    grid = average_infidelity(s, SPACE, n_nodes=5, n_steps=200)
    assert np.all(grid.infidelities >= 0.0)
    assert np.all(grid.infidelities <= 1.0 + 1e-9)
    assert grid.average <= grid.worst
