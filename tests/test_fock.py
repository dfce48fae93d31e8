import pickle

import numpy as np
import pytest

from kerrcat.fock import (CHANNELS, FockSpace, HamiltonianAssembly,
                          InvalidInputError, InvalidSpaceError, KerrCatParams,
                          build_hamiltonian, create, destroy, hermiticity_defect,
                          number_operator, parity_operator)


def test_fock_space_validation():
    with pytest.raises(InvalidSpaceError):
        FockSpace(1)
    with pytest.raises(InvalidSpaceError):
        FockSpace(0)
    assert FockSpace(2).dim == 2


def test_params_validation():
    with pytest.raises(InvalidInputError):
        KerrCatParams(kerr=0.0)
    with pytest.raises(InvalidInputError):
        KerrCatParams(kerr=-1.0)
    with pytest.raises(InvalidInputError):
        KerrCatParams(eps2_0=-0.1)
    p = KerrCatParams.from_alpha2(2.5)
    assert p.alpha2 == pytest.approx(2.5)
    assert p.alpha == pytest.approx(np.sqrt(2.5))


@pytest.mark.parametrize("field", ["kerr", "eps2_0", "delta"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(InvalidInputError, match="non-finite"):
        KerrCatParams(**{field: value})


def test_ladder_commutator_truncated():
    space = FockSpace(12)
    a = destroy(space)
    comm = a @ create(space) - create(space) @ a
    # exact identity except in the highest Fock state
    expected = np.eye(12)
    expected[-1, -1] = -11.0
    assert np.allclose(comm, expected)


def test_number_and_parity():
    space = FockSpace(6)
    n = number_operator(space)
    pi = parity_operator(space)
    assert np.allclose(np.diag(n), np.arange(6))
    assert np.allclose(pi @ pi, np.eye(6))
    # parity anticommutes with a
    a = destroy(space)
    assert np.allclose(pi @ a + a @ pi, np.zeros((6, 6)))


def test_drift_matches_direct_formula():
    space = FockSpace(10)
    p = KerrCatParams(kerr=1.0, eps2_0=2.0, delta=0.3)
    a = destroy(space)
    ad = a.conj().T
    expected = 0.3 * ad @ a - 0.5 * (ad @ ad @ a @ a) + 1.0 * (a @ a + ad @ ad)
    H = build_hamiltonian(p, space)
    assert np.allclose(H, expected)


def test_channels_hermitian_and_parity_structure():
    space = FockSpace(14)
    asm = HamiltonianAssembly.build(KerrCatParams.from_alpha2(2.0), space)
    pi = parity_operator(space)
    for name in CHANNELS:
        op = asm.channels[name]
        assert hermiticity_defect(op) < 1e-14
        comm_norm = np.linalg.norm(op @ pi - pi @ op)
        if name in ("delta", "eps2_mod"):
            assert comm_norm < 1e-14  # parity preserving
        else:
            # single-photon drives anticommute with parity instead
            assert np.linalg.norm(op @ pi + pi @ op) < 1e-14
    assert hermiticity_defect(asm.drift) < 1e-14


def test_at_validates_inputs():
    space = FockSpace(8)
    asm = HamiltonianAssembly.build(KerrCatParams(), space)
    with pytest.raises(InvalidInputError):
        asm.at({"eps_x": np.nan})
    with pytest.raises(InvalidInputError):
        asm.at({"bogus": 1.0})
    H = asm.at({"eps_x": 0.5, "delta": 0.1})
    assert hermiticity_defect(H) < 1e-14


def test_pure_kerr_spectrum():
    # alpha^2 = 0, delta = 0: eigenvalues are -K/2 n(n-1)
    space = FockSpace(5)
    H = build_hamiltonian(KerrCatParams(), space)
    n = np.arange(5)
    assert np.allclose(np.sort(np.diag(H).real), np.sort(-0.5 * n * (n - 1)))


@pytest.mark.parametrize("dim", [2, 7, 40])
def test_cached_build_matches_formula_bit_for_bit(dim):
    space = FockSpace(dim)
    a = destroy(space)
    ad = a.conj().T
    for p in (KerrCatParams(), KerrCatParams(kerr=1.3, eps2_0=2.0, delta=0.3),
              KerrCatParams(kerr=0.7, eps2_0=0.45, delta=-1.1)):
        expected = (p.delta * (ad @ a) - 0.5 * p.kerr * (ad @ ad @ a @ a)
                    + p.eps2_0 * (0.5 * (a @ a + ad @ ad)))
        asm = HamiltonianAssembly.build(p, space)
        assert np.array_equal(asm.drift, expected)
        assert np.array_equal(asm.channels["eps_x"], 0.5 * (a + ad))
        assert np.array_equal(asm.channels["eps_y"], -0.5j * (a - ad))


def test_cached_operators_are_read_only():
    space = FockSpace(6)
    asm = HamiltonianAssembly.build(KerrCatParams.from_alpha2(1.0), space)
    for name in CHANNELS:
        with pytest.raises(ValueError):
            asm.channels[name][0, 0] = 1.0
        with pytest.raises(ValueError):
            asm.channels[name] *= 2.0
    again = HamiltonianAssembly.build(KerrCatParams(), space)
    assert again.channels["delta"] is asm.channels["delta"]
    assert np.array_equal(again.channels["delta"], create(space) @ destroy(space))
    # the dict, the drift and the public constructors stay the caller's own
    asm.channels["delta"] = np.eye(6)
    assert np.array_equal(again.channels["delta"], create(space) @ destroy(space))
    asm.drift[0, 0] = 5.0
    for fresh in (destroy(space), create(space), number_operator(space)):
        fresh[0, 0] = 5.0
    assert np.array_equal(destroy(space), np.diag(np.sqrt(np.arange(1, 6)), 1))
    assert HamiltonianAssembly.build(KerrCatParams(), space).drift[0, 0] == 0.0
    # an assembly can still be pickled (e.g. sent to a process pool)
    copy = pickle.loads(pickle.dumps(again))
    assert np.array_equal(copy.drift, again.drift)
    assert np.array_equal(copy.channels["eps_y"], again.channels["eps_y"])
