import csv
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from kerrcat.fock import (CHANNELS, FockSpace, HamiltonianAssembly,
                          InvalidInputError, InvalidSpaceError, KerrCatParams,
                          _save_table, block_hamiltonians, build_hamiltonian, create, destroy,
                          hermiticity_defect, number_operator, parity_operator)
from kerrcat.twoqubit import two_mode_hamiltonian_parts


def test_fock_space_validation():
    with pytest.raises(InvalidSpaceError):
        FockSpace(1)
    with pytest.raises(InvalidSpaceError):
        FockSpace(0)
    assert FockSpace(2).dim == 2
    assert FockSpace(np.int64(7)).dim == 7


@pytest.mark.parametrize("dim", [30.5, 20.0, True])
def test_fock_space_rejects_non_integer_dim(dim):
    # a float dimension used to build a ceil(dim)-level space without an error
    with pytest.raises(InvalidSpaceError, match="integer"):
        FockSpace(dim)


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


@pytest.mark.parametrize("values", [{"delta": 1e308}, {"eps_x": 0.5, "eps2_mod": -1e308}])
def test_overflowing_channel_value_refused_without_warning(values):
    # an overflowing value warned and returned a matrix with inf entries; it is
    # refused by the bound that refuses an overflowing table
    p = KerrCatParams.from_alpha2(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="overflows"):
            build_hamiltonian(p, FockSpace(10), values)
        with pytest.raises(InvalidInputError, match="overflows"):
            HamiltonianAssembly.build(p, FockSpace(10)).at(values)
        # the largest values under the bound give a finite matrix
        assert np.isfinite(build_hamiltonian(p, FockSpace(10), {"eps_y": -1e307})).all()


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


def test_real_operators_are_float64():
    # every operator but eps_y is float64, so the dtypes choose the real path;
    # the two-mode check's real 256 x 256 table is stacked with no complex copy
    space = FockSpace(40)
    asm = HamiltonianAssembly.build(KerrCatParams.from_alpha2(2.0, delta=0.3), space)
    assert asm.drift.dtype == np.float64
    for name in CHANNELS:
        assert (asm.channels[name].dtype == np.float64) == (name != "eps_y"), name
    assert build_hamiltonian(asm.params, space, {"eps_x": 0.1, "delta": 0.2}).dtype == np.float64
    pa, pb = KerrCatParams.from_alpha2(1.0), KerrCatParams.from_alpha2(1.5)
    H0, coupling = two_mode_hamiltonian_parts(pa, pb, FockSpace(16), phase=0.0)
    assert H0.dtype == np.float64 and coupling.dtype == np.float64
    assert np.iscomplexobj(two_mode_hamiltonian_parts(pa, pb, FockSpace(16), phase=0.7)[1])
    values = np.array([0.3])
    tracemalloc.start()
    try:
        (H,) = block_hamiltonians(H0, [coupling], values, [slice(None)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.dtype == np.float64
    assert np.array_equal(H, H0 + 0.3 * coupling)
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("n_rows", [10, 1, 0])
def test_save_table_writes_the_csv_modules_bytes(tmp_path, n_rows):
    # the format of the csv.writer loops it replaced: a header row, then f"{v:.12g}" per value
    edge = np.array([0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf, 1 / 3, 1e22, -2.5, 7.0])
    columns = (edge[:n_rows], edge[::-1][:n_rows], np.arange(n_rows))
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["a", "b", "c"],
                                  *([f"{v:.12g}" for v in row] for row in zip(*columns))])
    _save_table(tmp_path / "new.csv", ["a", "b", "c"], *columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
