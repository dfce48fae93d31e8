"""Truncated Fock-space operators and the driven Kerr-oscillator Hamiltonian.

All energies are expressed in units of the Kerr nonlinearity K and all
times in units of 1/K, so a typical instance has ``kerr=1.0``.

The Hamiltonian is kept in drift + channels form,

    H(t) = H_drift + sum_c  v_c(t) * O_c,

so time propagation only recombines cached matrices with scalars. All but the
Y drive ``eps_y`` are float64, so dtypes choose the real eigensolver path, and
:func:`present_channels` decides a table's overflow once, before any H of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Mapping

import numpy as np


class InvalidSpaceError(ValueError):
    """Fock truncation too small to be meaningful."""


class InvalidInputError(ValueError):
    """Non-finite or otherwise unusable numerical input."""


def _count(n, least: int, name: str) -> int:
    """``n`` if it is an integer >= ``least`` and not a bool; else InvalidInputError naming it."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {n!r}")
    return n


def _finite(x, name: str):
    """``x`` if it is a finite number; else InvalidInputError naming it."""
    if not np.isfinite(x):
        raise InvalidInputError(f"non-finite {name}: {x}")
    return x


def _save_table(path, header, *columns) -> None:
    """Write the equal-length ``columns`` to ``path`` under the names ``header``.

    The package's one table format: a header row, then one row per entry, values
    comma-separated to 12 significant digits (``%.12g``), rows ended by CRLF as by ``csv``.
    """
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.12g", delimiter=",",
                   header=",".join(header), comments="", newline="\r\n")


CHANNELS = ("delta", "eps2_mod", "eps_x", "eps_y")


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space of dimension ``dim``."""

    dim: int

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, Integral) or self.dim < 2:
            raise InvalidSpaceError(f"Fock dimension must be an integer >= 2, got {self.dim!r}")


@dataclass(frozen=True)
class KerrCatParams:
    """Static Kerr-cat parameters: Kerr K, two-photon pump eps2_0, base detuning."""

    kerr: float = 1.0
    eps2_0: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite((self.kerr, self.eps2_0, self.delta))):
            raise InvalidInputError(f"non-finite parameter: kerr={self.kerr}, "
                                    f"eps2_0={self.eps2_0}, delta={self.delta}")
        if not self.kerr > 0:
            raise InvalidInputError(f"Kerr nonlinearity must be positive, got {self.kerr}")
        if self.eps2_0 < 0:
            raise InvalidInputError(f"eps2_0 must be >= 0, got {self.eps2_0}")

    @property
    def alpha2(self) -> float:
        """Cat size alpha^2 = eps2_0 / K."""
        return self.eps2_0 / self.kerr

    @property
    def alpha(self) -> float:
        return np.sqrt(self.alpha2)

    @classmethod
    def from_alpha2(cls, alpha2: float, kerr: float = 1.0, delta: float = 0.0) -> "KerrCatParams":
        return cls(kerr=kerr, eps2_0=alpha2 * kerr, delta=delta)


def destroy(space: FockSpace) -> np.ndarray:
    """Annihilation operator a with a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, space.dim)), 1)


def create(space: FockSpace) -> np.ndarray:
    return destroy(space).T


def number_operator(space: FockSpace) -> np.ndarray:
    return np.diag(np.arange(space.dim, dtype=float))


def parity_operator(space: FockSpace) -> np.ndarray:
    """Photon-number parity Pi = diag((-1)^n)."""
    return np.diag((-1.0) ** np.arange(space.dim))


def parity_blocks(dim: int) -> tuple[slice, slice]:
    """Slices of the even- and odd-parity Fock sectors."""
    return slice(0, dim, 2), slice(1, dim, 2)


def keeps_parity(op: np.ndarray) -> bool:
    """True when ``op`` has no entries between even and odd Fock states."""
    return not (op[0::2, 1::2].any() or op[1::2, 0::2].any())


#: float64 entries of each stacked array the library holds at once, a complex
#: entry counting as two: 256 KiB, so that a piece's whole working set (the
#: stack, its eigenpairs and the temporaries beside them) stays near 1 MiB
#: (see :func:`stack_pieces`)
STACK_ENTRIES = 2**15


def stack_pieces(n: int, item_shape, dtype, share: int = 1) -> list[slice]:
    """Slices of a stack's leading axis of length ``n``, in order, each of bounded size.

    One item along that axis has ``item_shape`` entries of ``dtype``, and a
    piece holds at most ``STACK_ENTRIES // share`` float64 entries (a complex
    entry counts as two); the smallest piece is one item. ``share`` splits the
    bound between stacks held at the same time.
    """
    entries = int(np.prod(item_shape)) * np.dtype(dtype).itemsize // 8
    piece = max(1, STACK_ENTRIES // share // max(1, entries))
    return [slice(start, min(start + piece, n)) for start in range(0, n, piece)]


def present_channels(drift, ops, values):
    """The operators that enter with some non-zero value, and their value columns.

    ``values[..., j]`` holds the scalars that multiply ``ops[j]``. The table is
    refused first, whole, with InvalidInputError when the bound
    max|drift| + sum_j |v_j| max|O_j| on the entries of its H is not finite.
    When every channel is present, ``values`` is returned as given.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.abs(values) @ [np.abs(op).max() for op in ops] + np.abs(drift).max()
    if not np.isfinite(bound).all():
        raise InvalidInputError("Hamiltonian overflows: the bound on its entries is not finite")
    present = values.any(axis=tuple(range(values.ndim - 1)))
    if present.all():
        return list(ops), values
    return [op for op, p in zip(ops, present) if p], values[..., present]


def block_hamiltonians(drift, ops, values, blocks) -> np.ndarray:
    """drift + sum_j values[..., j] ops[j] on each ``block`` x ``block`` slice, stacked.

    ``blocks`` is a group of slices that select equally many rows. The stack
    runs over the leading axes of ``values`` and then over the group, shape
    (*values.shape[:-1], len(blocks), b, b), and is float64 when the drift and
    every operator are. Without operators the drift blocks are broadcast over
    the stack (a read-only view).
    """
    mats = np.array([[m[block, block] for block in blocks] for m in (drift, *ops)])
    shape = (*values.shape[:-1], *mats.shape[1:])
    if not ops:
        return np.broadcast_to(mats[0], shape)
    H = values.reshape(-1, len(ops)) @ mats[1:].reshape(len(ops), -1)
    H += mats[0].reshape(-1)
    return H.reshape(shape)


def block_eigh(drift, ops, values, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs (w, V) of the :func:`block_hamiltonians` stack, V real if it is.

    The library's one eigensolver call, one for the whole group of equal-size
    ``blocks``: w and V carry the group's axis before each matrix's own, and each
    matrix's eigenpairs are those of a call of its own. A spectrum that is not
    finite raises InvalidInputError.
    """
    w, V = np.linalg.eigh(block_hamiltonians(drift, ops, values, blocks))
    if not np.isfinite(w).all():
        raise InvalidInputError("Hamiltonian overflows: its spectrum is not finite")
    return w, V


@lru_cache(maxsize=None)
def _ladder_algebra(dim: int):
    """n, a^dag2 a^2, (a^2 + a^dag2)/2 and the channel operators of ``dim``.

    Built once per dimension and shared by every assembly, so all arrays are
    read-only; each assembly gets its own copy of the channel dict.
    """
    a = destroy(FockSpace(dim))
    ad = a.T
    n = ad @ a
    kerr_term = ad @ ad @ a @ a
    two_photon = 0.5 * (a @ a + ad @ ad)
    channels = {
        "delta": n,
        "eps2_mod": two_photon,
        "eps_x": 0.5 * (a + ad),
        "eps_y": -0.5j * (a - ad),
    }
    for op in (kerr_term, *channels.values()):
        op.flags.writeable = False
    return n, kerr_term, two_photon, channels


@dataclass(frozen=True)
class HamiltonianAssembly:
    """Drift Hamiltonian plus the coupling operator of each control channel.

    Channels:
      delta    -- number operator (detuning shifts, noise traces)
      eps2_mod -- (a^2 + a^dag^2)/2 (two-photon pump modulation)
      eps_x    -- (a + a^dag)/2 (single-photon drive, X quadrature)
      eps_y    -- -i (a - a^dag)/2 (single-photon drive, Y quadrature)

    The channel operators are built once per Fock dimension and shared, so
    they are read-only; ``drift`` and the ``channels`` dict are the
    assembly's own.
    """

    params: KerrCatParams
    drift: np.ndarray = field(repr=False)
    channels: Mapping[str, np.ndarray] = field(repr=False)

    @classmethod
    def build(cls, params: KerrCatParams, space: FockSpace) -> "HamiltonianAssembly":
        n, kerr_term, two_photon, channels = _ladder_algebra(space.dim)
        drift = (
            params.delta * n
            - 0.5 * params.kerr * kerr_term
            + params.eps2_0 * two_photon
        )
        return cls(params=params, drift=drift, channels=dict(channels))

    def at(self, channel_values: Mapping[str, float] | None = None) -> np.ndarray:
        """Instantaneous Hamiltonian for the given channel scalars.

        An unknown channel, a non-finite value, or values that may overflow H
        (the bound of :func:`present_channels`) raise InvalidInputError.
        """
        values = dict(channel_values or {})
        for name, value in values.items():
            if name not in self.channels:
                raise InvalidInputError(f"unknown channel {name!r}")
            _finite(value, f"value for channel {name!r}")
        ops, present = present_channels(self.drift, [self.channels[name] for name in values],
                                        np.array(list(values.values()), dtype=float))
        H = self.drift.copy()
        for op, value in zip(ops, present):
            H = H + value * op
        return H


def build_hamiltonian(
    params: KerrCatParams,
    space: FockSpace,
    channel_values: Mapping[str, float] | None = None,
) -> np.ndarray:
    """Assemble H = (delta+Delta) n - (K/2) a^dag2 a^2 + eps2/2 (a^2+h.c.) + drives."""
    return HamiltonianAssembly.build(params, space).at(channel_values)


def hermiticity_defect(H: np.ndarray) -> float:
    """Relative Frobenius deviation from Hermiticity."""
    scale = np.linalg.norm(H)
    if scale == 0:
        return 0.0
    return np.linalg.norm(H - H.conj().T) / scale
