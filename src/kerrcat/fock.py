"""Truncated Fock-space operators and the driven Kerr-oscillator Hamiltonian.

All energies are expressed in units of the Kerr nonlinearity K and all
times in units of 1/K, so a typical instance has ``kerr=1.0``.

The Hamiltonian is kept in drift + channels form,

    H(t) = H_drift + sum_c  v_c(t) * O_c,

so time propagation only recombines cached matrices with scalars. A table's
overflow is decided once, whole, by :func:`check_overflow`, before any H of it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np


class InvalidSpaceError(ValueError):
    """Fock truncation too small to be meaningful."""


class InvalidInputError(ValueError):
    """Non-finite or otherwise unusable numerical input."""


CHANNELS = ("delta", "eps2_mod", "eps_x", "eps_y")


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space of dimension ``dim``."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidSpaceError(f"Fock dimension must be >= 2, got {self.dim}")


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
    return np.diag(np.sqrt(np.arange(1, space.dim)), 1).astype(complex)


def create(space: FockSpace) -> np.ndarray:
    return destroy(space).conj().T


def number_operator(space: FockSpace) -> np.ndarray:
    return np.diag(np.arange(space.dim)).astype(complex)


def parity_operator(space: FockSpace) -> np.ndarray:
    """Photon-number parity Pi = diag((-1)^n)."""
    return np.diag((-1.0) ** np.arange(space.dim)).astype(complex)


def parity_blocks(dim: int) -> tuple[slice, slice]:
    """Slices of the even- and odd-parity Fock sectors."""
    return slice(0, dim, 2), slice(1, dim, 2)


def is_real(op: np.ndarray) -> bool:
    return not np.any(np.imag(op))


def keeps_parity(op: np.ndarray) -> bool:
    """True when ``op`` has no entries between even and odd Fock states."""
    return not (np.any(op[0::2, 1::2]) or np.any(op[1::2, 0::2]))


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


def check_overflow(drift, ops, values) -> None:
    """Refuse a table whose bound max|drift| + sum_j |v_j| max|O_j| on H's entries is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.abs(values) @ [np.abs(op).max() for op in ops] + np.abs(drift).max()
    if not np.isfinite(bound).all():
        raise InvalidInputError("Hamiltonian overflows: the bound on its entries is not finite")


def present_channels(drift, ops, values):
    """The operators that enter with some non-zero value, their value columns, and ``real``.

    ``values[..., j]`` holds the scalars that multiply ``ops[j]``; ``real`` is
    set when the drift and every present operator are real (see :func:`block_eigh`).
    The whole table passes :func:`check_overflow` first.
    """
    check_overflow(drift, ops, values)
    present = np.any(values, axis=tuple(range(values.ndim - 1)))
    ops = [op for op, p in zip(ops, present) if p]
    return ops, values[..., present], all(is_real(op) for op in (drift, *ops))


def block_hamiltonians(drift, ops, values, block, real) -> np.ndarray:
    """drift + sum_j values[..., j] ops[j] on the ``block`` x ``block`` slice, stacked.

    The stack runs over the leading axes of ``values``; with ``real`` set it is
    float64, each block's imaginary part dropped before it is copied. Without
    operators the drift block is broadcast over the stack (a read-only view).
    """
    mats = np.array([m[block, block].real if real else m[block, block] for m in (drift, *ops)])
    b = mats.shape[-1]
    if not ops:
        return np.broadcast_to(mats[0], (*values.shape[:-1], b, b))
    rows = int(np.prod(values.shape[:-1]))
    H = values.reshape(rows, len(ops)) @ mats[1:].reshape(len(ops), b * b)
    H += mats[0].reshape(-1)
    return H.reshape(*values.shape[:-1], b, b)


def block_eigh(drift, ops, values, block, real) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs (w, V) of the :func:`block_hamiltonians` stack, V real if ``real``.

    The library's one eigensolver call; a spectrum that is not finite raises InvalidInputError.
    """
    w, V = np.linalg.eigh(block_hamiltonians(drift, ops, values, block, real))
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
    ad = a.conj().T
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
        """Instantaneous Hamiltonian for the given channel scalars."""
        H = self.drift.copy()
        if channel_values:
            for name, value in channel_values.items():
                if name not in self.channels:
                    raise InvalidInputError(f"unknown channel {name!r}")
                if not np.isfinite(value):
                    raise InvalidInputError(f"non-finite value for channel {name!r}: {value}")
                if value != 0.0:
                    H = H + value * self.channels[name]
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
