"""Closed-form cat-state quantities.

Cat vectors, the single-photon matrix elements h_x and h_y, the drive-phase
to rotation-axis mapping, and the computational-subspace projection of the
number operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, cos, exp, lgamma, sin, sqrt

import numpy as np

from .fock import FockSpace, InvalidInputError


class TruncationError(ValueError):
    """Fock truncation too small to hold the requested coherent amplitude."""


@dataclass(frozen=True)
class CatBasis:
    """Normalized even/odd cat vectors (|alpha> +/- |-alpha>) / N_pm."""

    plus_cat: np.ndarray
    minus_cat: np.ndarray


def _check_truncation(alpha2: float, space: FockSpace) -> None:
    """Raise TruncationError unless ``space`` holds a cat of size alpha^2.

    The rule: the Fock dimension must exceed alpha^2 + 8 sqrt(alpha^2 + 1).
    """
    if space.dim <= alpha2 + 8 * sqrt(alpha2 + 1):
        raise TruncationError(f"dim={space.dim} too small for alpha^2={alpha2:.3g}")


def coherent_vector(alpha: float, space: FockSpace) -> np.ndarray:
    """Fock expansion of |alpha>, exp(-a^2/2) alpha^n / sqrt(n!), for real alpha of either sign."""
    if alpha == 0:
        return np.eye(1, space.dim, dtype=complex)[0]  # the vacuum |0>
    n = np.arange(space.dim)
    log_factorial = np.array([lgamma(k + 1) for k in range(space.dim)])
    log_coeff = -0.5 * alpha**2 + n * np.log(abs(alpha)) - 0.5 * log_factorial
    return (np.sign(alpha) ** n * np.exp(log_coeff)).astype(complex)


def cat_vectors(alpha: float, space: FockSpace) -> CatBasis:
    """Even and odd cat states for coherent amplitude alpha >= 0.

    The alpha = 0 limit returns the Fock states |0> and |1> (the odd
    normalization N_- vanishes there, so the limit is taken explicitly).
    """
    if not alpha >= 0:  # NaN too
        raise InvalidInputError(f"alpha must be >= 0, got {alpha}")
    _check_truncation(alpha**2, space)
    if alpha == 0:
        plus, minus = np.eye(2, space.dim, dtype=complex)  # |0> and |1>
        return CatBasis(plus_cat=plus, minus_cat=minus)
    norm_plus = sqrt(2.0 * (1.0 + exp(-2.0 * alpha**2)))
    norm_minus = sqrt(2.0 * (1.0 - exp(-2.0 * alpha**2)))
    coh = coherent_vector(alpha, space)
    sign = (-1.0) ** np.arange(space.dim)
    plus = (coh + sign * coh) / norm_plus
    minus = (coh - sign * coh) / norm_minus
    # renormalize the truncation residue away (exact at adequate dim)
    plus = plus / np.linalg.norm(plus)
    minus = minus / np.linalg.norm(minus)
    return CatBasis(plus_cat=plus, minus_cat=minus)


def matrix_elements(alpha: float) -> tuple[float, float]:
    """Single-photon matrix elements (h_x, h_y) of the cat basis.

    h_x = 2 alpha / sqrt(1 - exp(-4 alpha^2)) and h_y = h_x exp(-2 alpha^2);
    the alpha -> 0 limit gives (1, 1), the bare-qubit values.
    """
    if not alpha >= 0:  # NaN too
        raise InvalidInputError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return 1.0, 1.0
    hx = 2.0 * alpha / sqrt(1.0 - exp(-4.0 * alpha**2))
    return hx, hx * exp(-2.0 * alpha**2)


@dataclass(frozen=True)
class DriveAxis:
    """Bloch rotation axis produced by a single-photon drive of phase phi_tilde."""

    phi_tilde: float
    phi: float
    h_phi: float


def axis_from_drive_phase(phi_tilde: float, alpha: float) -> DriveAxis:
    """Map drive phase phi_tilde to Bloch azimuthal angle phi and element h_phi.

    phi = arg(cos(phi_tilde) - i sin(phi_tilde) exp(-2 alpha^2)) and
    h_phi = h_x sqrt(cos^2 + sin^2 exp(-4 alpha^2)).
    """
    hx, _ = matrix_elements(alpha)
    damp = exp(-2.0 * alpha**2)
    phi = atan2(-sin(phi_tilde) * damp, cos(phi_tilde))
    h_phi = hx * sqrt(cos(phi_tilde) ** 2 + sin(phi_tilde) ** 2 * damp**2)
    return DriveAxis(phi_tilde=phi_tilde, phi=phi, h_phi=h_phi)


def drive_phase_for_axis(phi: float, alpha: float) -> float:
    """Inverse of :func:`axis_from_drive_phase`: drive phase for a target axis."""
    damp = exp(-2.0 * alpha**2)
    return atan2(-sin(phi), cos(phi) * damp) if damp > 0 else (0.0 if cos(phi) >= 0 else np.pi)


@dataclass(frozen=True)
class ProjectedNumberOperator:
    """Computational-subspace decomposition n ~ c_I * 1 + c_Z * Z.

    Exact coefficients from cat-state expectation values, alongside the
    large-cat asymptotics (alpha^2, -2 alpha^2 exp(-2 alpha^2)).
    """

    identity_coeff: float
    z_coeff: float
    asymptotic_identity: float
    asymptotic_z: float


def projected_number_operator(alpha: float) -> ProjectedNumberOperator:
    """Identity and Z coefficients of the number operator in the cat basis.

    Uses <n>_+ = alpha^2 tanh(alpha^2) and <n>_- = alpha^2 coth(alpha^2);
    the alpha = 0 limit gives <n>_+ = 0, <n>_- = 1, i.e. (1/2, -1/2).
    """
    a2 = alpha**2
    if not alpha >= 0:  # NaN too
        raise InvalidInputError(f"alpha must be >= 0, got {alpha}")
    if a2 == 0:
        n_plus, n_minus = 0.0, 1.0
    else:
        n_plus = a2 * np.tanh(a2)
        n_minus = a2 / np.tanh(a2)
    return ProjectedNumberOperator(
        identity_coeff=0.5 * (n_plus + n_minus),
        z_coeff=0.5 * (n_plus - n_minus),
        asymptotic_identity=a2,
        asymptotic_z=-2.0 * a2 * exp(-2.0 * a2),
    )
