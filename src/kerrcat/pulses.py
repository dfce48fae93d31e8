"""Control-pulse schedules for Kerr-cat gates.

Builders for every scheme studied in this package: the native X rotation,
the Y rotation with cat-size ramp and DRAG correction, the two adiabatic
Z schemes (robust-line tracing and straight-line crossing), the unprotected
Kerr-gate baseline, and the two-qubit beamsplitter envelope.

All envelopes are built from the truncated Gaussian

    f(t) = [(exp(-(t/T - 1/2)^2 / 2) - exp(-1/8)) / (1 - exp(-1/8))]^2,

which vanishes with zero slope at both endpoints and peaks at f(T/2) = 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable

import numpy as np

from .cats import cat_vectors, matrix_elements
from .fock import (CHANNELS, FockSpace, HamiltonianAssembly, InvalidInputError, KerrCatParams,
                   stack_pieces)
from .spectral import NoRobustPointError, _gap_slopes, _parity_spectra

DEFAULT_SAMPLES = 2001


class SchemeInfeasibleError(RuntimeError):
    """The requested pulse parameters cannot produce a valid schedule."""


class InvalidRampError(ValueError):
    """Ramp drives the instantaneous cat size negative."""


class AdiabaticityLossError(RuntimeError):
    """The instantaneous computational subspace moved too far between samples."""


# --- envelopes -------------------------------------------------------------

_EDGE = np.exp(-1.0 / 8.0)


def _envelope_times(t, T: float) -> np.ndarray:
    """``t`` as a float array; raises ``ValueError`` outside the support [0, T]."""
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > T + 1e-12):
        raise ValueError("t outside [0, T]")
    return t


def truncated_gaussian(t, T: float):
    """Truncated Gaussian envelope with sigma = T and exponent 2 on [0, T]."""
    u = _envelope_times(t, T) / T - 0.5
    g = (np.exp(-0.5 * u**2) - _EDGE) / (1.0 - _EDGE)
    out = g**2
    return float(out) if out.ndim == 0 else out


def truncated_gaussian_deriv(t, T: float):
    """Analytic time derivative of :func:`truncated_gaussian`, on the same support."""
    u = _envelope_times(t, T) / T - 0.5
    g = (np.exp(-0.5 * u**2) - _EDGE) / (1.0 - _EDGE)
    gdot = -u / T * np.exp(-0.5 * u**2) / (1.0 - _EDGE)
    out = 2.0 * g * gdot
    return float(out) if out.ndim == 0 else out


# QUADPACK's 21-point Gauss-Kronrod rule dqk21 (Piessens et al., QUADPACK,
# Springer 1983): Kronrod nodes on [0, 1], largest first, and their weights;
# the odd 0-based entries of _XGK are the 10-point Gauss nodes
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077600025050340, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)


def envelope_integral(T: float) -> float:
    """Integral of the truncated Gaussian over its full duration.

    A ``T`` that is a bool, not a real number, non-finite or non-positive raises
    :class:`InvalidInputError`.
    """
    if isinstance(T, bool) or not isinstance(T, Real) or not 0.0 < T < np.inf:
        raise InvalidInputError(f"pulse duration must be finite and positive, got {T!r}")
    # scipy.integrate.quad's result bit for bit, without importing scipy: quad's
    # adaptive qags returns its first dqk21 panel when that panel's error estimate
    # passes, and since f(t) = F(t/T) the estimate relative to the result is the
    # same at every T, so one panel summed in QUADPACK's operation order is quad's
    # answer. The closed form in erf (tests/test_pulses.py) differs in the last
    # bits, and the benchmark's gate-search inputs hash seed_eps_x0.
    centr = hlgth = 0.5 * T
    resk = _WGK[10] * truncated_gaussian(centr, T)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        resk = resk + _WGK[j] * (truncated_gaussian(centr - absc, T)
                                 + truncated_gaussian(centr + absc, T))
    return resk * hlgth


def ramp_up(t, tau: float):
    """Rising half of a truncated Gaussian: 0 -> 1 over [0, tau]."""
    return truncated_gaussian(np.asarray(t, dtype=float), 2.0 * tau)


def ramp_down(t, tau: float):
    """Falling half of a truncated Gaussian: 1 -> 0 over [0, tau]."""
    return truncated_gaussian(np.asarray(t, dtype=float) + tau, 2.0 * tau)


# --- target gates ----------------------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rot_x(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * PAULI_X


def rot_y(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * PAULI_Y


def rot_z(theta: float) -> np.ndarray:
    return np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * PAULI_Z


# --- schedule container ----------------------------------------------------

@dataclass(frozen=True)
class PulseSchedule:
    """Time-sampled control channels plus target-gate metadata.

    ``channels`` maps channel names (delta, eps2_mod, eps_x, eps_y) to
    arrays on the uniform ``times`` grid. ``frame_rotation`` (optional) is a
    Fock-space unitary applied as R^dag U before projecting the gate; the
    Kerr gate uses it for the pi/2 phase-space rotation it induces.
    """

    times: np.ndarray
    channels: dict[str, np.ndarray]
    target: np.ndarray
    scheme: str
    base: KerrCatParams
    params: dict[str, float] = field(default_factory=dict)
    frame_rotation: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.times)
        for name, values in self.channels.items():
            if len(values) != n:
                raise ValueError(f"channel {name!r} length {len(values)} != grid {n}")

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def channel(self, name: str) -> np.ndarray:
        if name in self.channels:
            return self.channels[name]
        return np.zeros_like(self.times)

    def channel_at(self, name: str, t) -> np.ndarray:
        return np.interp(t, self.times, self.channel(name))

    def delta_of_t(self) -> np.ndarray:
        """Total detuning trajectory delta_base + delta(t)."""
        return self.base.delta + self.channel("delta")

    def alpha2_of_t(self) -> np.ndarray:
        """Instantaneous cat size (eps2_0 + eps2_mod(t)) / K."""
        return (self.base.eps2_0 + self.channel("eps2_mod")) / self.base.kerr

    def hamiltonian_table(self, space: FockSpace, t) -> tuple[np.ndarray, list, np.ndarray]:
        """(drift, ops, values) with H(t[k]) = drift + sum_j values[k, j] ops[j].

        One column per channel, ``delta`` first (zero when the schedule has
        none), then the schedule's other channels in their order. Raises
        :class:`InvalidInputError` when a time or a channel sample is not
        finite, or when ``times`` is not a grid of at least 2 samples that
        starts at 0 and strictly increases.
        """
        if not all(np.all(np.isfinite(v)) for v in (self.times, *self.channels.values())):
            raise InvalidInputError(f"{self.scheme} schedule has a non-finite time or sample")
        if len(self.times) < 2 or self.times[0] != 0 or np.any(np.diff(self.times) <= 0):
            raise InvalidInputError(f"{self.scheme} schedule times must start at 0 and strictly "
                                    f"increase over at least 2 samples")
        assembly = HamiltonianAssembly.build(self.base, space)
        names = ["delta", *(c for c in self.channels if c != "delta")]
        values = np.column_stack([self.channel_at(name, t) for name in names])
        return assembly.drift, [assembly.channels[name] for name in names], values

    def to_csv(self, path) -> None:
        names = [c for c in CHANNELS if c in self.channels]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", *names])
            for k, t in enumerate(self.times):
                writer.writerow([f"{t:.12g}", *(f"{self.channels[n][k]:.12g}" for n in names)])


def idle_schedule(T: float, params: KerrCatParams, n_samples: int = DEFAULT_SAMPLES) -> PulseSchedule:
    """All channels zero; evolution under the bare drift."""
    times = np.linspace(0.0, T, n_samples)
    return PulseSchedule(times=times, channels={}, target=np.eye(2, dtype=complex),
                         scheme="IDLE", base=params)


# --- X scheme ---------------------------------------------------------------

def seed_eps_x0(T: float, params: KerrCatParams, theta: float = np.pi / 2) -> float:
    """Analytic amplitude seed: theta = h_x * eps_x0 * integral(f)."""
    hx, _ = matrix_elements(params.alpha)
    return theta / (hx * envelope_integral(T))


def scheme_x(
    T: float,
    eps_x0: float,
    params: KerrCatParams,
    theta: float = np.pi / 2,
    n_samples: int = DEFAULT_SAMPLES,
) -> PulseSchedule:
    """Native X(theta) pulse: a single truncated-Gaussian eps_x drive."""
    if T <= 0:
        raise ValueError("T must be positive")
    times = np.linspace(0.0, T, n_samples)
    return PulseSchedule(
        times=times,
        channels={"eps_x": eps_x0 * truncated_gaussian(times, T)},
        target=rot_x(theta),
        scheme="X",
        base=params,
        params={"eps_x0": eps_x0, "theta": theta},
    )


# --- Y scheme with DRAG -----------------------------------------------------

def _instantaneous_cat_tables(alpha2_values: np.ndarray, params: KerrCatParams, space: FockSpace):
    """h_y couplings to the leakage states and their energies vs cat size.

    Returns interpolating arrays (alpha2_grid, h12, h03, e2, e3) where
    e2 = E(|2>) - E(|0>) and e3 = E(|3>) - E(|1>) (negative: the cat
    manifold sits at the top of the spectrum).
    """
    a2_lo, a2_hi = float(np.min(alpha2_values)), float(np.max(alpha2_values))
    grid = np.linspace(a2_lo, max(a2_hi, a2_lo + 1e-9), 80)
    assembly = HamiltonianAssembly.build(KerrCatParams(kerr=params.kerr), space)
    hy_op = 2.0 * assembly.channels["eps_y"]  # -i (a - a^dag)
    energies, states = _parity_spectra(assembly.drift, [assembly.channels["eps2_mod"]],
                                       (grid * params.kerr)[:, None])
    # columns 0, 1 are |0>, |1> and 2, 3 the next state down in each parity sector
    bras, kets = states[..., [2, 3]].conj(), states[..., [1, 0]]
    h12, h03 = np.abs(np.einsum("kin,ij,kjn->nk", bras, hy_op, kets))
    e2, e3 = (energies[:, 2:4] - energies[:, :2]).T
    return grid, h12, h03, e2, e3


def _drag_approx(times, eps_y_dot, alpha2_t, params, space):
    """First-order DRAG quadrature: proportional to the drive derivative."""
    grid, h12, h03, e2, e3 = _instantaneous_cat_tables(alpha2_t, params, space)
    h12_t = np.interp(alpha2_t, grid, h12)
    h03_t = np.interp(alpha2_t, grid, h03)
    e2_t = np.interp(alpha2_t, grid, e2)
    e3_t = np.interp(alpha2_t, grid, e3)
    alphas = np.sqrt(np.maximum(alpha2_t, 0.0))
    hx_t, hy_t = np.array([matrix_elements(a) for a in alphas]).T
    return (h12_t**2 / e2_t - h03_t**2 / e3_t) / (4.0 * hy_t * hx_t) * eps_y_dot


#: smallest accepted squared overlap between consecutive computational subspaces
MIN_SUBSPACE_OVERLAP = 0.81


def _drag_exact(times, eps2_mod, eps2_dot, eps_y, eps_y_dot, params, space):
    """Exact transition-cancelling quadrature from the instantaneous eigenpairs.

    The computational pair |0>, |1> of H_0 + eps2_mod H_2 + eps_y H_y is the
    top two eigenvectors (the cat manifold tops the spectrum), and
    eps_x = Re(i <1|dH/dt|0> / ((E_0 - E_1) <1|H_x|0>)) cancels the 0 <-> 1
    transition amplitude whatever the phases and order of the pair. The
    envelopes are symmetric about T/2 and their rates antisymmetric, so only
    the first ceil(n/2) samples are diagonalized and eps_x(T - t) = -eps_x(t).
    Raises AdiabaticityLossError if the smallest squared singular value of the
    pair's overlap with the previous sample's pair (span{C_+, C_-} at t = 0)
    falls below MIN_SUBSPACE_OVERLAP. The samples are diagonalized in the
    bounded pieces of :func:`~kerrcat.fock.stack_pieces` and only the top
    pair and its split are kept, so memory does not grow with the samples.
    """
    assembly = HamiltonianAssembly.build(params, space)
    h2, hy, hx = (assembly.channels[name] for name in ("eps2_mod", "eps_y", "eps_x"))
    m = (len(times) + 1) // 2
    d = space.dim
    pair = np.empty((m, d, 2), dtype=complex)
    split = np.empty(m)
    for piece in stack_pieces(m, (d, d), complex):
        H = assembly.drift + eps2_mod[piece, None, None] * h2 + eps_y[piece, None, None] * hy
        energies, states = np.linalg.eigh(H)
        pair[piece] = states[..., -2:]
        split[piece] = energies[:, -1] - energies[:, -2]

    cats = cat_vectors(params.alpha, space)
    spans = np.concatenate([np.column_stack([cats.plus_cat, cats.minus_cat])[None], pair])
    overlap = np.linalg.svd(spans[:-1].conj().transpose(0, 2, 1) @ spans[1:], compute_uv=False)
    lost = np.flatnonzero(overlap[:, -1] ** 2 < MIN_SUBSPACE_OVERLAP)
    if lost.size:
        k = lost[0]
        raise AdiabaticityLossError(f"computational subspace overlap {overlap[k, -1] ** 2:.3f} "
                                    f"< {MIN_SUBSPACE_OVERLAP} at t={times[k]:.3f}")

    m2, my, mx = np.einsum("ki,oij,kj->ok", pair[..., 0].conj(), np.stack([h2, hy, hx]),
                           pair[..., 1])
    num = eps2_dot[:m] * m2 + eps_y_dot[:m] * my
    # t = 0 (exactly degenerate pair, zero rates) and any middle sample stay zero
    k = np.arange(1, len(times) // 2)
    eps_x = np.zeros(len(times))
    eps_x[k] = -(num[k] / mx[k]).imag / split[k]
    eps_x[len(times) - 1 - k] = -eps_x[k]
    return eps_x


def scheme_y_drag(
    T: float,
    eps_y0: float,
    eps2_ramp0: float,
    params: KerrCatParams,
    space: FockSpace,
    drag_mode: str = "approx",
    theta: float = np.pi / 2,
    n_samples: int = DEFAULT_SAMPLES,
) -> PulseSchedule:
    """Y(theta) pulse: eps_y drive plus cat-size ramp plus DRAG eps_x term.

    ``drag_mode`` selects the exact transition-cancelling correction
    ("exact"), its derivative-proportional first-order form ("approx"),
    or disables the correction ("off").
    """
    if eps2_ramp0 > 0:
        raise InvalidRampError("eps2_ramp0 must be <= 0 (ramp lowers the cat size)")
    times = np.linspace(0.0, T, n_samples)
    f = truncated_gaussian(times, T)
    fdot = truncated_gaussian_deriv(times, T)
    eps_y = eps_y0 * f
    eps2_mod = eps2_ramp0 * f
    alpha2_t = (params.eps2_0 + eps2_mod) / params.kerr
    if np.any(alpha2_t < -1e-12):
        raise InvalidRampError("ramp drives the instantaneous cat size negative")

    if drag_mode == "off":
        eps_x = np.zeros_like(times)
    elif drag_mode == "approx":
        eps_x = _drag_approx(times, eps_y0 * fdot, alpha2_t, params, space)
    elif drag_mode == "exact":
        eps_x = _drag_exact(times, eps2_mod, eps2_ramp0 * fdot, eps_y, eps_y0 * fdot,
                            params, space)
    else:
        raise ValueError(f"unknown drag_mode {drag_mode!r}")

    return PulseSchedule(
        times=times,
        channels={"eps_y": eps_y, "eps2_mod": eps2_mod, "eps_x": eps_x},
        target=rot_y(theta),
        scheme="Y_DRAG",
        base=params,
        params={"eps_y0": eps_y0, "eps2_ramp0": eps2_ramp0, "theta": theta,
                "drag_mode": drag_mode},
    )


# --- Z schemes ---------------------------------------------------------------

def scheme_z_robustline(
    T: float,
    tau: float,
    eps2_ramp0: float,
    params: KerrCatParams,
    robust_line_fn: Callable[[np.ndarray], np.ndarray],
    theta: float = -np.pi / 2,
    n_samples: int = DEFAULT_SAMPLES,
) -> PulseSchedule:
    """Adiabatic Z gate tracing the first-order-insensitive detuning line.

    Segment 1 (length tau): detuning ramps 0 -> delta_rob(alpha_1^2).
    Middle (length T - 2 tau): the pump dips by a truncated Gaussian to
    ``eps2_ramp0`` while the detuning follows the robust line pointwise.
    Segment 3 mirrors segment 1. ``robust_line_fn`` maps instantaneous cat
    size to robust detuning (typically a :class:`RobustLineCache`).
    """
    if not 0 < tau < T / 2:
        raise SchemeInfeasibleError(f"need 0 < tau < T/2, got tau={tau}, T={T}")
    if eps2_ramp0 > 0:
        raise InvalidRampError("eps2_ramp0 must be <= 0")
    times = np.linspace(0.0, T, n_samples)
    mid_T = T - 2.0 * tau

    eps2_mod = np.zeros_like(times)
    mid = (times >= tau) & (times <= T - tau)
    eps2_mod[mid] = eps2_ramp0 * truncated_gaussian(times[mid] - tau, mid_T)
    alpha2_t = (params.eps2_0 + eps2_mod) / params.kerr

    try:
        delta_rob_start = float(np.asarray(robust_line_fn(params.alpha2)))
        delta = np.empty_like(times)
        head = times < tau
        tail = times > T - tau
        delta[head] = delta_rob_start * ramp_up(times[head], tau)
        delta[tail] = delta_rob_start * ramp_down(times[tail] - (T - tau), tau)
        delta[mid] = np.asarray(robust_line_fn(alpha2_t[mid]))
    except NoRobustPointError as exc:
        raise SchemeInfeasibleError(str(exc)) from exc

    return PulseSchedule(
        times=times,
        channels={"delta": delta, "eps2_mod": eps2_mod},
        target=rot_z(theta),
        scheme="Z_ROBUSTLINE",
        base=params,
        params={"tau": tau, "eps2_ramp0": eps2_ramp0, "theta": theta},
    )


def scheme_z_straight(
    T: float,
    delta_max: float,
    eps2_ramp0: float,
    params: KerrCatParams,
    theta: float = -np.pi / 2,
    n_samples: int = DEFAULT_SAMPLES,
) -> PulseSchedule:
    """Adiabatic Z gate on a straight (delta, alpha^2) trajectory.

    Both controls follow the same truncated Gaussian, so the trajectory
    moves on a straight line from (0, alpha^2) to (delta_max, alpha'^2)
    and back. First-order robustness to static shifts requires the
    time-averaged gap derivative to vanish, which the optimizer arranges
    by pushing the midpoint beyond the robust line.
    """
    if eps2_ramp0 > 0:
        raise InvalidRampError("eps2_ramp0 must be <= 0")
    if params.eps2_0 + eps2_ramp0 < -1e-12:
        raise InvalidRampError("ramp drives the cat size negative")
    times = np.linspace(0.0, T, n_samples)
    f = truncated_gaussian(times, T)
    return PulseSchedule(
        times=times,
        channels={"delta": delta_max * f, "eps2_mod": eps2_ramp0 * f},
        target=rot_z(theta),
        scheme="Z_STRAIGHT",
        base=params,
        params={"delta_max": delta_max, "eps2_ramp0": eps2_ramp0, "theta": theta},
    )


def scheme_kerr_gate(params: KerrCatParams, n_samples: int = DEFAULT_SAMPLES, *,
                     space: FockSpace) -> PulseSchedule:
    """Unprotected Kerr-gate baseline: pump quenched off for T = pi/K.

    Free Kerr evolution rotates the cat axis by pi/2 in phase space, so the
    gate is accompanied by the frame rotation R = diag((-i)^n) and implements
    a discrete Z rotation in the rotated cat basis; R acts on ``space``.
    """
    T = np.pi / params.kerr
    times = np.linspace(0.0, T, n_samples)
    return PulseSchedule(
        times=times,
        channels={"eps2_mod": np.full_like(times, -params.eps2_0)},
        target=rot_z(np.pi / 2),
        scheme="KERR_GATE",
        base=params,
        params={},
        frame_rotation=np.diag((-1j) ** np.arange(space.dim)),
    )


def kerr_gate_infidelity_estimate(params: KerrCatParams, delta_shift: float) -> float:
    """Reference error model of the Kerr gate, alpha^2 Delta^2 T^2."""
    T = np.pi / params.kerr
    return params.alpha2 * delta_shift**2 * T**2


# --- two-qubit envelope ------------------------------------------------------

def scheme_xx_envelope(T: float, g0: float, n_samples: int = DEFAULT_SAMPLES,
                       constant: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Beamsplitter coupling envelope g(t): truncated Gaussian or constant."""
    times = np.linspace(0.0, T, n_samples)
    values = np.full_like(times, g0) if constant else g0 * truncated_gaussian(times, T)
    return times, values


# --- adiabatic trajectory analysis -------------------------------------------

def gap_traces(
    schedule: PulseSchedule,
    space: FockSpace,
    n_samples: int = 401,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, E_01(t), dE_01/ddelta(t)) along a schedule trajectory.

    Raises :class:`~kerrcat.spectral.ParityLabelError` when a channel of the
    schedule couples the parity sectors (a single-photon drive), since the
    computational states then have no parity labels.
    """
    t = np.linspace(0.0, schedule.duration, n_samples)
    gap, deriv, _ = _gap_slopes(*schedule.hamiltonian_table(space, t))
    return t, gap, deriv


def predicted_angle(
    schedule: PulseSchedule,
    delta_shift: float,
    space: FockSpace,
    n_samples: int = 401,
) -> float:
    """First-order adiabatic gate angle -int E_01 dt - Delta int dE_01 dt."""
    t, gap, deriv = gap_traces(schedule, space, n_samples=n_samples)
    return float(-np.trapezoid(gap, t) - delta_shift * np.trapezoid(deriv, t))
