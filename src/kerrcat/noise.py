"""Frequency-noise machinery: realizations, filter weighting, spectral averages.

For an adiabatic schedule (every channel keeps photon-number parity, so the
computational states carry parity labels) the gate-angle error under a detuning
trajectory Delta(t) is, to first order,

    theta_err = -int_0^T Delta(t) dE01/ddelta(t) dt,

and for stationary Gaussian noise the average infidelity follows from the
power spectral density through the filter weight

    W(omega) = (1/4) |int_0^T exp(i omega t) dE01/ddelta(t) dt|^2,
    avg_infidelity = int domega/2pi S(omega) W(omega).

The filter weight, the spectral average and the angle error take one input,
the gap-slope trace (t, dE01/ddelta) of :func:`gap_traces` or a segment of
it. Monte-Carlo cross-checks feed sampled traces into the full propagator
and score them like the static-detuning grid of :mod:`fidelity`.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .fidelity import _pair_infidelities
from .fock import FockSpace, InvalidInputError, stack_pieces
from .pulses import PulseSchedule, gap_traces

NOISE_KINDS = ("static", "gaussian-quasistatic", "ornstein-uhlenbeck", "tabulated-psd")


class InvalidNoiseModelError(ValueError):
    pass


def _finite_reals(x, ndim: int) -> bool:
    """True when ``x`` is a finite real number (``ndim`` 0) or a 1-D list of them.

    A bool is not a number here, also inside a list, where numpy would turn
    ``[0, True]`` into an integer array.
    """
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nested list
        return False
    if a.ndim != ndim or a.dtype.kind not in "iuf":
        return False
    if ndim and any(isinstance(v, (bool, np.bool_)) for v in x):
        return False
    return bool(np.all(np.isfinite(a)))


class CoverageWarning(UserWarning):
    """Frequency grid may miss non-negligible spectral weight."""


@dataclass(frozen=True)
class NoiseModel:
    """Stationary detuning-noise model.

    kinds and parameters:
      static: {"value": Delta}                     deterministic offset
      gaussian-quasistatic: {"sigma": rms}          one Gaussian draw per trace
      ornstein-uhlenbeck: {"sigma": rms, "tau_c"}   exponential autocorrelation
      tabulated-psd: {"omegas": ..., "psd": ...}    spectral form only
    """

    kind: str
    parameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise InvalidNoiseModelError(f"unknown noise kind {self.kind!r}")
        for key, ndim in (("value", 0), ("sigma", 0), ("tau_c", 0), ("omegas", 1), ("psd", 1)):
            if key in self.parameters and not _finite_reals(self.parameters[key], ndim):
                shape = "a finite number" if ndim == 0 else "a list of finite numbers"
                raise InvalidNoiseModelError(f"{self.kind} noise needs {shape} for {key!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, Integral) or self.seed < 0:
            raise InvalidNoiseModelError(f"noise seed must be an integer >= 0, got {self.seed!r}")
        if self.kind == "static" and "value" not in self.parameters:
            raise InvalidNoiseModelError("static noise needs a 'value'")
        if self.kind in ("gaussian-quasistatic", "ornstein-uhlenbeck"):
            if "sigma" not in self.parameters:
                raise InvalidNoiseModelError(f"{self.kind} noise needs a 'sigma'")
            if self.parameters["sigma"] < 0:
                raise InvalidNoiseModelError(f"{self.kind} noise needs sigma >= 0")
        if self.kind == "ornstein-uhlenbeck":
            if self.parameters.get("tau_c", 0.0) <= 0:
                raise InvalidNoiseModelError("OU noise needs tau_c > 0")
        if self.kind == "tabulated-psd":
            psd = np.asarray(self.parameters.get("psd", []), dtype=float)
            if psd.size == 0 or np.any(psd < 0):
                raise InvalidNoiseModelError("tabulated PSD must be non-negative and non-empty")
            if np.shape(self.parameters.get("omegas", [])) != psd.shape:
                raise InvalidNoiseModelError("tabulated PSD needs 'omegas' as long as 'psd'")
            if np.any(np.diff(self.parameters["omegas"]) <= 0):
                raise InvalidNoiseModelError("tabulated PSD needs strictly increasing 'omegas'")

    def psd(self, omegas: np.ndarray) -> np.ndarray:
        """One-sided-symmetric S(omega); delta-peaked kinds raise."""
        omegas = np.asarray(omegas, dtype=float)
        if self.kind == "ornstein-uhlenbeck":
            sigma = self.parameters["sigma"]
            tau = self.parameters["tau_c"]
            return 2.0 * sigma**2 * tau / (1.0 + (omegas * tau) ** 2)
        if self.kind == "tabulated-psd":
            return np.interp(omegas, self.parameters["omegas"], self.parameters["psd"],
                             left=0.0, right=0.0)
        raise InvalidNoiseModelError(
            f"{self.kind} noise has a delta-peaked PSD; use spectral_average_infidelity"
        )

    def variance(self) -> float:
        if self.kind == "static":
            return float(self.parameters["value"]) ** 2
        if self.kind in ("gaussian-quasistatic", "ornstein-uhlenbeck"):
            return float(self.parameters["sigma"]) ** 2
        omegas = np.asarray(self.parameters["omegas"], dtype=float)
        psd = np.asarray(self.parameters["psd"], dtype=float)
        return float(np.trapezoid(psd, omegas) / (2.0 * np.pi))


def sample_noise(noise: NoiseModel, T: float, dt: float, n_traces: int = 1) -> np.ndarray:
    """Stationary Gaussian traces on the grid of step midpoints, shape (n_traces, n).

    OU traces use the exact discrete update of the stationary process, so the
    autocorrelation is exp(-|tau|/tau_c) at any step size. Each trace gets its
    own derived seed, from which its start and kicks are drawn, and the
    ensemble is reproducible given the model's seed; one loop over the steps
    updates all traces at once. A ``dt`` that is not finite and positive
    raises :class:`~kerrcat.fock.InvalidInputError`.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise InvalidInputError(f"dt must be finite and positive, got {dt}")
    n = int(round(T / dt))
    rng = np.random.default_rng(noise.seed)
    if noise.kind == "static":
        return np.full((n_traces, n), float(noise.parameters["value"]))
    if noise.kind == "gaussian-quasistatic":
        draws = rng.normal(0.0, noise.parameters["sigma"], size=n_traces)
        return np.repeat(draws[:, None], n, axis=1)
    if noise.kind == "ornstein-uhlenbeck":
        sigma = noise.parameters["sigma"]
        tau = noise.parameters["tau_c"]
        decay = np.exp(-dt / tau)
        kick = sigma * np.sqrt(1.0 - decay**2)
        x, xi = np.empty(n_traces), np.empty((n_traces, n))
        for i, seed in enumerate(rng.integers(0, 2**63 - 1, size=n_traces)):
            r = np.random.default_rng(int(seed))
            x[i] = r.normal(0.0, sigma)
            xi[i] = r.normal(size=n)
        traces = np.empty((n_traces, n))
        for k in range(n):
            traces[:, k] = x
            x = x * decay + kick * xi[:, k]
        return traces
    raise InvalidNoiseModelError("tabulated-psd noise is not realizable as a sampled trace here")


def first_order_coefficient(
    schedule: PulseSchedule,
    space: FockSpace,
    n_samples: int = 201,
) -> float:
    """Time-averaged gap derivative int dE01/ddelta dt of an adiabatic schedule.

    A static detuning shift Delta changes the gate angle by -Delta times
    this coefficient to first order; robust schedules drive it to zero.
    """
    t, _, deriv = gap_traces(schedule, space, n_samples=n_samples)
    return float(np.trapezoid(deriv, t))


def angle_error_functional(
    t: np.ndarray,
    deriv: np.ndarray,
    delta_trace: np.ndarray,
) -> float:
    """First-order gate-angle error -int Delta(t) dE01/ddelta(t) dt.

    ``(t, deriv)`` is a gap-slope trace (from :func:`gap_traces`, or a
    segment of one) and ``delta_trace`` is sampled uniformly over its span
    [t[0], t[-1]].
    """
    delta_trace = np.asarray(delta_trace, dtype=float)
    t_delta = np.linspace(t[0], t[-1], len(delta_trace))
    integrand = delta_trace * np.interp(t_delta, t, deriv)
    return float(-np.trapezoid(integrand, t_delta))


@dataclass(frozen=True)
class FilterFunction:
    omegas: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        if np.any(self.W < -1e-15):
            raise ValueError("filter weight must be non-negative")

    def at_zero(self) -> float:
        """W(0); the grid must contain omega = 0 exactly."""
        zero = np.flatnonzero(self.omegas == 0.0)
        if zero.size == 0:
            raise ValueError("W(0) needs omega = 0 on the frequency grid")
        return float(self.W[zero[0]])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "W"])
            for o, w in zip(self.omegas, self.W):
                writer.writerow([f"{o:.12g}", f"{w:.12g}"])

    def spectral_infidelity(self, noise: NoiseModel) -> float:
        """PSD-convolution estimate int domega/2pi S(omega) W(omega) on this grid.

        Delta-peaked kinds (static, quasistatic) reduce to variance times W(0).
        W is even, so the integral runs over omega >= 0 with weight 1/pi.
        """
        if noise.kind in ("static", "gaussian-quasistatic"):
            return noise.variance() * self.at_zero()
        S = noise.psd(self.omegas)
        order = np.argsort(self.omegas)
        om, integrand = self.omegas[order], (S * self.W)[order]
        total = np.trapezoid(integrand, om) / np.pi
        # crude coverage check: the top decade of the grid should carry < 1% of the mass
        if total > 0:
            tail = om >= om[-1] / 10.0
            tail_mass = np.trapezoid(integrand[tail], om[tail]) / np.pi
            if tail_mass > 0.01 * total:
                warnings.warn("frequency grid may truncate spectral weight", CoverageWarning)
        return float(total)


def filter_weight(t: np.ndarray, deriv: np.ndarray, omegas: np.ndarray) -> FilterFunction:
    """W(omega) = |Fourier transform of the gap-slope trace (t, deriv)|^2 / 4.

    The (omega x t) phase table is taken in the bounded row pieces of
    :func:`~kerrcat.fock.stack_pieces`, so memory does not grow with the grid
    size times the trace length; each row's quadrature is the same in any piece.
    """
    omegas = np.asarray(omegas, dtype=float)
    W = np.empty(omegas.shape)
    for piece in stack_pieces(len(omegas), len(t), complex):
        phases = np.exp(1j * omegas[piece, None] * t[None, :])
        g = np.trapezoid(phases * deriv[None, :], t, axis=1)
        W[piece] = np.abs(g) ** 2 / 4.0
    return FilterFunction(omegas=omegas, W=W)


def default_frequency_grid(T: float, n_points: int = 513) -> np.ndarray:
    """omega = 0 plus log-spaced points over [1e-3/T, 1e3/T]."""
    grid = np.logspace(np.log10(1e-3 / T), np.log10(1e3 / T), n_points - 1)
    return np.concatenate(([0.0], grid))


def spectral_average_infidelity(
    t: np.ndarray,
    deriv: np.ndarray,
    noise: NoiseModel,
    omegas: np.ndarray | None = None,
) -> float:
    """PSD-convolution estimate int domega/2pi S(omega) W(omega).

    The :func:`filter_weight` of the slope trace on ``omegas`` (default
    :func:`default_frequency_grid` of the trace's span), then
    :meth:`FilterFunction.spectral_infidelity`.
    """
    if omegas is None:
        omegas = default_frequency_grid(t[-1] - t[0])
    return filter_weight(t, deriv, omegas).spectral_infidelity(noise)


def monte_carlo_infidelity(
    schedule: PulseSchedule,
    noise: NoiseModel,
    space: FockSpace,
    n_traces: int = 100,
    n_steps: int = 1000,
) -> float:
    """Ensemble-average infidelity from full propagation with sampled traces.

    All traces are propagated in one :func:`propagate_many` call. ``n_traces``
    or ``n_steps`` below 1 raises :class:`~kerrcat.fock.InvalidInputError`.
    """
    for name, value in (("n_traces", n_traces), ("n_steps", n_steps)):
        if value < 1:
            raise InvalidInputError(f"{name} must be >= 1, got {value}")
    dt = schedule.duration / n_steps
    traces = sample_noise(noise, schedule.duration, dt, n_traces=n_traces)
    return sum(_pair_infidelities(schedule, space, traces, n_steps)) / n_traces
