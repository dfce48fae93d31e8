"""Frequency-noise machinery: realizations, filter weighting, spectral averages.

For an adiabatic schedule (every channel keeps photon-number parity, so the
computational states carry parity labels) the gate-angle error under a detuning
trajectory Delta(t) is, to first order,

    theta_err = -int_0^T Delta(t) dE01/ddelta(t) dt,

and for stationary Gaussian noise the average infidelity follows from the
power spectral density through the filter weight

    W(omega) = (1/4) |int_0^T exp(i omega t) dE01/ddelta(t) dt|^2,
    avg_infidelity = int domega/2pi S(omega) W(omega).

Monte-Carlo cross-checks feed sampled traces into the full propagator.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fock import FockSpace
from .pulses import PulseSchedule, gap_traces

NOISE_KINDS = ("static", "gaussian-quasistatic", "ornstein-uhlenbeck", "tabulated-psd")


class InvalidNoiseModelError(ValueError):
    pass


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
        if self.kind == "ornstein-uhlenbeck":
            if self.parameters.get("tau_c", 0.0) <= 0:
                raise InvalidNoiseModelError("OU noise needs tau_c > 0")
        if self.kind == "tabulated-psd":
            psd = np.asarray(self.parameters.get("psd", []), dtype=float)
            if psd.size == 0 or np.any(psd < 0):
                raise InvalidNoiseModelError("tabulated PSD must be non-negative and non-empty")

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
    own derived seed and the ensemble is reproducible given the model's seed.
    """
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
        traces = np.empty((n_traces, n))
        seeds = rng.integers(0, 2**63 - 1, size=n_traces)
        for i in range(n_traces):
            r = np.random.default_rng(int(seeds[i]))
            x = r.normal(0.0, sigma)
            xi = r.normal(size=n)
            tr = np.empty(n)
            for k in range(n):
                tr[k] = x
                x = x * decay + kick * xi[k]
            traces[i] = tr
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


def _slope_trace(schedule, space, deriv_trace):
    """``deriv_trace`` = (t, dE01/ddelta) when given, else the gap traces in ``space``."""
    if deriv_trace is not None:
        return deriv_trace
    if space is None:
        raise ValueError("the gap-slope trace needs space or a precomputed deriv_trace")
    t, _, deriv = gap_traces(schedule, space)
    return t, deriv


def angle_error_functional(
    schedule: PulseSchedule,
    delta_trace: np.ndarray,
    space: FockSpace | None,
    deriv_trace: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """First-order gate-angle error -int Delta(t) dE01/ddelta(t) dt.

    ``delta_trace`` is sampled uniformly over the schedule duration. Pass a
    precomputed ``deriv_trace`` (from :func:`gap_traces`) to amortize the
    spectral work across many realizations.
    """
    delta_trace = np.asarray(delta_trace, dtype=float)
    t_ref, deriv = _slope_trace(schedule, space, deriv_trace)
    t = np.linspace(0.0, schedule.duration, len(delta_trace))
    integrand = delta_trace * np.interp(t, t_ref, deriv)
    return float(-np.trapezoid(integrand, t))


@dataclass(frozen=True)
class FilterFunction:
    omegas: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        if np.any(self.W < -1e-15):
            raise ValueError("filter weight must be non-negative")

    def at_zero(self) -> float:
        k = int(np.argmin(np.abs(self.omegas)))
        return float(self.W[k])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "W"])
            for o, w in zip(self.omegas, self.W):
                writer.writerow([f"{o:.12g}", f"{w:.12g}"])


def filter_weight(
    schedule: PulseSchedule,
    omegas: np.ndarray,
    space: FockSpace | None,
    deriv_trace: tuple[np.ndarray, np.ndarray] | None = None,
) -> FilterFunction:
    """W(omega) = |Fourier transform of the gap-derivative trajectory|^2 / 4.

    The trajectory is ``deriv_trace`` = (t, dE01/ddelta) when given, else the
    :func:`gap_traces` of ``schedule`` in ``space``.
    """
    omegas = np.asarray(omegas, dtype=float)
    t, deriv = _slope_trace(schedule, space, deriv_trace)
    phases = np.exp(1j * omegas[:, None] * t[None, :])
    g = np.trapezoid(phases * deriv[None, :], t, axis=1)
    return FilterFunction(omegas=omegas, W=np.abs(g) ** 2 / 4.0)


def default_frequency_grid(T: float, n_points: int = 513) -> np.ndarray:
    """omega = 0 plus log-spaced points over [1e-3/T, 1e3/T]."""
    grid = np.logspace(np.log10(1e-3 / T), np.log10(1e3 / T), n_points - 1)
    return np.concatenate(([0.0], grid))


def spectral_average_infidelity(
    schedule: PulseSchedule,
    noise: NoiseModel,
    omegas: np.ndarray | None = None,
    space: FockSpace | None = None,
    deriv_trace: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """PSD-convolution estimate int domega/2pi S(omega) W(omega).

    Delta-peaked kinds (static, quasistatic) reduce to variance times W(0).
    W is even, so the integral runs over omega >= 0 with weight 1/pi.
    """
    if omegas is None:
        omegas = default_frequency_grid(schedule.duration)
    omegas = np.asarray(omegas, dtype=float)
    ff = filter_weight(schedule, omegas, space, deriv_trace=deriv_trace)
    if noise.kind in ("static", "gaussian-quasistatic"):
        return noise.variance() * ff.at_zero()
    S = noise.psd(omegas)
    order = np.argsort(omegas)
    om, integrand = omegas[order], (S * ff.W)[order]
    total = np.trapezoid(integrand, om) / np.pi
    # crude coverage check: the top decade of the grid should carry < 1% of the mass
    if total > 0:
        tail = om >= om[-1] / 10.0
        tail_mass = np.trapezoid(integrand[tail], om[tail]) / np.pi
        if tail_mass > 0.01 * total:
            warnings.warn("frequency grid may truncate spectral weight", CoverageWarning)
    return float(total)


def monte_carlo_infidelity(
    schedule: PulseSchedule,
    noise: NoiseModel,
    space: FockSpace,
    n_traces: int = 100,
    n_steps: int = 1000,
) -> float:
    """Ensemble-average infidelity from full propagation with sampled traces."""
    from .fidelity import computational_pair, infidelity
    from .propagation import propagate_noise_trace

    dt = schedule.duration / n_steps
    traces = sample_noise(noise, schedule.duration, dt, n_traces=n_traces)
    psi0, psi1 = computational_pair(schedule.base, space)
    total = 0.0
    for tr in traces:
        res = propagate_noise_trace(schedule, space, tr, n_steps=n_steps)
        total += infidelity(res.unitary, schedule.target, psi0, psi1, schedule.frame_rotation)
    return total / n_traces
