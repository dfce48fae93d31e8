"""Deterministic grid search over pulse parameters.

A coarse rectangular scan followed by fixed-factor box shrinking around the
incumbent. No stochastic moves: rerunning with the same inputs gives the
same record. Points whose schedule builder reports an infeasible schedule
are scored with infidelity 1 so that infeasible corners of the box (for
example ramps that would drive the cat size negative) never win.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cats import TruncationError
from .fock import FockSpace, InvalidInputError
from .fidelity import average_infidelity, computational_pair
from .noise import first_order_coefficient
from .propagation import propagate
from .pulses import (AdiabaticityLossError, InvalidRampError, PulseSchedule,
                     SchemeInfeasibleError, _count, scheme_z_straight)

INFEASIBLE_SCORE = 1.0
#: each refinement round's box is this many times smaller than the last
SHRINK = 5.0
#: calibrate_z_straight's detuning bracket, samples, steps and root tolerance
Z_DELTA_BRACKET = (0.05, 1.0)
Z_SAMPLES = 801
Z_STEPS = 250
Z_XTOL = 1e-10


@dataclass(frozen=True)
class ParamSpace:
    """Axis names with inclusive bounds for the grid search."""

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        if not (len(self.names) == len(self.lower) == len(self.upper)):
            raise ValueError("names, lower, upper must have equal length")
        if np.any(np.asarray(self.upper) < np.asarray(self.lower)):
            raise ValueError("upper bound below lower bound")

    @classmethod
    def from_dict(cls, bounds: dict[str, tuple[float, float]]) -> "ParamSpace":
        names = tuple(bounds)
        lo = np.array([bounds[n][0] for n in names], dtype=float)
        hi = np.array([bounds[n][1] for n in names], dtype=float)
        return cls(names=names, lower=lo, upper=hi)


@dataclass
class OptimizationRecord:
    """Best point found plus full evaluation history."""

    best_params: dict[str, float]
    best_score: float
    n_evaluations: int
    history: list[dict] = field(default_factory=list)

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "best_params": self.best_params,
                "best_score": self.best_score,
                "n_evaluations": self.n_evaluations,
                "history": self.history,
            }, fh, indent=2)

    @classmethod
    def from_json(cls, path) -> "OptimizationRecord":
        with open(path) as fh:
            data = json.load(fh)
        return cls(**data)


def grid_search(
    evaluate: Callable[..., float],
    space: ParamSpace,
    coarse_n: int = 21,
    refine_rounds: int = 2,
) -> OptimizationRecord:
    """Coarse-to-fine lattice minimization of a scalar objective.

    ``evaluate`` maps keyword arguments named after ``space.names`` to the
    score. Ties break toward the earlier lattice point (lexicographic
    parameter order), so identical inputs give identical records. Each
    refinement round re-centers a box ``SHRINK`` times smaller on the
    incumbent, clipped to the original bounds. A ``coarse_n`` that is not
    an integer >= 1, a ``refine_rounds`` that is not one >= 0 (an empty
    lattice) and a score that is not finite raise InvalidInputError.
    """
    _count(coarse_n, 1, "coarse_n")
    _count(refine_rounds, 0, "refine_rounds")
    lo0 = np.asarray(space.lower, dtype=float)
    hi0 = np.asarray(space.upper, dtype=float)
    lo, hi = lo0.copy(), hi0.copy()
    best = None
    history: list[dict] = []

    for round_idx in range(refine_rounds + 1):
        axes = [np.linspace(lo[i], hi[i], coarse_n) for i in range(len(space.names))]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.column_stack([m.ravel() for m in mesh])
        for pt in points:
            kwargs = dict(zip(space.names, (float(v) for v in pt)))
            score = evaluate(**kwargs)
            if not np.isfinite(score):
                raise InvalidInputError(f"non-finite score {score} at {kwargs}")
            history.append({"round": round_idx, **kwargs, "score": score})
            if best is None or score < best[1]:
                best = (kwargs, score)
        center = np.array([best[0][n] for n in space.names])
        span = (hi - lo) / SHRINK
        lo = np.clip(center - span / 2, lo0, hi0)
        hi = np.clip(center + span / 2, lo0, hi0)

    return OptimizationRecord(
        best_params=best[0],
        best_score=best[1],
        n_evaluations=len(history),
        history=history,
    )


def calibrate_z_straight(
    T: float,
    params,
    fock_space: FockSpace,
    ramp_bracket: tuple[float, float],
) -> tuple[float, float]:
    """Solve the two calibration conditions of the straight-line Z scheme.

    The scheme has two free parameters and two targets: the accumulated
    relative phase must equal the gate angle, and the time-averaged gap
    derivative must vanish (first-order robustness to static shifts). For
    each ramp depth, the inner root-find picks the detuning amplitude that
    zeroes the averaged derivative; the outer root-find then moves the ramp
    depth until the propagated phase hits the target. Returns
    (delta_max, eps2_ramp0). Raises SchemeInfeasibleError if either bracket
    (``ramp_bracket`` or ``Z_DELTA_BRACKET``) fails to straddle a root.
    """
    from scipy.optimize import brentq  # kept local: scipy.optimize is heavy to import

    psi0, psi1 = computational_pair(params, fock_space)
    target_phase = np.pi / 2.0  # relative phase of Z(-pi/2)

    def delta_for(ramp: float) -> float:
        def c1(dmax):
            s = scheme_z_straight(T, dmax, ramp, params, n_samples=Z_SAMPLES)
            return first_order_coefficient(s, fock_space)
        lo, hi = Z_DELTA_BRACKET
        if c1(lo) * c1(hi) > 0:
            raise SchemeInfeasibleError(
                "averaged gap derivative does not change sign over the detuning bracket"
            )
        return brentq(c1, lo, hi, xtol=Z_XTOL)

    def phase_err(ramp: float) -> float:
        s = scheme_z_straight(T, delta_for(ramp), ramp, params, n_samples=Z_SAMPLES)
        U = propagate(s, fock_space, n_steps=Z_STEPS).unitary
        phi = np.angle(np.vdot(psi0, U @ psi0) * np.conj(np.vdot(psi1, U @ psi1)))
        return float(np.angle(np.exp(1j * (phi - target_phase))))

    r_lo, r_hi = ramp_bracket
    if phase_err(r_lo) * phase_err(r_hi) > 0:
        raise SchemeInfeasibleError(
            "accumulated phase does not cross the target over the ramp bracket"
        )
    ramp = brentq(phase_err, r_lo, r_hi, xtol=Z_XTOL)
    return delta_for(ramp), ramp


def grid_optimize(
    builder: Callable[..., PulseSchedule],
    space: ParamSpace,
    fock_space: FockSpace,
    coarse_n: int = 21,
    refine_rounds: int = 2,
    delta_max: float = 5e-3,
    n_nodes: int = 11,
    n_steps: int = 500,
) -> OptimizationRecord:
    """Minimize detuning-averaged infidelity over a parameter box.

    ``builder`` maps keyword arguments named after ``space.names`` to a
    :class:`PulseSchedule`. Infeasible builder arguments score 1: the builder
    raises SchemeInfeasibleError, InvalidRampError, AdiabaticityLossError or
    TruncationError (a cat the Fock space cannot hold). Any other error propagates.
    """

    def evaluate(**kwargs):
        try:
            sched = builder(**kwargs)
            grid = average_infidelity(sched, fock_space, delta_max=delta_max,
                                      n_nodes=n_nodes, n_steps=n_steps)
        except (SchemeInfeasibleError, InvalidRampError, AdiabaticityLossError,
                TruncationError):
            return INFEASIBLE_SCORE
        return grid.average

    return grid_search(evaluate, space, coarse_n=coarse_n, refine_rounds=refine_rounds)
