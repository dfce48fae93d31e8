import json
import warnings

import numpy as np
import pytest

from kerrcat.cats import TruncationError
from kerrcat.fock import FockSpace, InvalidInputError, KerrCatParams
from kerrcat.optimize import (INFEASIBLE_SCORE, OptimizationRecord, ParamSpace,
                              grid_optimize, grid_search)
from kerrcat.pulses import AdiabaticityLossError, InvalidRampError, scheme_x, scheme_y_drag


def quad_objective(x, y):
    return (x - 0.3) ** 2 + (y + 0.4) ** 2


def test_param_space_validation():
    with pytest.raises(ValueError):
        ParamSpace(names=("a", "b"), lower=np.zeros(2), upper=np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        ParamSpace(names=("a",), lower=np.zeros(2), upper=np.ones(2))
    ps = ParamSpace.from_dict({"x": (0.0, 1.0), "y": (-1.0, 0.0)})
    assert ps.names == ("x", "y")
    assert ps.lower[1] == -1.0


def test_quadratic_minimum_found():
    ps = ParamSpace.from_dict({"x": (0.0, 1.0), "y": (-1.0, 0.0)})
    rec = grid_search(quad_objective, ps, coarse_n=11, refine_rounds=3)
    assert rec.best_params["x"] == pytest.approx(0.3, abs=2e-3)
    assert rec.best_params["y"] == pytest.approx(-0.4, abs=2e-3)
    assert rec.best_score < 1e-5


def test_refinement_monotone():
    ps = ParamSpace.from_dict({"x": (0.0, 1.0)})

    def f(x):
        return np.abs(x - 0.437)

    per_round = []
    for rounds in range(4):
        rec = grid_search(f, ps, coarse_n=9, refine_rounds=rounds)
        per_round.append(rec.best_score)
    assert all(b <= a + 1e-15 for a, b in zip(per_round, per_round[1:]))
    assert per_round[-1] < per_round[0]


@pytest.mark.parametrize("kwargs, name", [({"coarse_n": 0}, "coarse_n"),
                                          ({"refine_rounds": -1}, "refine_rounds")])
def test_empty_lattice_rejected(kwargs, name):
    calls = []
    ps = ParamSpace.from_dict({"x": (0.0, 1.0), "y": (-1.0, 0.0)})
    with pytest.raises(ValueError, match=name):
        grid_search(lambda **kw: calls.append(kw) or 0.0, ps, **kwargs)
    assert not calls


@pytest.mark.parametrize("bad_x", [0.0, 0.5])
def test_non_finite_score_raises(bad_x):
    # a NaN at the first lattice point became the incumbent; a later one was skipped
    ps = ParamSpace.from_dict({"x": (0.0, 1.0)})

    def objective(x):
        return np.nan if x == bad_x else (x - 0.7) ** 2

    with pytest.raises(InvalidInputError, match=f"'x': {bad_x}"):
        grid_search(objective, ps, coarse_n=5, refine_rounds=1)


def test_determinism():
    ps = ParamSpace.from_dict({"x": (0.0, 2.0), "y": (0.0, 2.0)})
    rec1 = grid_search(quad_objective, ps, coarse_n=7, refine_rounds=2)
    rec2 = grid_search(quad_objective, ps, coarse_n=7, refine_rounds=2)
    assert rec1.best_params == rec2.best_params
    assert rec1.best_score == rec2.best_score
    assert rec1.history == rec2.history


def test_tie_break_is_lexicographic():
    ps = ParamSpace.from_dict({"x": (0.0, 1.0)})

    def flat(x):
        return 1.0

    rec = grid_search(flat, ps, coarse_n=5, refine_rounds=0)
    assert rec.best_params["x"] == 0.0


def test_infeasible_points_never_win():
    ps = ParamSpace.from_dict({"x": (0.0, 1.0)})

    def partial(x):
        if x < 0.5:
            return INFEASIBLE_SCORE
        return (x - 0.7) ** 2

    rec = grid_search(partial, ps, coarse_n=11, refine_rounds=2)
    assert rec.best_params["x"] >= 0.5
    assert rec.best_params["x"] == pytest.approx(0.7, abs=5e-3)


def test_best_matches_reevaluation():
    ps = ParamSpace.from_dict({"x": (0.0, 1.0), "y": (-1.0, 0.0)})
    rec = grid_search(quad_objective, ps, coarse_n=9, refine_rounds=1)
    assert quad_objective(**rec.best_params) == rec.best_score
    assert rec.n_evaluations == len(rec.history) == 2 * 9 * 9


def test_record_json_roundtrip(tmp_path):
    ps = ParamSpace.from_dict({"x": (0.0, 1.0)})
    rec = grid_search(lambda x: x * x, ps, coarse_n=5, refine_rounds=0)
    path = tmp_path / "rec.json"
    rec.to_json(path)
    back = OptimizationRecord.from_json(path)
    assert back.best_params == rec.best_params
    assert back.best_score == rec.best_score
    assert back.history == rec.history


def test_grid_optimize_scores_lost_subspace_as_infeasible():
    # the eps_y0 = 10 corner loses the computational subspace on 5 samples
    p = KerrCatParams.from_alpha2(2.0)
    space = FockSpace(20)

    def build(eps_y0, eps2_ramp0):
        return scheme_y_drag(20.0, eps_y0, eps2_ramp0, p, space, drag_mode="exact",
                             n_samples=5)

    with pytest.raises(AdiabaticityLossError):
        build(10.0, -0.5)
    ps = ParamSpace.from_dict({"eps_y0": (1.0, 10.0), "eps2_ramp0": (-0.5, -0.5)})
    rec = grid_optimize(build, ps, space, coarse_n=2, refine_rounds=0, n_nodes=3, n_steps=20)
    scores = {h["eps_y0"]: h["score"] for h in rec.history}
    assert scores[10.0] == INFEASIBLE_SCORE
    assert scores[1.0] < INFEASIBLE_SCORE
    assert rec.best_params["eps_y0"] == 1.0


@pytest.mark.parametrize("infeasible", [InvalidRampError, TruncationError])
def test_grid_optimize_propagates_faults_other_than_infeasibility(infeasible):
    p = KerrCatParams.from_alpha2(2.0)
    space = FockSpace(12)
    ps = ParamSpace.from_dict({"eps_x0": (0.1, 0.2)})

    def faulty(eps_x0):
        raise ValueError("not an infeasible schedule")

    with pytest.raises(ValueError, match="not an infeasible schedule"):
        grid_optimize(faulty, ps, space, coarse_n=2, refine_rounds=0, n_nodes=3, n_steps=20)

    def partly_infeasible(eps_x0):
        if eps_x0 > 0.15:
            raise infeasible("no schedule here")
        return scheme_x(10.0, eps_x0, p, n_samples=21)

    rec = grid_optimize(partly_infeasible, ps, space, coarse_n=2, refine_rounds=0, n_nodes=3,
                        n_steps=20)
    scores = {h["eps_x0"]: h["score"] for h in rec.history}
    assert scores[0.2] == INFEASIBLE_SCORE
    assert scores[0.1] < INFEASIBLE_SCORE


@pytest.mark.parametrize("bounds", [(float("nan"), 1.0), (0.0, float("inf")),
                                    (-float("inf"), 1.0)])
def test_param_space_refuses_non_finite_bounds(bounds):
    # a NaN bound gave best_params {'x': nan}, and an infinite one warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="finite"):
            ParamSpace.from_dict({"x": bounds})


def test_record_json_lists_fields_in_order(tmp_path):
    rec = OptimizationRecord({"x": 0.25}, 1 / 3, 1, [{"x": 0.25, "score": 1 / 3}])
    path = tmp_path / "rec.json"
    rec.to_json(path)
    assert path.read_text() == json.dumps({"best_params": {"x": 0.25}, "best_score": 1 / 3,
                                           "n_evaluations": 1,
                                           "history": [{"x": 0.25, "score": 1 / 3}]}, indent=2)
