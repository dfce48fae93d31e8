"""Outside-in tracing of kerrcat's layers, installed from the benchmark's files.

:class:`Tracer` replaces, for the duration of a ``with`` block, every module
attribute that binds a public function of a kerrcat layer module (and
``numpy.linalg.eigh``) with a wrapper that records a span: name, start,
end and parent, plus counts read from the arguments or the return value.
A few methods that do a layer's work are wrapped on their class. On exit
every original binding is put back. Nothing inside ``src/kerrcat`` changes.

:func:`layer_metrics` turns the spans into the per-layer metrics. A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded at the Python level, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = ("fock", "spectral", "cats", "pulses", "propagation", "fidelity",
          "optimize", "noise", "twoqubit", "cli")

#: methods that do a layer's work, wrapped on their class
LAYER_METHODS = {
    "fock": (("HamiltonianAssembly", "build"), ("HamiltonianAssembly", "at")),
    "spectral": (("RobustLineCache", "__init__"),),
}

#: per-layer metric -> (unit, better, what it should move)
PER_LAYER = {
    "linalg.eigh_calls": ("count", "lower", "spectral_scan wall_s"),
    "linalg.eigh_matrices": ("count", "lower", "gate_search, noise_ensemble wall_s"),
    "linalg.eigh_matrices_per_call": ("count", "higher", "spectral_scan, noise_ensemble wall_s"),
    "linalg.eigh_s": ("s", "lower", "gate_search, noise_ensemble, twoqubit_full wall_s"),
    "linalg.eigh_dim_max": ("count", "lower", "twoqubit_full wall_s"),
    "linalg.eigh_d3_sum": ("count", "lower", "computed from shapes: sum of d^3 over matrices"),
    "fock.assembly_calls": ("count", "lower", "spectral_scan wall_s"),
    "fock.assembly_s": ("s", "lower", "spectral_scan wall_s"),
    "spectral.labeled_calls": ("count", "lower", "spectral_scan wall_s"),
    "spectral.labeled_self_s": ("s", "lower", "spectral_scan wall_s; not gate_search"),
    "spectral.robust_line_calls": ("count", "lower", "spectral_scan wall_s"),
    "spectral.robust_line_s": ("s", "lower", "spectral_scan wall_s; not gate_search"),
    "spectral.landscape_s": ("s", "lower", "spectral_scan wall_s; not gate_search"),
    "cats.calls": ("count", "lower", "stays near 0 everywhere"),
    "cats.self_s": ("s", "lower", "stays near 0 everywhere"),
    "pulses.schedules_built": ("count", "lower", "gate_search wall_s"),
    "pulses.build_self_s": ("s", "lower", "gate_search wall_s (exact DRAG)"),
    "pulses.gap_traces_calls": ("count", "lower", "noise_ensemble wall_s"),
    "pulses.gap_traces_self_s": ("s", "lower", "noise_ensemble wall_s"),
    "propagation.calls": ("count", "lower", "gate_search ops_per_s, noise_ensemble wall_s"),
    "propagation.propagators": ("count", "lower", "gate_search ops_per_s, noise_ensemble wall_s"),
    "propagation.steps": ("count", "lower", "gate_search ops_per_s, noise_ensemble wall_s"),
    "propagation.self_s": ("s", "lower", "gate_search ops_per_s, noise_ensemble wall_s; "
                                         "not spectral_scan"),
    "propagation.max_unitarity_defect": ("1", "lower", "health: must stay below 1e-8"),
    "fidelity.grids": ("count", "lower", "gate_search ops_per_s"),
    "fidelity.nodes": ("count", "lower", "gate_search ops_per_s"),
    "fidelity.computational_pair_calls": ("count", "lower", "gate_search ops_per_s"),
    "fidelity.self_s": ("s", "lower", "gate_search ops_per_s"),
    "optimize.evaluations": ("count", "lower", "gate_search wall_s, not ops_per_s"),
    "optimize.infeasible_frac": ("1", "lower", "gate_search wall_s"),
    "optimize.self_s": ("s", "lower", "gate_search wall_s"),
    "noise.traces_sampled": ("count", "lower", "noise_ensemble wall_s"),
    "noise.sample_s": ("s", "lower", "noise_ensemble wall_s"),
    "noise.filter_weight_s": ("s", "lower", "noise_ensemble wall_s"),
    "noise.mc_self_s": ("s", "lower", "noise_ensemble wall_s"),
    "twoqubit.propagations": ("count", "lower", "twoqubit_full wall_s"),
    "twoqubit.steps": ("count", "lower", "twoqubit_full wall_s"),
    "twoqubit.self_s": ("s", "lower", "twoqubit_full wall_s"),
    "cli.commands": ("count", "lower", "stays near 0 cost on spectral_scan, noise_ensemble"),
    "cli.self_s": ("s", "lower", "stays near 0 on spectral_scan, noise_ensemble"),
    "process.cpu_s": ("s", "lower", "thread oversubscription: CPU of the traced pass"),
    "process.cpu_per_wall": ("1", "lower", "thread oversubscription"),
    "process.blas_threads": ("count", "lower", "thread oversubscription"),
    "process.wall_1thread_s": ("s", "lower", "traced pass with OPENBLAS_NUM_THREADS=1"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall_s"),
}


@dataclass
class Span:
    name: str
    layer: str
    parent: int
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


def _eigh_counts(fn, args, kwargs, result):
    shape = np.shape(args[0] if args else kwargs["a"])
    return {"matrices": int(np.prod(shape[:-2], dtype=np.int64)), "dim": int(shape[-1])}


def _propagate_many_counts(fn, args, kwargs, results):
    return {"propagators": len(results), "steps": sum(r.step_count for r in results),
            "max_defect": max((r.unitarity_defect for r in results), default=0.0)}


def _noise_trace_counts(fn, args, kwargs, result):
    return {"propagators": 1, "steps": result.step_count, "max_defect": result.unitarity_defect}


def _grid_counts(fn, args, kwargs, grid):
    return {"nodes": len(grid.delta_nodes)}


def _search_counts(fn, args, kwargs, record):
    from kerrcat.optimize import INFEASIBLE_SCORE

    return {"evaluations": record.n_evaluations,
            "infeasible": sum(h["score"] >= INFEASIBLE_SCORE for h in record.history)}


def _sample_counts(fn, args, kwargs, traces):
    return {"traces": int(np.shape(traces)[0])}


def _two_mode_counts(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {"steps": int(bound.arguments["n_steps"])}


COUNT_HOOKS = {
    "linalg.eigh": _eigh_counts,
    "propagation.propagate_many": _propagate_many_counts,
    "propagation.propagate_noise_trace": _noise_trace_counts,
    "fidelity.average_infidelity": _grid_counts,
    "optimize.grid_search": _search_counts,
    "noise.sample_noise": _sample_counts,
    "twoqubit.full_two_mode_propagate": _two_mode_counts,
}


class Tracer:
    """Context manager that wraps the layers' public functions and records spans.

    ``extra_modules`` are further modules (the benchmark's own) whose
    attributes may bind a wrapped function and must be patched too. With
    ``only``, just the functions of those span names are wrapped.
    """

    def __init__(self, extra_modules=(), only=None):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._extra_modules = tuple(extra_modules)
        self._only = None if only is None else frozenset(only)

    def _wanted(self, full: str) -> bool:
        return self._only is None or full in self._only

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        full = f"{layer}.{name}"
        hook = COUNT_HOOKS.get(full)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(full, layer, stack[-1] if stack else -1, perf_counter())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                span.counts = hook(fn, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"kerrcat.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and self._wanted(f"{layer}.{name}")):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
            for cls_name, meth in LAYER_METHODS.get(layer, ()):
                if not self._wanted(f"{layer}.{cls_name}.{meth}"):
                    continue
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(layer, f"{cls_name}.{meth}", raw.__func__))
                else:
                    new = self._wrap(layer, f"{cls_name}.{meth}", raw)
                self._patch(cls, meth, new)
        eigh = np.linalg.eigh  # a dispatcher object, not a plain function
        if self._wanted("linalg.eigh"):
            wrappers[id(eigh)] = (eigh, self._wrap("linalg", "eigh", eigh))

        binders = [m for n, m in list(sys.modules.items())
                   if n == "kerrcat" or n.startswith("kerrcat.")]
        binders += [np.linalg, *self._extra_modules]
        for mod in binders:
            for attr, value in list(vars(mod).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patch(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def max_unitarity_defect(spans: list[Span]) -> float:
    """Largest unitarity defect of the PropagationResults the spans returned."""
    return max((s.counts.get("max_defect", 0.0) for s in spans), default=0.0)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics (all of :data:`PER_LAYER` except process.* and trace.*)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_time = [s.end - s.start - c for s, c in zip(spans, child)]

    def where(pred):
        return [i for i, s in enumerate(spans) if pred(s)]

    def named(name):
        return where(lambda s: s.name == name)

    def inclusive(name):
        """Time in ``name`` spans, counting nested calls of ``name`` once."""
        return sum(spans[i].end - spans[i].start for i in named(name)
                   if not _has_ancestor(spans, i, name))

    def self_of(idx):
        return sum(self_time[i] for i in idx)

    def total(idx, key):
        return sum(spans[i].counts.get(key, 0) for i in idx)

    eigh = named("linalg.eigh")
    prop_entries = where(lambda s: s.layer == "propagation"
                         and (s.parent < 0 or spans[s.parent].layer != "propagation"))
    builders = where(lambda s: s.layer == "pulses"
                     and (s.name.startswith("pulses.scheme_") or s.name == "pulses.idle_schedule"))
    kernels = named("propagation.propagate_many") + named("propagation.propagate_noise_trace")
    searches = named("optimize.grid_search")
    reported = total(searches, "evaluations")
    two_mode = named("twoqubit.full_two_mode_propagate")
    n_eigh_matrices = total(eigh, "matrices")
    eigh_counts = [spans[i].counts for i in eigh if spans[i].counts]  # calls that returned
    return {
        "linalg.eigh_calls": len(eigh),
        "linalg.eigh_matrices": n_eigh_matrices,
        "linalg.eigh_matrices_per_call": n_eigh_matrices / len(eigh) if eigh else 0.0,
        "linalg.eigh_s": sum(spans[i].end - spans[i].start for i in eigh),
        "linalg.eigh_dim_max": max((c["dim"] for c in eigh_counts), default=0),
        "linalg.eigh_d3_sum": sum(c["matrices"] * c["dim"] ** 3 for c in eigh_counts),
        "fock.assembly_calls": len(named("fock.HamiltonianAssembly.build")),
        "fock.assembly_s": (inclusive("fock.HamiltonianAssembly.build")
                            + inclusive("fock.HamiltonianAssembly.at")),
        "spectral.labeled_calls": len(named("spectral.diagonalize_labeled")),
        "spectral.labeled_self_s": self_of(named("spectral.diagonalize_labeled")),
        "spectral.robust_line_calls": len(named("spectral.robust_line")),
        "spectral.robust_line_s": inclusive("spectral.robust_line"),
        "spectral.landscape_s": inclusive("spectral.gap_landscape"),
        "cats.calls": len(where(lambda s: s.layer == "cats")),
        "cats.self_s": self_of(where(lambda s: s.layer == "cats")),
        "pulses.schedules_built": len(builders),
        "pulses.build_self_s": self_of(builders),
        "pulses.gap_traces_calls": len(named("pulses.gap_traces")),
        "pulses.gap_traces_self_s": self_of(named("pulses.gap_traces")),
        "propagation.calls": len(prop_entries),
        "propagation.propagators": total(kernels, "propagators"),
        "propagation.steps": total(kernels, "steps"),
        "propagation.self_s": self_of(where(lambda s: s.layer == "propagation")),
        "propagation.max_unitarity_defect": max_unitarity_defect(spans),
        "fidelity.grids": len(named("fidelity.average_infidelity")),
        "fidelity.nodes": total(named("fidelity.average_infidelity"), "nodes"),
        "fidelity.computational_pair_calls": len(named("fidelity.computational_pair")),
        "fidelity.self_s": self_of(where(lambda s: s.layer == "fidelity")),
        "optimize.evaluations": sum(_has_ancestor(spans, i, "optimize.grid_search")
                                    for i in builders),
        "optimize.infeasible_frac": total(searches, "infeasible") / reported if reported else 0.0,
        "optimize.self_s": self_of(where(lambda s: s.layer == "optimize")),
        "noise.traces_sampled": total(named("noise.sample_noise"), "traces"),
        "noise.sample_s": inclusive("noise.sample_noise"),
        "noise.filter_weight_s": inclusive("noise.filter_weight"),
        "noise.mc_self_s": self_of(named("noise.monte_carlo_infidelity")),
        "twoqubit.propagations": len(two_mode),
        "twoqubit.steps": total(two_mode, "steps"),
        "twoqubit.self_s": self_of(where(lambda s: s.layer == "twoqubit")),
        "cli.commands": len(where(lambda s: s.name.startswith("cli.cmd_"))),
        "cli.self_s": self_of(where(lambda s: s.layer == "cli")),
    }


def count_under(spans: list[Span], name: str, ancestor: str) -> int:
    """Number of ``name`` spans with an ``ancestor`` span above them."""
    return sum(s.name == name and _has_ancestor(spans, i, ancestor)
               for i, s in enumerate(spans))
