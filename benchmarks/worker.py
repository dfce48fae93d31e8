"""One fresh benchmark process: set up a workload, then run and check passes.

``run.py`` starts this script once per role. Every role sets up (imports,
input generation from the seed, one warm-up call) and reports the time
that took:

* ``--seconds 0``: set up only (a set-up sample);
* ``--seconds S``: start the reference-kernel child
  (``reference_kernels.py``) before setting up, then run untraced passes
  for about S seconds, each followed by kernel sets for KERNEL_SHARE of its
  time;
* ``--traced``: then run one traced pass.

Every pass is checked; untraced passes also check the unitarity defect of
every propagator the propagation layer returns. The last line of standard
output is one JSON object.
"""

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_FILE = BENCH_DIR / "reference.json"
#: reference-kernel time after each pass, as a share of the pass's wall time: the
#: pass and the kernels then average the machine's fast fluctuations about equally
KERNEL_SHARE = 0.4
#: functions whose returned PropagationResults every pass checks for unitarity
DEFECT_SOURCES = ("propagation.propagate_many", "propagation.propagate_noise_trace")


def blas_threads() -> int | None:
    """OpenBLAS thread count, asked from the library numpy loaded (Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class ReferenceKernels:
    """Client of the reference-kernel child; ``measure()`` times one kernel set."""

    def __init__(self, env: dict[str, str]):
        self._proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "reference_kernels.py")],
                                      env=env, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference-kernel process did not start")

    def measure(self) -> float:
        self._proc.stdin.write("set\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "ReferenceKernels":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def env_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": blas_threads()}


def check(wl, inputs: dict, outcome, reference: dict | None) -> dict[str, str]:
    """Failed groups of one pass, each with the first reason found."""
    from workloads import REFERENCE_RTOL, inputs_sha

    failed = dict(outcome.failures)
    for group, ok, message in wl.invariants(inputs, outcome):
        if not ok:
            failed.setdefault(group, message)
    if reference is None:
        return failed
    if reference["inputs_sha"] != inputs_sha(inputs):
        return {g: "inputs differ from those the reference was recorded for"
                for g in outcome.units}
    default_group = next(iter(outcome.units))
    for key in sorted(set(reference["values"]) | set(outcome.values)):
        prefix = key.split(".", 1)[0]
        group = prefix if prefix in outcome.units else default_group
        if group in failed:
            continue
        ref, got = reference["values"].get(key), outcome.values.get(key)
        if ref is None or got is None or not math.isclose(got, ref, rel_tol=REFERENCE_RTOL):
            failed[group] = f"{key} = {got!r}, reference {ref!r}"
    return failed


def timed_pass(wl, inputs: dict, work: Path, reference: dict | None,
               probe_defects: bool = True) -> tuple[dict, object]:
    """Run and check one pass.

    With ``probe_defects``, the propagation layer's returns are watched for
    their unitarity defect (a traced pass gets it from its spans instead).
    """
    import workloads
    from tracer import Tracer, max_unitarity_defect
    from workloads import UNITARITY_TOL

    probe = Tracer(extra_modules=[workloads], only=DEFECT_SOURCES if probe_defects else ())
    t0, c0 = time.perf_counter(), time.process_time()
    with probe:
        outcome = wl.run_pass(inputs, work)
    failed = check(wl, inputs, outcome, reference)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    defect = max_unitarity_defect(probe.spans)
    if defect >= UNITARITY_TOL:
        failed = {g: f"unitarity defect {defect:.3g} >= {UNITARITY_TOL}" for g in outcome.units}
    record = {"wall_s": wall, "cpu_s": cpu, "units": sum(outcome.units.values()),
              "failed_units": sum(outcome.units[g] for g in failed),
              "failures": failed, "values": outcome.values}
    return record, outcome


def traced_pass(wl, inputs: dict, work: Path, reference: dict | None) -> tuple[dict, list]:
    import workloads
    from tracer import Tracer, layer_metrics
    from workloads import UNITARITY_TOL

    with Tracer(extra_modules=[workloads]) as tracer:
        record, outcome = timed_pass(wl, inputs, work, reference, probe_defects=False)
    metrics = layer_metrics(tracer.spans)
    # a pass that already failed has no complete outputs to cross-check against
    mismatches = [] if outcome.failures else [
        f"{name}: traced {traced}, expected {expected}"
        for name, traced, expected in wl.cross_checks(inputs, outcome, metrics, tracer.spans)
        if traced != expected]
    defect = metrics["propagation.max_unitarity_defect"]
    if defect >= UNITARITY_TOL:
        mismatches.append(f"propagation.max_unitarity_defect {defect:.3g} >= {UNITARITY_TOL}")
    if mismatches:
        record["failures"]["trace"] = "; ".join(mismatches)
        record["failed_units"] = record["units"]
    record["metrics"] = metrics
    return record, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--no-reference", action="store_true",
                        help="check invariants only (used when recording references)")
    parser.add_argument("--spans-file", help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    # started before set-up is timed, and only by a process that runs passes
    kernels = ReferenceKernels(dict(os.environ)) if args.seconds > 0 else None
    with kernels or contextlib.nullcontext():
        t0 = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import kerrcat

        if not Path(kerrcat.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"kerrcat imported from {kerrcat.__file__}, not from {ROOT / 'src'}")
        from workloads import WORKLOADS, inputs_sha

        wl = WORKLOADS[args.workload]
        inputs = wl.generate(args.seed)
        reference = None
        if not args.no_reference and REFERENCE_FILE.exists():
            recorded = json.loads(REFERENCE_FILE.read_text()).get(args.workload, {})
            reference = recorded.get(str(args.seed) if wl.seeded else "any")
        OUT_DIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
        result = {"spec": {k: getattr(wl, k) for k in ("entry", "shape", "unit", "why", "seeded")},
                  "inputs_sha": inputs_sha(inputs), "reference_checked": reference is not None,
                  "passes": [], "kernel_s": []}
        try:
            wl.warm_up(inputs, work)
            result["setup_s"] = time.perf_counter() - t0
            start = time.perf_counter()
            while kernels:
                record, _ = timed_pass(wl, inputs, work, reference)
                result["passes"].append(record)
                # kernel sets for about KERNEL_SHARE of the pass's time, at least one
                spent = 0.0
                while not spent or spent < KERNEL_SHARE * record["wall_s"]:
                    result["kernel_s"].append(kernels.measure())
                    spent += result["kernel_s"][-1]
                # stop unless the next pass and its kernel sets would end less than
                # half of one such iteration past the deadline
                elapsed = time.perf_counter() - start
                if elapsed * (1 + 0.5 / len(result["passes"])) > args.seconds:
                    break
            result["env"] = env_record()
            if args.traced:
                record, spans = traced_pass(wl, inputs, work, reference)
                result["traced"] = record
                if args.spans_file:
                    Path(args.spans_file).write_text(json.dumps(
                        [[s.name, s.start, s.end, s.parent] for s in spans]))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
