"""Gate-design benchmark for kerrcat.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of gate_search, spectral_scan, noise_ensemble, twoqubit_full,
or ``all`` to run the four in turn. Every workload runs in fresh processes
(``worker.py``) that import kerrcat from ``src/`` of this checkout.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
as the median of SETUP_SAMPLES fresh processes, then untraced passes for
about S seconds in the last of them (mean pass time and rate, peak resident
memory of that process). Times are normalised to a nominal machine speed:
the measuring process alternates its passes with a fixed set of reference
kernels (``reference_kernels.py``), and a time is scaled by the set's
nominal time over its mean measured time. On a shared 2-CPU cloud machine
the raw pass time of the same code moved by up to 60 % within minutes,
with CPU time equal to wall time. The raw times are in the report.

``--trace 1`` gives the per-layer metrics: untraced passes until S seconds
have passed, then one traced pass in the same process, then the traced pass
again in a child with OPENBLAS_NUM_THREADS=1.

Every pass's outputs are checked. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the exit
code is 1 if any check failed and 2 if the benchmark could not run. The
full report, with the environment record, goes to
``.bench_out/report-<workload>-seed<N>-trace<T>.json``.

``--record`` instead runs one pass of the workload for the seed and stores
its checked values in ``reference.json`` as the reference for that seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER
from worker import BENCH_DIR, OUT_DIR, REFERENCE_FILE, ROOT

WORKER = BENCH_DIR / "worker.py"

WORKLOAD_NAMES = ("gate_search", "spectral_scan", "noise_ensemble", "twoqubit_full")
SETUP_SAMPLES = 3
#: a single workload's run ends within this many seconds or fails
DEADLINE_S = 170.0
#: nominal wall time of one reference-kernel set; normalised times are scaled to it
NOMINAL_KERNEL_SET_S = 0.45

END_TO_END = {
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SHARED_MACHINE_NOTE = ("timings come from a shared machine: other tenants' load and "
                       "the default OpenBLAS threads both move them; no CPU pinning or "
                       "cgroup setting was changed. End-to-end times are normalised to "
                       f"a reference-kernel set of {NOMINAL_KERNEL_SET_S} s; per-layer "
                       "times are raw")


class BenchError(RuntimeError):
    """The benchmark could not run to a result."""


def machine_record() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, "git_commit": git_commit()}


def git_commit() -> str | None:
    """HEAD commit of the checkout; None outside a git checkout."""
    if not (ROOT / ".git").exists():  # keep git from searching the parent directories
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def normalised(raw_s: float, kernel_s: list[float]) -> float:
    """``raw_s`` scaled to the nominal machine speed of the kernel sets timed around it."""
    return raw_s * NOMINAL_KERNEL_SET_S / statistics.fmean(kernel_s)


def spawn(args: list[str], deadline: float, env_extra: dict | None = None) -> dict:
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    env = {**os.environ, **(env_extra or {})}
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _all_passes(result: dict) -> list[dict]:
    return result["passes"] + ([result["traced"]] if "traced" in result else [])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_record(), "note": SHARED_MACHINE_NOTE}
    if not trace:
        setups = [spawn(base + ["--seconds", "0"], deadline) for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(base + ["--seconds", str(seconds)], deadline)
        setups.append(main)
        passes = main["passes"]
        wall = normalised(statistics.fmean(p["wall_s"] for p in passes), main["kernel_s"])
        metrics = {
            "wall_s": wall,
            "ops_per_s": passes[0]["units"] / wall,
            "setup_s": normalised(statistics.median(s["setup_s"] for s in setups),
                                  main["kernel_s"]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = {k: v[0] for k, v in END_TO_END.items()}
        report.update(raw={"wall_s": [p["wall_s"] for p in passes],
                           "setup_s": [s["setup_s"] for s in setups],
                           "kernel_set_s": main["kernel_s"]},
                      workers=[main])
    else:
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}-seed{seed}.json"
        main = spawn(base + ["--seconds", str(seconds), "--traced",
                             "--spans-file", str(spans)], deadline)
        single = spawn(base + ["--seconds", "0", "--traced"], deadline,
                       {"OPENBLAS_NUM_THREADS": "1"})
        traced = main["traced"]
        metrics = dict(traced["metrics"])
        metrics.update({
            "process.cpu_s": traced["cpu_s"],
            "process.cpu_per_wall": traced["cpu_s"] / traced["wall_s"],
            "process.blas_threads": main["env"]["blas_threads"],
            "process.wall_1thread_s": single["traced"]["wall_s"],
            "trace.overhead_s": traced["wall_s"]
                                - statistics.median(p["wall_s"] for p in main["passes"]),
        })
        if single["env"]["blas_threads"] not in (1, None):  # None: not OpenBLAS
            raise BenchError("the single-threaded child did not run with one BLAS thread")
        units = {k: v[0] for k, v in PER_LAYER.items()}
        report.update(workers=[main, single], spans_file=str(spans.relative_to(ROOT)),
                      per_layer_moves={k: v[2] for k, v in PER_LAYER.items()})
    passes = _all_passes(main) + (_all_passes(single) if trace else [])
    attempted = sum(p["units"] for p in passes)
    failed = sum(p["failed_units"] for p in passes)
    report.update(env=main["env"], workload_spec=main["spec"], metrics=metrics,
                  failures=[p["failures"] for p in passes if p["failures"]],
                  reference_checked=main["reference_checked"],
                  result={"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                      for k in units}})
    return report


def print_report(report: dict) -> None:
    passes = _all_passes(report["workers"][0])
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"({len(passes)} passes in the measuring process)")
    print("env " + json.dumps({**report["machine"], **report["env"]}, sort_keys=True))
    print("note: " + report["note"])
    result = report["result"]
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':36s} {frac:>16.6g} 1  ({result['failed']} of "
          f"{result['attempted']} units; reference values "
          f"{'checked' if report['reference_checked'] else 'not recorded for this seed'})")
    if "raw" in report:
        raw = report["raw"]
        print(f"  raw: mean pass {statistics.fmean(raw['wall_s']):.6g} s, mean kernel set "
              f"{statistics.fmean(raw['kernel_set_s']):.6g} s (nominal "
              f"{NOMINAL_KERNEL_SET_S} s), set-up samples "
              + ", ".join(f"{v:.4g}" for v in raw["setup_s"]) + " s")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def record_reference(name: str, seed: int) -> None:
    deadline = time.monotonic() + DEADLINE_S
    result = spawn(["--workload", name, "--seed", str(seed), "--seconds", "1e-9",
                    "--no-reference"], deadline)
    (run,) = result["passes"]
    if run["failures"]:
        raise BenchError(f"not recording a failing pass: {run['failures']}")
    recorded = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    key = str(seed) if result["spec"]["seeded"] else "any"
    recorded.setdefault(name, {})[key] = {"inputs_sha": result["inputs_sha"],
                                          "values": run["values"]}
    REFERENCE_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {name} seed {key}: {len(run['values'])} values")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kerrcat gate-design benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's checked values as its reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kerrcat" / "__init__.py").is_file():
        print(f"error: no kerrcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        if args.record:
            for name in names:
                record_reference(name, args.seed)
            return 0
        reports = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    for report in reports:
        print_report(report)
        path = OUT_DIR / f"report-{report['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(report, indent=1, sort_keys=True))
    if len(reports) == 1:
        final = reports[0]["result"]
    else:
        final = {"correct": all(r["result"]["correct"] for r in reports),
                 "attempted": sum(r["result"]["attempted"] for r in reports),
                 "failed": sum(r["result"]["failed"] for r in reports),
                 "metrics": {f"{r['workload']}.{k}": v for r in reports
                             for k, v in r["result"]["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
