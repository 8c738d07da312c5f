"""Benchmark of the magma_tits verifier: end-to-end and per-layer figures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of bulk_checks, coordinate_algebras, negative_controls, gfp, or
"all" to run the four in turn.  The run repeats passes of the workload, each
in a fresh process so registry and report memos start cold, until S seconds
have gone (at least MIN_PASSES passes).  Every verdict and witness of every
pass is checked; a wrong one makes the run exit nonzero without a result.

--trace 0 reports the end-to-end metrics, medians over the passes:
  wall_s       time of the pass's verdict attempts, first call to last verdict
  setup_s      process start to the first timed call (imports, seed inputs)
  peak_rss_mb  peak resident memory of the pass process
wall_s and setup_s are in calibrated seconds (see passrun.py: the measured
seconds scaled by the host's speed on a fixed kernel timed in the same pass);
the unscaled medians are printed as raw_wall_s and raw_setup_s.  Every run
also prints error_share, the share of verdict attempts that raised.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py (medians over traced passes), error_share, and
trace.overhead_s, the traced minus the untraced median wall_s.

The last line of output is one JSON object: correct, attempted, failed
(attempts that raised an exception other than a recorded library defect)
and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk_checks", "coordinate_algebras", "negative_controls", "gfp")
MIN_PASSES = 3
PASS_TIMEOUT_S = 170
# One BLAS thread: at most nproc, and steadier on a shared machine.
PASS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0"}
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


class BenchFailure(Exception):
    """A pass exited nonzero: wrong verdict, import failure or crash."""


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("hit_ratio", "error_share")):
        return "ratio"
    return "count"


def machine_facts():
    """The machine and library facts a figure depends on."""
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or 0) or None
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": "%s %s" % (blas["name"], blas["version"]),
            "blas_threads": int(PASS_ENV["OPENBLAS_NUM_THREADS"]), "l3_bytes": l3}


def run_pass(workload, seed, trace, pass_id, deadline, scale="full"):
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--scale", scale,
           "--pass-id", str(pass_id)]
    env = dict(os.environ, **PASS_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, min(PASS_TIMEOUT_S, deadline - spawned)))
    except subprocess.TimeoutExpired as exc:
        raise BenchFailure("%s pass %d timed out" % (workload, pass_id)) from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchFailure("%s pass %d exited %d" % (workload, pass_id, proc.returncode))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    """Passes until `seconds` have gone; returns (summary, metrics)."""
    start = time.monotonic()
    deadline = start + PASS_TIMEOUT_S
    plain, traced = [], []
    while True:
        plain.append(run_pass(workload, seed, 0, len(plain), deadline))
        if trace:
            traced.append(run_pass(workload, seed, 1, len(traced), deadline))
        if time.monotonic() - start >= seconds and (trace or len(plain) >= MIN_PASSES):
            break
    for p in plain + traced:
        if p["input_hash"] != plain[0]["input_hash"]:
            raise BenchFailure("%s: seed %d made different inputs in two passes"
                               % (workload, seed))
    attempted = sum(p["attempted"] for p in plain)
    raised = sum(p["raised"] for p in plain)
    errors = {}
    for p in plain:
        for k, v in p["errors"].items():
            errors[k] = errors.get(k, 0) + v
    summary = {"workload": workload, "seed": seed, "passes": len(plain),
               "attempted": attempted, "failed": sum(p["failed"] for p in plain),
               "error_share": raised / attempted, "errors": errors,
               "verdicts": plain[0]["verdicts"], "input_hash": plain[0]["input_hash"],
               "wall_s_each": [round(p["wall_s"], 4) for p in plain],
               "raw": {k: statistics.median(p[k] for p in plain)
                       for k in ("raw_wall_s", "raw_setup_s", "host_speed")}}
    if not trace:
        metrics = {name: statistics.median(p[name] for p in plain) for name in END_TO_END}
    else:
        layers = traced[0]["layers"]
        metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in layers}
        metrics["error_share"] = summary["error_share"]
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in plain))
    return summary, metrics


def print_summary(summary, metrics):
    print("workload %s  seed %d  passes %d  inputs %s" % (
        summary["workload"], summary["seed"], summary["passes"], summary["input_hash"]))
    for name, value in metrics.items():
        print("  %-52s %14.6f %s" % (name, value, unit_of(name)))
    if "error_share" not in metrics:
        print("  %-52s %14.6f %s" % ("error_share", summary["error_share"], "ratio"))
    for name, value in summary["raw"].items():
        print("  %-52s %14.6f %s" % (name, value, "ratio" if name == "host_speed" else "s"))
    print("  verdicts per pass %s; exceptions %s; wall_s per pass %s" % (
        summary["verdicts"], summary["errors"] or "none", summary["wall_s_each"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "magma_tits" / "__init__.py").is_file():
        print("no magma_tits sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    print("machine %s" % json.dumps(machine_facts()))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            summary, m = run_workload(name, args.seed, args.seconds, args.trace)
            print_summary(summary, m)
            attempted += summary["attempted"]
            failed += summary["failed"]
            prefix = name + "." if args.workload == "all" else ""
            metrics.update({prefix + k: {"value": v, "unit": unit_of(k)} for k, v in m.items()})
    except BenchFailure as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
