"""One benchmark pass in a fresh process, so every memo starts cold.

    python3 perfbench/passrun.py --workload NAME --seed N --spawned T
        [--trace 0|1] [--scale full|f4] [--pass-id K]

T is the parent's time.monotonic() just before it started this process;
setup_s runs from T to the first timed library call, wall_s over the timed
verdict attempts, both scaled by the host's measured speed (see below).
Prints one JSON object as its last line.  Exits 3 on a wrong verdict or witness, 2 when the
library cannot be imported.
"""

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / ".perfbench"
_RAISED = object()

# A shared host's speed can halve and recover within a minute, and exact
# Python arithmetic and float64 BLAS slow down by different factors.  After
# set-up and after each verdict attempt the pass times a fixed calibration
# unit (Fraction dot products, then float64 matrix products) for about
# CAL_SHARE of that time; wall_s and setup_s are then scaled by
# CAL_REF_S / (mean unit time), that is, reported in seconds of a host on
# which the unit takes CAL_REF_S (a quiet 2-core Xeon, one BLAS thread).
# The unit shares no code with the library, so a library change cannot move
# it.  The unscaled seconds are reported as raw_wall_s and raw_setup_s.
CAL_SHARE = 0.1
CAL_REF_S = 0.012
_CAL_OPERAND = []


def calibration_unit():
    import numpy
    if not _CAL_OPERAND:
        _CAL_OPERAND.append(numpy.random.default_rng(0).standard_normal((4, 96, 96)))
    rows = [[Fraction(i * 7 + j + 1, j + 3) for j in range(8)] for i in range(8)]
    for _ in range(2):
        rows = [[sum((rows[i][k] * rows[k][j] for k in range(8)), Fraction(0))
                 for j in range(8)] for i in range(8)]
        rows = [[Fraction(x.numerator % 1009, x.denominator % 1013 + 1) for x in r]
                for r in rows]
    m = _CAL_OPERAND[0]
    for _ in range(32):
        numpy.matmul(m, m)


def calibrate(seconds):
    """Run the unit about CAL_SHARE * seconds long; (runs, time taken).

    The cyclic collector is off meanwhile, so the unit's time does not
    depend on how many objects the library keeps alive."""
    runs = max(1, round(CAL_SHARE * seconds / CAL_REF_S))
    gc.disable()
    try:
        start = time.monotonic()
        for _ in range(runs):
            calibration_unit()
        return runs, time.monotonic() - start
    finally:
        gc.enable()


def _fingerprint(values):
    h = hashlib.sha256()
    for v in values:
        data = v.to_json_dict() if hasattr(v, "to_json_dict") else v
        h.update(json.dumps(data, sort_keys=True).encode())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "f4"), default="full")
    ap.add_argument("--pass-id", type=int, default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401  (part of the import cost users pay)
        import magma_tits  # noqa: F401
        from magma_tits import registry
    except ImportError as exc:
        print("cannot import magma_tits from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    import workloads
    from oracle import WrongVerdict
    from tracing import Tracer

    if registry._CACHE:
        print("cold-start guard: registry cache not empty at pass start", file=sys.stderr)
        return 3
    tracer = Tracer(args.pass_id) if args.trace else None
    if tracer:
        tracer.install()
    wl = workloads.WORKLOADS[args.workload](random.Random(args.seed), f4=args.scale == "f4")
    if registry._CACHE:
        print("cold-start guard: set-up filled the registry cache", file=sys.stderr)
        return 3

    outcomes, errors = [], Counter()
    failed = cal_runs = 0
    cal_s = 0.0
    t0 = time.monotonic()
    setup_s = t0 - args.spawned
    runs, took = calibrate(setup_s)
    cal_runs, cal_s, wall_s = runs, took, 0.0
    for item in wl.items:
        start = time.monotonic()
        try:
            outcomes.append(item.run())
        except Exception as exc:  # a raising verdict attempt is counted, not fatal
            errors[type(exc).__name__] += 1
            outcomes.append(_RAISED)
            if not isinstance(exc, item.known_errors):
                failed += 1
                traceback.print_exc()
        item_s = time.monotonic() - start
        wall_s += item_s
        runs, took = calibrate(item_s)
        cal_runs += runs
        cal_s += took
    if tracer:
        tracer.uninstall()

    verdicts = Counter()
    try:
        for item, out in zip(wl.items, outcomes):
            if out is _RAISED:
                verdicts["raised"] += 1
                continue
            item.check(out)
            verdicts[item.expect] += 1
    except WrongVerdict as exc:
        print("wrong verdict: %s" % exc, file=sys.stderr)
        return 3

    scale = CAL_REF_S * cal_runs / cal_s
    result = {
        "setup_s": setup_s * scale,
        "wall_s": wall_s * scale,
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "host_speed": scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(wl.items),
        "raised": sum(errors.values()),
        "failed": failed,
        "errors": dict(errors),
        "verdicts": dict(verdicts),
        "input_hash": _fingerprint(wl.fingerprint),
    }
    if tracer:
        result["layers"] = tracer.layer_metrics()
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / ("spans-%s-seed%d-pass%d.json"
                           % (args.workload, args.seed, args.pass_id))
        path.write_text(json.dumps(tracer.span_records()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
