"""Measure one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

Set-up (importing isograss, building the workload's spaces and one tiny
warm-up count per prime, which fills ``_batch._inverse_table``) is timed from
the first line of this file and kept out of the passes.  Untraced passes
then run back to back until the next one would overrun the measuring time.
With ``--trace 1`` the untraced passes get half of that time and one traced
pass follows; its spans give the per-layer numbers, and its wall time over
the untraced median gives the tracing overhead.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFS = os.path.join(HERE, "refs.json")


def import_isograss():
    """Import the package from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "isograss", "__init__.py")):
        raise SystemExit(f"no isograss sources under {SRC}")
    sys.path.insert(0, SRC)
    import isograss
    import isograss.cli  # noqa: F401
    import isograss.verify  # noqa: F401

    if not os.path.abspath(isograss.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported isograss from {isograss.__file__}, not {SRC}")
    return isograss


def setup(workload: str) -> float:
    iso = import_isograss()
    for spec, p in workloads.setup_spaces(workload):
        iso.build_sum_space(spec, p)
    for p in sorted({p for _, p in workloads.setup_spaces(workload)}):
        iso.orbit_point_counts(iso.build_sum_space("O1", p), 1)
    iso.sumspace._COUNTS_CACHE.clear()
    return time.perf_counter() - T0


def run_pass(calls, rng, tracer=None):
    """One closed-loop pass over the calls in a seed-shuffled order."""
    order = list(calls)
    rng.shuffle(order)
    outcomes = []
    t0 = time.perf_counter()
    for call in order:
        if tracer is None:
            outcomes.append((call, workloads.run_call(call)))
            continue
        tracer.new_invocation()
        i = tracer.open(tracer.name_id(f"invocation:{call.key}"))
        outcomes.append((call, workloads.run_call(call)))
        tracer.close(i)
    return time.perf_counter() - t0, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup_s = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(REFS) as fh:
        refs = json.load(fh)
    calls = workloads.calls(args.workload, args.seed)
    rng = random.Random(args.seed)
    tally = workloads.Tally()
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = []
    t_start = time.perf_counter()
    while True:
        dt, outcomes = run_pass(calls, rng)
        passes.append(dt)
        for call, outcome in outcomes:
            workloads.check(call, outcome, refs, tally)
        if time.perf_counter() - t_start + statistics.median(passes) > budget:
            break
    mb = 1024.0  # ru_maxrss is in KiB on Linux
    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / mb,
        "pool_child_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / mb,
    }

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            dt, outcomes = run_pass(calls, rng, tracer)
        finally:
            tracer.uninstall()
        for call, outcome in outcomes:
            workloads.check(call, outcome, refs, tally)
        tally.add(workloads.Call("trace"), "no count-cache hit carries over between invocations",
                  tracer.carried_hits == 0)
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = dt / statistics.median(passes) - 1.0
        result["layers"] = layers
        tracer.save(os.path.join(HERE, "out", f"spans-{args.workload}.npz"))

    result.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
