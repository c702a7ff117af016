"""The isograss benchmark: one command for every metric of one workload run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload's passes run in a fresh
worker process (perfbench/worker.py), so set-up time and peak memory belong
to that workload alone.  With ``--trace 0`` the run first starts
SETUP_SAMPLES set-up-only processes and reports the median set-up time with
the end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics
of one traced pass.  Metric names and units come from BENCHMARK.json.

Prints ``name value unit`` lines, then one JSON line as the last line of
standard output.  Exits 1 when any check fails (fail_frac > 0), and 2 when
the checkout holds no isograss sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 4  # set-up-only processes per run, plus the measuring one
DEADLINE_S = 170.0  # whole run, so that it ends within 180 s


class RunError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Run the worker in its own process group; return its JSON line."""
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args], cwd=ROOT, stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED=workloads.HASH_SEED), start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError(f"worker {args} ran past the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker {args} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run the worker processes; return (metrics by name, worker result)."""
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_worker(base + ["--setup-only"], deadline)["setup_s"])
    res = run_worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(res["setup_s"])
    pass_s = statistics.median(res["passes"])
    metrics = {
        "pass_s": pass_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "pool.child_peak_rss_mb": res["pool_child_peak_rss_mb"],
        "fail_frac": res["failed"] / res["attempted"],
        "passes": len(res["passes"]),
    }
    subspaces = workloads.pass_subspaces(workload)
    if subspaces:
        metrics["subspaces_per_s"] = subspaces / pass_s
    metrics.update(res.get("layers", {}))
    return metrics, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    # a terminated run still kills its worker's process group (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "isograss", "__init__.py")):
        print(f"error: {ROOT} holds no isograss sources (src/isograss)", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        metrics, res = measure(args.workload, args.seed, args.seconds, args.trace)
    except RunError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for failure in res["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} passes {metrics['passes']} "
          f"pass_times_s {' '.join(f'{t:.4f}' for t in res['passes'])}")
    for name, unit in (("fail_frac", "ratio"), ("subspaces_per_s", "1/s")):
        if name in metrics:
            print(f"{name} {metrics[name]!r} {unit}")
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]!r} {m['unit']}")
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
