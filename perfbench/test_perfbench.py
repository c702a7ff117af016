"""Tests of the benchmark itself (not part of the repository's tier-1 suite).

    python3 -m pytest -q perfbench
"""

import cProfile
import json
import os
import pstats
import subprocess
import sys

import pytest

import workloads
from tracer import Tracer
from worker import REFS, ROOT, SRC, import_isograss

import_isograss()

SMALL_COUNT = workloads.cli_call("count", "--space", "O2+O3", "--k", "2", "--primes", "3,5")


def _refs():
    with open(REFS) as fh:
        return json.load(fh)


def _tally(call, outcome):
    tally = workloads.Tally()
    workloads.check(call, outcome, _refs(), tally)
    return tally


def _recount(text, edit):
    report = json.loads(text)
    edit(report["results"])
    return json.dumps(report, indent=2) + "\n"


def test_gate_passes_a_good_report():
    tally = _tally(SMALL_COUNT, workloads.run_call(SMALL_COUNT))
    assert tally.attempted > 0
    assert tally.failed == 0, tally.failures


def test_one_corrupted_count_makes_fail_frac_positive():
    outcome = workloads.run_call(SMALL_COUNT)

    def bump(rows):
        rows[0]["counts"]["5"] += 1

    outcome.text = _recount(outcome.text, bump)
    tally = _tally(SMALL_COUNT, outcome)
    assert tally.failed / tally.attempted > 0
    assert any("strata sum" in f for f in tally.failures)
    assert any("report bytes" in f for f in tally.failures)


def test_count_moved_between_strata_fails_the_reference():
    outcome = workloads.run_call(SMALL_COUNT)

    def move(rows):
        rows[0]["counts"]["3"] -= 1
        rows[1]["counts"]["3"] += 1

    outcome.text = _recount(outcome.text, move)
    tally = _tally(SMALL_COUNT, outcome)
    assert tally.failed / tally.attempted > 0
    assert any("report bytes" in f for f in tally.failures)


# One small job touching batch_rank, rref and perp, and a function-local import
# (cmd_classify's `from .bilinear import radical`).
COVERAGE_JOB = [
    workloads.cli_call("count", "--space", "O2+O3", "--k", "2", "--primes", "3"),
    workloads.cli_call("resolve", "--space", "Sp4", "--label", "2:0"),
    workloads.cli_call("classify", "--space", "Sp2+O2", "--rows", "1,0,1,0", "--prime", "3"),
]


def _profiled_ncalls(targets):
    """cProfile's ncalls of each (module file, function) over the job."""
    prof = cProfile.Profile()
    prof.enable()
    for call in COVERAGE_JOB:
        assert workloads.run_call(call).rc == 0
    prof.disable()
    stats = pstats.Stats(prof).stats
    return {
        key: sum(v[1] for (f, _, name), v in stats.items()
                 if f.endswith(os.path.join("isograss", mod)) and name == fn)
        for key, (mod, fn) in targets.items()
    }


def test_traced_call_counts_equal_cprofile_ncalls():
    targets = {
        "linalg.rref.calls": ("linalg.py", "rref"),
        "bilinear.perp.calls": ("bilinear.py", "perp"),
        "batch.batch_rank.calls": ("_batch.py", "batch_rank"),
    }
    profiled = _profiled_ncalls(targets)
    tracer = Tracer()
    tracer.install()
    try:
        for call in COVERAGE_JOB:
            tracer.new_invocation()
            assert workloads.run_call(call).rc == 0
    finally:
        tracer.uninstall()
    traced = tracer.layer_metrics()
    for name in targets:
        assert profiled[name] > 0, name
        assert traced[name] == profiled[name], name


def test_uninstall_restores_every_binding():
    from isograss import bilinear, linalg, paving, towers

    before = (linalg.rref, towers.perp, bilinear.perp, paving.Paving.classify)
    tracer = Tracer()
    tracer.install()
    assert towers.perp is bilinear.perp is not before[1]
    tracer.uninstall()
    assert (linalg.rref, towers.perp, bilinear.perp, paving.Paving.classify) == before


@pytest.mark.xfail(strict=True, reason="closure edge order follows str hashing")
def test_closure_report_bytes_do_not_depend_on_the_hash_seed():
    argv = [sys.executable, "-m", "isograss.cli", "closure", "--space", "Sp2+O2", "--k", "2",
            "--format", "dot"]
    outs = {
        subprocess.run(argv, cwd=ROOT, capture_output=True, check=True,
                       env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)).stdout
        for seed in ("1", "3")
    }
    assert len(outs) == 1
