"""The benchmark's workloads and the correctness gate behind its results.

Every workload is a fixed list of calls that one client makes in a closed
loop: each call starts only after the previous one finished.  The seed only
shuffles the order of the calls within a pass and feeds ``suite_witt``'s
random pairs; no count depends on it.  See README.md for why each workload
was chosen.

This module imports only the standard library at load time, so that the
worker's set-up timer starts before numpy and isograss are imported.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import traceback
from dataclasses import dataclass, field

GRID = ("Sp2", "Sp4", "O2", "O3", "O4", "Sp2+O2", "Sp2+Sp2", "O2+O3")
PRIME_POOL = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# (space, k, prime): 4,015,392 subspaces in total
COUNT_JOBS = (("O2+O3", 2, 11), ("O2+O3", 3, 7), ("O4", 2, 31), ("Sp4", 2, 31))
NOT_O2O3 = tuple(s for s in GRID if s != "O2+O3")

CLI_GRID = (
    ("verify", "--suite", "partition"),
    ("verify", "--suite", "paving"),
    *(("verify", "--suite", "degrees", "--space", s) for s in NOT_O2O3),
    *(("verify", "--suite", "degrees", "--space", "O2+O3", "--k", str(k)) for k in (0, 1, 4, 5)),
    ("verify", "--space", "Sp2+O2", "--suite", "all"),
    ("labels", "--space", "Sp2+O2", "--k", "2", "--primes", "3,5,7"),
    ("count", "--space", "O2+O3", "--k", "2", "--primes", "3,5"),
    ("closure", "--space", "Sp2+O2", "--k", "2", "--format", "dot"),
    ("resolve", "--space", "Sp4", "--label", "2:0"),
    ("fibers", "--space", "O4", "--label", "2:1", "--target-label", "2:0p", "--primes", "3,5"),
    ("paving", "--space", "Sp4", "--k", "2"),
    ("classify", "--space", "Sp2+O2", "--rows", "1,0,1,0", "--prime", "3"),
)

WORKLOADS = ("count-large", "count-pool", "cli-grid", "resolution")

# The closure report's edge order follows str hashing (cli._transitive_reduction
# iterates a set of labels such as "0p"), so its bytes differ between processes
# unless the hash seed is fixed.  Every benchmark process, and the reference
# freeze, runs under this seed; test_perfbench.py keeps the defect visible.
HASH_SEED = "0"


@dataclass(frozen=True)
class Call:
    """One invocation: a CLI argv, or a verify suite with its arguments."""

    key: str  # stable identity: reference lookup and span name
    argv: tuple[str, ...] = ()
    suite: str = ""
    args: tuple = ()
    kwargs: tuple = ()  # (name, value) pairs


@dataclass
class Outcome:
    rc: int | None  # exit code; None when the call raised
    text: str = ""  # report bytes written to stdout
    results: tuple = ()  # CheckResults of a suite call
    error: str = ""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, call: Call, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{call.key}: {name}")


def cli_call(*argv: str) -> Call:
    return Call(" ".join(argv), argv=tuple(argv))


def calls(workload: str, seed: int) -> list[Call]:
    """The fixed invocation list of one pass, in canonical order."""
    if workload in ("count-large", "count-pool"):
        workers = "1" if workload == "count-large" else "2"
        return [
            cli_call("count", "--space", s, "--k", str(k), "--primes", str(p), "--workers", workers)
            for s, k, p in COUNT_JOBS
        ]
    if workload == "cli-grid":
        return [cli_call(*argv) for argv in CLI_GRID]
    if workload == "resolution":
        return [
            Call("suite_towers(grid,(3,))", suite="suite_towers", args=(GRID, (3,))),
            Call("suite_closure(grid,(3,))", suite="suite_closure", args=(GRID, (3,))),
            Call("suite_fibers(grid-O2+O3,(3,5,7))", suite="suite_fibers",
                 args=(NOT_O2O3, (3, 5, 7))),
            Call("suite_witt(grid,(3,),200)", suite="suite_witt", args=(GRID, (3,), 200),
                 kwargs=(("seed", seed),)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def setup_spaces(workload: str) -> list[tuple[str, int]]:
    """(space, prime) pairs the workload builds, and so warms up at set-up."""
    if workload in ("count-large", "count-pool"):
        return [(s, p) for s, _, p in COUNT_JOBS]
    return [(s, p) for s in GRID for p in PRIME_POOL]


def gaussian(n: int, k: int, q: int) -> int:
    """|Gr_k(F_q^n)|, computed here independently of isograss.polynomials."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def space_dim(spec: str) -> int:
    return sum(int(d) for d in re.findall(r"\d+", spec))


def pass_subspaces(workload: str) -> int:
    """Gr_k points a count pass classifies (0 for the other workloads)."""
    if workload not in ("count-large", "count-pool"):
        return 0
    return sum(gaussian(space_dim(s), k, p) for s, k, p in COUNT_JOBS)


def run_call(call: Call) -> Outcome:
    """Run one call in-process, starting from an empty count cache.

    A real CLI process never hits the cache across invocations, and without
    the reset a repeated pass would time dictionary copies.
    """
    from isograss import cli, sumspace, verify

    sumspace._COUNTS_CACHE.clear()
    try:
        if call.argv:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(call.argv))
            return Outcome(rc, out.getvalue(), error=err.getvalue())
        results = getattr(verify, call.suite)(*call.args, **dict(call.kwargs))
        return Outcome(0, results=tuple(results))
    except Exception:  # a crash is a failed call, reported by the gate
        return Outcome(None, error=traceback.format_exc())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check(call: Call, outcome: Outcome, refs: dict | None, tally: Tally) -> None:
    """Add every check of one call's outcome to ``tally``.

    The references are frozen from the seed only after these independent
    checks pass; ``refs=None`` skips the comparison with them.
    """
    tally.add(call, f"completed ({outcome.error.strip()[-300:]})", outcome.rc is not None)
    if outcome.rc is None:
        return
    if not call.argv:
        for r in outcome.results:
            tally.add(call, f"check {r.name}: {r.details}", r.passed)
        if refs is not None:
            names = [r.name for r in outcome.results]
            tally.add(call, "check names match the reference", names == refs["suites"].get(call.key))
        return
    tally.add(call, f"exit code {outcome.rc} ({outcome.error.strip()[-300:]})", outcome.rc == 0)
    if refs is not None:
        tally.add(call, "report bytes match the reference",
                  digest(outcome.text) == refs["reports"].get(call.key))
    if "dot" in call.argv:  # a DOT graph: no JSON to inspect
        return
    try:
        report = json.loads(outcome.text)
    except ValueError:
        tally.add(call, "report is JSON", False)
        return
    for c in report.get("checks", []):
        tally.add(call, f"report check {c.get('name')}", c.get("passed") is True)
    if call.argv[0] in ("count", "labels"):
        try:
            _check_partition(call, report, tally)
        except (KeyError, TypeError, ValueError) as e:
            tally.add(call, f"report has the count layout ({e!r})", False)


def _check_partition(call: Call, report: dict, tally: Tally) -> None:
    """Per prime: strata sum to [n,k]_p, cover every label, none is empty."""
    from isograss.cli import label_to_json
    from isograss.sumspace import build_sum_space, enumerate_multilabels

    opts = dict(zip(call.argv[1::2], call.argv[2::2]))  # the input, not the report's echo
    spec, k = opts["--space"], int(opts["--k"])
    expect = sorted(
        json.dumps(label_to_json(lab), sort_keys=True)
        for lab in enumerate_multilabels(build_sum_space(spec, 3), k)
    )
    rows = report["results"]
    got = sorted(json.dumps(row["label"], sort_keys=True) for row in rows)
    for p in opts["--primes"].split(","):
        counts = [row["counts"][p] for row in rows]
        tally.add(call, f"p={p}: strata sum to [n,k]_p",
                  sum(counts) == gaussian(space_dim(spec), k, int(p)))
        tally.add(call, f"p={p}: label set equals enumerate_multilabels", got == expect)
        tally.add(call, f"p={p}: every stratum nonempty", all(c > 0 for c in counts))
