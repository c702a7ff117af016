"""Command-line surface: catalogs, classification, counting, pavings,
resolutions, fibers, the experimental closure poset, verification suites,
and export to JSON / DOT / CSV.

Reports are deterministic JSON documents: fixed field order, no
timestamps.  Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
input error, 3 enumeration budget refused, 4 internal error (a bug).
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import sys
from dataclasses import asdict

import numpy as np

from .linalg import DEFAULT_BUDGET, BudgetExceeded, as_prime, span, subspace_intersect, subspace_total
from .orbits import DOUBLEPRIME0, PRIME0, rank_numeric
from .paving import build_paving, iso_grassmannian_count
from .polynomials import IntPolynomial
from .sumspace import (
    MultiLabel,
    build_sum_space,
    canonical_representative,
    component_group_order_multi,
    enumerate_multilabels,
    orbit_dim_multi,
    orbit_point_counts,
    stack_multilabels,
    validate_multilabel,
)
from .towers import fiber_invariants, resolution_tower, tower_fiber, tower_points
from .verify import GRID_SPACES, SUITE_NAMES, CheckResult, closure_relation, run_suite

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class CliError(ValueError):
    pass


def label_to_json(label: MultiLabel) -> dict:
    return {"k": list(label.ks), "r": list(label.rs)}


def parse_label_arg(text: str) -> MultiLabel:
    """Parse "1:0,1:0p" into a MultiLabel."""
    ks, rs = [], []
    for i, part in enumerate(text.split(",")):
        if ":" not in part:
            raise CliError(f"label component {i}: expected k:r, got {part!r}")
        kstr, rstr = part.split(":", 1)
        try:
            ks.append(int(kstr))
        except ValueError:
            raise CliError(f"label component {i}: bad dimension {kstr!r}") from None
        if rstr in (PRIME0, DOUBLEPRIME0):
            rs.append(rstr)
        else:
            try:
                rs.append(int(rstr))
            except ValueError:
                raise CliError(f"label component {i}: bad rank {rstr!r}") from None
    return MultiLabel(tuple(ks), tuple(rs))


def label_arg(label: MultiLabel) -> str:
    """The --label text of a label, as parse_label_arg reads it."""
    return ",".join(f"{k}:{r}" for k, r in zip(label.ks, label.rs))


def parse_rows_arg(text: str, width: int, p: int):
    rows = []
    for i, part in enumerate(text.split(";")):
        entries = part.split(",")
        if len(entries) != width:
            raise CliError(f"row {i}: expected {width} entries, got {len(entries)}")
        try:
            rows.append([int(x) % p for x in entries])
        except ValueError as e:
            raise CliError(f"row {i}: {e}") from None
    return np.array(rows, dtype=np.int64)


def bundle(command: str, invocation: dict, results, checks) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "invocation": {"command": command, **invocation},
        "results": results,
        "checks": checks,
    }


def poly_json(poly: IntPolynomial):
    return list(poly.coeffs)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _label_counts(space_spec: str, k: int, primes, budget, workers):
    """The p = 3 reference space, the labels of Gr_k (none for an out-of-range
    k) and, when there are labels, each prime's counts by label; every
    prime's Gr_k is sized, and refused at the largest, before the first
    count."""
    ref = build_sum_space(space_spec, 3)
    labels = enumerate_multilabels(ref, k) if 0 <= k <= ref.n else []
    if not labels:
        return ref, labels, {}
    BudgetExceeded.check_largest((subspace_total(ref.n, k, p) for p in primes), budget)
    return ref, labels, {
        p: orbit_point_counts(build_sum_space(space_spec, p), k, budget=budget, workers=workers)
        for p in primes
    }


def cmd_labels(space_spec: str, k: int, primes=(), budget=DEFAULT_BUDGET, workers=1) -> dict:
    """Catalog of all labels for Gr_k with dims, component orders, counts.

    An out-of-range k yields a valid empty catalog.
    """
    ref, labels, counts_by_p = _label_counts(space_spec, k, primes, budget, workers)
    rows = []
    for label in labels:
        row = {
            "label": label_to_json(label),
            "pretty": str(label),
            "dim": orbit_dim_multi(ref, label),
            "component_group_order": component_group_order_multi(ref, label),
        }
        if primes:
            row["counts"] = {str(p): counts_by_p[p].get(label, 0) for p in primes}
        rows.append(row)
    return bundle(
        "labels",
        {"space": space_spec, "k": k, "primes": list(primes)},
        rows,
        [],
    )


def cmd_classify(space_spec: str, rows_text: str, prime: int) -> dict:
    space = build_sum_space(space_spec, prime)
    rows = parse_rows_arg(rows_text, space.n, prime)
    h = span(rows, space.n, prime)
    if h.dim != rows.shape[0]:
        raise CliError(
            f"rows are dependent: {rows.shape[0]} rows span a {h.dim}-dimensional space"
        )
    label = stack_multilabels(space, h.basis[None].astype(np.int32))[0]
    factors = []
    for i, (f, k_i, r_i) in enumerate(zip(space.factors, label.ks, label.rs)):
        detail = {"factor": i + 1, "k": k_i, "r": r_i, "radical_dim": k_i - rank_numeric(r_i)}
        if r_i in (PRIME0, DOUBLEPRIME0):
            pr = space.project_factor(h, i)
            detail["witness_intersection"] = subspace_intersect(pr, f.witness).dim
        factors.append(detail)
    results = [
        {
            "label": label_to_json(label),
            "pretty": str(label),
            "dim": orbit_dim_multi(space, label),
            "factors": factors,
        }
    ]
    return bundle("classify", {"space": space_spec, "prime": prime, "rows": rows_text}, results, [])


def cmd_count(space_spec: str, k: int, primes=(), budget=DEFAULT_BUDGET, workers=1) -> dict:
    _, labels, counts_by_p = _label_counts(space_spec, k, primes, budget, workers)
    rows = [
        {"label": label_to_json(lab), "pretty": str(lab),
         "counts": {str(p): counts.get(lab, 0) for p, counts in counts_by_p.items()}}
        for lab in labels
    ]
    return bundle(
        "count", {"space": space_spec, "k": k, "primes": list(primes)}, rows, []
    )


def cmd_paving(space_spec: str, k: int, prime: int = 3) -> dict:
    space = build_sum_space(space_spec, prime)
    if space.m != 1:
        raise CliError("paving applies to a single-factor space")
    form = space.factors[0]
    paving = build_paving(form)
    rows = [{"piece": pc.piece_id, "affine_dim": pc.affine_dim} for pc in paving.pieces(k)]
    poly = paving.count_polynomial(k)
    passed = poly == iso_grassmannian_count(form.form_type, form.n, k)
    return bundle(
        "paving",
        {"space": space_spec, "k": k, "prime": prime},
        rows,
        [asdict(CheckResult("count polynomial", passed, str(poly)))],
    )


def cmd_resolve(space_spec: str, label: MultiLabel, prime: int = 3, budget=DEFAULT_BUDGET) -> dict:
    space = build_sum_space(space_spec, prime)
    tower = resolution_tower(space, label)
    layers = [
        {"kind": layer.kind, "params": list(layer.params), "count": poly_json(layer.count)}
        for layer in tower.layers
    ]
    poly = tower.count_polynomial()
    points = tower_points(space, label, budget=budget)
    ok = len(points) == poly(prime)
    results = [
        {
            "label": label_to_json(label),
            "layers": layers,
            "count_polynomial": poly_json(poly),
            "points_at_prime": len(points),
        }
    ]
    check = CheckResult(
        f"tower count at q={prime}",
        ok,
        f"{len(points)} points vs symbolic {poly(prime)}",
        f"isograss resolve --space {space_spec} --label {label_arg(label)}"
        + (f" --prime {prime}" if prime != 3 else ""),  # defaults stay implicit
    )
    return bundle("resolve", {"space": space_spec, "prime": prime}, results, [asdict(check)])


def cmd_fibers(
    space_spec: str,
    label: MultiLabel,
    target_label: MultiLabel | None = None,
    primes=(3, 5),
    budget=DEFAULT_BUDGET,
) -> dict:
    """Fibers over the representative of ``target_label`` (default the label);
    over the label's own stratum, one check per prime that it is one point."""
    results, checks = [], []
    for p in primes:
        space = build_sum_space(space_spec, p)
        sub = target_label if target_label is not None else label
        validate_multilabel(space, sub, label.k)
        rep = canonical_representative(space, sub)
        fiber = tower_fiber(space, label, rep, budget=budget)
        results.append(
            {
                "prime": p,
                "target_label": label_to_json(sub),
                "fiber_size": len(fiber),
                "invariants": sorted(set(fiber_invariants(space, rep, fiber))),
            }
        )
        if sub == label:
            checks.append(CheckResult(
                f"open-stratum fiber at q={p}",
                len(fiber) == 1,
                f"{len(fiber)} points, expected 1",
                f"isograss fibers --space {space_spec} --label {label_arg(label)} --primes {p}",
            ))
    return bundle(
        "fibers",
        {"space": space_spec, "label": label_to_json(label), "primes": list(primes)},
        results,
        [asdict(check) for check in checks],
    )


def _transitive_reduction(labels, rel):
    """Covering edges of the closure partial order (edges point upward)."""
    edges = []
    for top in labels:
        below = rel[top] - {top}
        for mid in below:
            if any(mid in rel[other] and other in below and other != mid for other in below):
                continue
            edges.append((mid, top))
    return edges


def cmd_closure(space_spec: str, k: int, prime: int = 3, budget=DEFAULT_BUDGET) -> dict:
    rel = closure_relation(build_sum_space(space_spec, prime), k, budget, {})
    labels = sorted(rel, key=MultiLabel.sort_key)
    edges = _transitive_reduction(labels, rel)
    results = [
        {
            "nodes": [label_to_json(lab) for lab in labels],
            "pretty": [str(lab) for lab in labels],
            "edges": [
                {"lower": label_to_json(a), "upper": label_to_json(b)} for a, b in edges
            ],
            "note": "experimental closure order from finite-field images",
        }
    ]
    return bundle("closure", {"space": space_spec, "k": k, "prime": prime}, results, [])


def cmd_verify(
    space_spec=None, k=None, primes=(), suite: str = "all", budget=DEFAULT_BUDGET, workers=1
) -> dict:
    specs = (space_spec,) if space_spec else GRID_SPACES
    # built even for the paving suite, which ignores them, so a bad spec is refused
    dims = [build_sum_space(spec, 3).n for spec in specs]
    if k is not None and not any(0 <= k <= n for n in dims):
        raise CliError(f"need 0 <= k <= {max(dims)}, got {k}")
    results = run_suite(
        suite, specs, primes or None, budget=budget, workers=workers, only_k=k
    )
    return bundle(
        "verify",
        {
            "space": space_spec or "grid",
            "k": k,
            "primes": list(primes) if primes else [],
            "suite": suite,
        },
        [],
        [asdict(r) for r in results],
    )


def _read_report(infile: str) -> dict:
    """The JSON report that `export` re-renders."""
    try:
        with open(infile) as fh:
            report = json.load(fh)
    except OSError as e:
        raise CliError(f"--in: {e}") from None
    if not isinstance(report, dict):
        raise CliError(f"{infile} holds no isograss report")
    return report


def cmd_export(report: dict, fmt: str) -> str:
    """Render a report as json, dot (closure posets) or csv (catalogs)."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    render = {"dot": _to_dot, "csv": _to_csv}.get(fmt)
    if render is None:
        raise CliError(f"unknown format {fmt!r}")
    try:
        return render(report)
    except (AttributeError, KeyError, TypeError, IndexError) as e:
        raise CliError(f"{fmt} export: the report has the wrong layout ({e!r})") from None


def _pretty_label_json(d: dict) -> str:
    return str(MultiLabel(tuple(d["k"]), tuple(d["r"])))


def _to_dot(report: dict) -> str:
    results = report.get("results", [])
    if not results or "nodes" not in results[0]:
        raise CliError("dot export needs a closure report")
    data = results[0]
    lines = ["digraph closure {", "  rankdir=BT;"]
    names = {}
    for idx, node in enumerate(data["nodes"]):
        names[json.dumps(node, sort_keys=True)] = f"n{idx}"
        lines.append(f'  n{idx} [label="{_pretty_label_json(node)}"];')
    for edge in data["edges"]:
        a = names[json.dumps(edge["lower"], sort_keys=True)]
        b = names[json.dumps(edge["upper"], sort_keys=True)]
        lines.append(f"  {a} -> {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_csv(report: dict) -> str:
    results = report.get("results", [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["label", "dim", "component_group_order"]
    primes = sorted(
        {p for row in results for p in row.get("counts", {})}, key=int
    )
    writer.writerow(header + [f"count_q{p}" for p in primes])
    for row in results:
        if "label" not in row:
            continue
        base = [
            row.get("pretty", _pretty_label_json(row["label"])),
            row.get("dim", ""),
            row.get("component_group_order", ""),
        ]
        counts = row.get("counts", {})
        writer.writerow(base + [counts.get(p, "") for p in primes])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_primes(text: str):
    try:
        primes = tuple(as_prime(x) for x in text.split(",") if x)
    except ValueError as e:
        raise CliError(f"bad prime list {text!r}: {e}") from None
    for i, p in enumerate(primes):
        if p in primes[:i]:
            raise CliError(f"bad prime list {text!r}: {p} is listed twice")
    return primes


def _check_workers(workers: int) -> int:
    if workers < 1:
        raise CliError(f"--workers must be >= 1, got {workers}")
    return workers


# Every option, keyed by the parameter of the command functions it fills.  A
# subcommand takes exactly its function's parameters; those without a default
# are required, and an omitted option leaves the function's default in place.
_OPTIONS = {
    "space_spec": ("--space", {"metavar": "SPACE", "help": "factor list, e.g. Sp2+O3"}),
    "k": ("--k", {"type": int}),
    "primes": ("--primes", {"help": "comma-separated, e.g. 3,5"}),
    "prime": ("--prime", {"type": int}),
    "rows_text": ("--rows", {"metavar": "ROWS", "help": "rows split by ';', e.g. 1,0,1,0"}),
    "label": ("--label", {"help": "per-factor k:r list, e.g. 1:0,1:0p"}),
    "target_label": ("--target-label", {"help": "label of the fiber's base point"}),
    "suite": ("--suite", {"choices": SUITE_NAMES + ("all",)}),
    "budget": ("--budget", {"type": int, "help": "most subspaces one enumeration visits"}),
    "workers": ("--workers", {"type": int, "help": "processes per counting pass"}),
    "infile": ("--in", {"metavar": "PATH", "help": "a JSON report written by isograss"}),
}

# Conversions made inside main's error boundary, so a bad value exits 2.
_CONVERT = {
    "primes": _parse_primes,
    "label": parse_label_arg,
    "target_label": parse_label_arg,
    "workers": _check_workers,
}

# (name, function, output formats with the default first, help)
_COMMANDS = (
    ("labels", cmd_labels, ("json", "csv"), "label catalog for Gr_k"),
    ("classify", cmd_classify, ("json",), "label of a subspace given by basis rows"),
    ("count", cmd_count, ("json", "csv"), "orbit point counts per prime"),
    ("paving", cmd_paving, ("json",), "affine paving of the isotropic Grassmannian"),
    ("resolve", cmd_resolve, ("json",), "resolution tower for a label"),
    ("fibers", cmd_fibers, ("json",), "resolution fiber over a stratum representative"),
    ("closure", cmd_closure, ("json", "dot"), "experimental closure poset"),
    ("verify", cmd_verify, ("json",), "run a property suite"),
    ("export", _read_report, ("json", "dot", "csv"), "re-render a JSON report"),
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isograss",
        description="Orbit strata of Grassmannians over odd prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, formats, help_text in _COMMANDS:
        sp = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for param in inspect.signature(run).parameters.values():
            flag, opts = _OPTIONS[param.name]
            sp.add_argument(flag, dest=param.name, required=param.default is param.empty, **opts)
        if len(formats) > 1:
            sp.add_argument("--format", choices=formats, help=f"default {formats[0]}")
        sp.add_argument("--out", help="write the output to this file, not stdout")
        sp.set_defaults(run=run)
    return parser


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise CliError(f"--out: {e}") from None


def main(argv=None) -> int:
    kwargs = vars(make_parser().parse_args(argv))
    command, run = kwargs.pop("command"), kwargs.pop("run")
    fmt, out = kwargs.pop("format", "json"), kwargs.pop("out", None)
    try:
        for name, convert in _CONVERT.items():
            if name in kwargs:
                kwargs[name] = convert(kwargs[name])
        report = run(**kwargs)
        _emit(cmd_export(report, fmt), out)
    except BudgetExceeded as e:
        print(f"budget refused: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # a bug: no report
        print(f"internal error: {e!r}", file=sys.stderr)
        return EXIT_INTERNAL
    if command == "export":  # re-rendering a report judges none of its checks
        return EXIT_OK
    failed = [c for c in report.get("checks", []) if not c.get("passed", True)]
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
