import argparse
import inspect
import json
import shlex
import time

import pytest
from checks import edit_whole_walks, flag_data, stack_labels, take_points
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isograss import _batch, cli, paving, sumspace, towers
from isograss.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    CliError,
    cmd_classify,
    cmd_closure,
    cmd_export,
    cmd_labels,
    cmd_resolve,
    main,
    make_parser,
    parse_label_arg,
)
from isograss.bilinear import InvariantMismatch
from isograss.linalg import subspace_total
from isograss.orbits import PRIME0
from isograss.polynomials import IntPolynomial, InterpolationError
from isograss.sumspace import MultiLabel, build_sum_space, enumerate_multilabels


def test_parse_label_arg():
    assert parse_label_arg("1:0,1:0p") == MultiLabel((1, 1), (0, PRIME0))
    assert parse_label_arg("2:2") == MultiLabel((2,), (2,))
    with pytest.raises(CliError):
        parse_label_arg("1-0")
    with pytest.raises(CliError):
        parse_label_arg("1:x")


def test_labels_report_rows():
    report = cmd_labels("Sp4", 2, primes=(3,))
    rows = report["results"]
    assert len(rows) == 2
    by_pretty = {r["pretty"]: r for r in rows}
    assert by_pretty["(2:0)"]["dim"] == 3
    assert by_pretty["(2:2)"]["dim"] == 4
    assert by_pretty["(2:0)"]["counts"]["3"] == 40
    assert by_pretty["(2:2)"]["counts"]["3"] == 90

    o2 = cmd_labels("O2", 1)
    assert [r["pretty"] for r in o2["results"]] == ["(1:0')", "(1:0'')", "(1:1)"]


def test_classify_block_lagrangian():
    report = cmd_classify("Sp4", "1,0,0,0;0,1,0,0", 3)
    assert report["results"][0]["pretty"] == "(2:0)"


def test_classify_rejects_dependent_rows():
    with pytest.raises(CliError):
        cmd_classify("Sp4", "1,0,0,0;2,0,0,0", 3)
    with pytest.raises(CliError):
        cmd_classify("Sp4", "1,0,0", 3)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_is_usage_error(capsys, workers):
    for argv in (
        ["count", "--space", "O2", "--k", "1", "--primes", "3"],
        ["verify", "--space", "Sp2", "--suite", "towers"],
    ):
        assert main(argv + ["--workers", workers]) == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    assert main(["labels", "--space", "Sp4", "--k", "2"]) == EXIT_OK
    capsys.readouterr()
    assert main(["labels", "--space", "Zp4", "--k", "2"]) == EXIT_USAGE
    capsys.readouterr()
    assert (
        main(["count", "--space", "O2+O3", "--k", "2", "--primes", "7", "--budget", "100"])
        == EXIT_BUDGET
    )
    capsys.readouterr()
    assert (
        main(["verify", "--space", "Sp2", "--suite", "partition", "--primes", "3"])
        == EXIT_OK
    )
    capsys.readouterr()


def test_resolve_budget_bounds_base_choices(capsys):
    # 40 tower points, but the P~ choices scan all 33,880 points of Gr_3(F_3^6)
    argv = ["resolve", "--space", "O6", "--label", "3:0p", "--prime", "3"]
    assert main(argv + ["--budget", "1000"]) == EXIT_BUDGET
    assert "budget refused" in capsys.readouterr().err


@pytest.mark.parametrize("argv,size,budget", [
    ("verify --space O2+O4 --k 2 --primes 7 --budget 1000000 --suite closure", 6_865_251, 1_000_000),
    ("verify --space O2+O4 --k 2 --primes 7 --budget 1000000 --suite towers", 6_865_251, 1_000_000),
    ("closure --space O2+O4 --k 2 --prime 7 --budget 1000000", 6_865_251, 1_000_000),
    ("resolve --space O6 --label 3:0p --budget 1000", 33_880, 1000),
])
def test_budget_refuses_before_the_first_tower_walk(monkeypatch, capsys, argv, size, budget):
    # every tower a command walks is sized first, and the refusal names the
    # largest: the 6,865,251 points of (0:0,2:2), where the walks of the
    # smaller towers used to come first, or the P~ walk of Gr_3(F_3^6)
    walks = []
    monkeypatch.setattr(towers, "_walk", lambda *args: walks.append(args) or iter(()))
    assert main(argv.split()) == EXIT_BUDGET
    assert walks == []
    err = capsys.readouterr().err
    assert err == f"budget refused: enumeration of ~{size} subspaces exceeds budget {budget}\n"


def test_fiber_walks_are_sized_before_the_first(monkeypatch, capsys):
    # the fibers suite knows every (label, prime) it samples once the closure
    # rows are in: the largest P~ walk, O4's Gr_2(F_11^4), is refused before
    # any walk under a target; only the rows' whole-tower walks at p = 3 and
    # the open-stratum counts come first
    walks = []
    real = towers._walk
    monkeypatch.setattr(towers, "_walk", lambda *args: walks.append(args) or real(*args))
    argv = "verify --space O4 --suite fibers --budget 130"
    assert main(argv.split()) == EXIT_BUDGET
    assert walks and all(c.dim == space.n for space, jobs, _ in walks for _, c in jobs)
    assert capsys.readouterr().err == "budget refused: enumeration of ~16226 subspaces exceeds budget 130\n"


def test_budget_refuses_a_step_above_the_budget(capsys):
    # a fiber walk sizes its P~ walks (one point each here) but not its
    # between-steps, whose Grassmannians depend on the target: the P_2 step
    # walks Gr_1(F_3^2), 4 points
    argv = "fibers --space O2+O3 --label 1:1,1:1 --target-label 2:2,0:0 --primes 3 --budget"
    assert main([*argv.split(), "3"]) == EXIT_BUDGET
    assert capsys.readouterr().err == "budget refused: enumeration of ~4 subspaces exceeds budget 3\n"
    assert main([*argv.split(), "4"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"][0]["fiber_size"] == 4


@pytest.mark.parametrize("argv,size,budget", [
    ("count --space O2+O3 --k 2 --primes 3,5,7,11,13 --budget 2000000", 5_259_970, 2_000_000),
    ("labels --space O2+O3 --k 2 --primes 3,5,7,11,13 --budget 2000000", 5_259_970, 2_000_000),
    ("verify --space O2+O3 --suite partition --primes 3,5,7,11,31 --budget 2000000",
     918_041_410, 2_000_000),
    ("verify --suite paving --primes 3,31 --budget 100000", 918_041_410, 100_000),
    # p = 11's Gr_2(F_11^5) is a sample that k = 2 needs, after k = 0 and 1 had
    # sampled the smaller primes
    ("verify --space O2+O3 --suite degrees --budget 1000000", 1_964_810, 1_000_000),
])
def test_budget_refuses_before_the_first_grassmannian_walk(monkeypatch, capsys, argv, size, budget):
    # every Gr_k(F_p^n) a command walks is sized first, and the refusal names
    # the largest: p = 13's Gr_2(F_13^5), or Gr_2(F_31^5), of O2+O3 and of the
    # paving suite's O5, where the walks at the smaller primes (and forms)
    # used to come first
    walks = []
    monkeypatch.setattr(sumspace, "_COUNTS_CACHE", {})
    monkeypatch.setattr(_batch, "iter_chunks", lambda *args: walks.append(args) or iter(()))
    assert main(argv.split()) == EXIT_BUDGET
    assert walks == []
    err = capsys.readouterr().err
    assert err == f"budget refused: enumeration of ~{size} subspaces exceeds budget {budget}\n"


def test_json_determinism(capsys):
    main(["labels", "--space", "Sp2+O2", "--k", "1", "--primes", "3"])
    first = capsys.readouterr().out
    main(["labels", "--space", "Sp2+O2", "--k", "1", "--primes", "3"])
    second = capsys.readouterr().out
    assert first == second
    # round-trips through json into an equal document
    assert json.loads(first) == json.loads(second)


def test_closure_dot_export():
    report = cmd_closure("Sp4", 2)
    dot = cmd_export(report, "dot")
    assert dot.startswith("digraph closure {")
    assert "rankdir=BT" in dot
    assert dot.count("->") == 1  # (2:0) -> (2:2)

    single = cmd_closure("Sp4", 0)
    dot = cmd_export(single, "dot")
    assert "->" not in dot


def test_csv_export():
    report = cmd_labels("Sp4", 2, primes=(3,))
    out = cmd_export(report, "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "label,dim,component_group_order,count_q3"
    assert len(lines) == 3

    empty = cmd_labels("Sp4", 5)
    assert cmd_export(empty, "csv").strip() == "label,dim,component_group_order"
    assert json.loads(cmd_export(empty, "json"))["results"] == []


def test_count_out_of_range_is_empty():
    from isograss.cli import cmd_count

    report = cmd_count("Sp4", 9, primes=(3,))
    assert report["results"] == []


def test_paving_count_polynomial_check_can_fail(monkeypatch, capsys):
    # the paving's count polynomial is checked against the closed form: a
    # wrong closed form fails the check, and the report keeps its details
    assert main(["paving", "--space", "Sp4", "--k", "2"]) == EXIT_OK
    good = json.loads(capsys.readouterr().out)
    real = cli.iso_grassmannian_count
    monkeypatch.setattr(cli, "iso_grassmannian_count", lambda *args: real(*args) + IntPolynomial([1]))
    assert main(["paving", "--space", "Sp4", "--k", "2"]) == EXIT_CHECK_FAILED
    [check] = json.loads(capsys.readouterr().out)["checks"]
    [want] = good["checks"]
    assert check == {**want, "passed": False} and want["passed"]


def test_export_roundtrip_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert (
        main(["closure", "--space", "Sp2+O2", "--k", "1", "--out", str(out)])
        == EXIT_OK
    )
    assert main(["export", "--in", str(out), "--format", "dot"]) == EXIT_OK
    dot = capsys.readouterr().out
    assert "digraph closure" in dot


def test_resolve_check_passes():
    report = cmd_resolve("Sp2+Sp2", parse_label_arg("1:0,1:0"))
    assert report["checks"][0]["passed"]
    assert report["results"][0]["count_polynomial"] == [1, 3, 3, 1]


def test_resolve_repro_keeps_prime():
    # the check names q=5, so its repro line must rerun at p = 5, not at the default
    check = cmd_resolve("Sp4", parse_label_arg("2:0"), prime=5)["checks"][0]
    assert check["name"] == "tower count at q=5"
    argv = shlex.split(check["repro"])
    assert argv[0] == "isograss"
    args = make_parser().parse_args(argv[1:])
    assert args.prime == 5
    assert args.space_spec == "Sp4" and parse_label_arg(args.label) == parse_label_arg("2:0")


def test_verify_cli_k_filter(capsys):
    code = main(
        ["verify", "--space", "Sp4", "--k", "2", "--suite", "partition", "--primes", "3"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] and all(c["passed"] for c in report["checks"])


def test_verify_k_outside_every_space_is_usage_error(capsys):
    # a k that no selected space has would examine nothing and pass
    assert main(["verify", "--space", "Sp2", "--suite", "partition", "--k", "7"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: need 0 <= k <= 2, got 7\n"
    # k = 5 exists only in O2+O3, so the grid run goes ahead
    assert main(["verify", "--suite", "partition", "--k", "5", "--primes", "3"]) == EXIT_OK


# one valid invocation per subcommand
VALID = {
    "labels": ["labels", "--space", "Sp4", "--k", "2"],
    "classify": ["classify", "--space", "Sp4", "--rows", "1,0,0,0", "--prime", "3"],
    "count": ["count", "--space", "Sp4", "--k", "2", "--primes", "3"],
    "paving": ["paving", "--space", "Sp4", "--k", "2"],
    "resolve": ["resolve", "--space", "Sp4", "--label", "2:0"],
    "fibers": ["fibers", "--space", "O4", "--label", "2:1", "--target-label", "2:0p"],
    "closure": ["closure", "--space", "Sp4", "--k", "2"],
    "verify": ["verify", "--space", "Sp2", "--suite", "partition", "--primes", "3"],
}
# --format exists only where there is a choice; every other command writes JSON
FORMATS = {
    "labels": {"json", "csv"},
    "count": {"json", "csv"},
    "closure": {"json", "dot"},
    "export": {"json", "dot", "csv"},
}


def test_parser_options_are_command_parameters():
    parser = make_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subs.choices) == set(VALID) | {"export"}
    for name, sp in subs.choices.items():
        options = {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
        run = sp.get_default("run")
        assert run is not None, name
        assert set(options) - {"format", "out"} == set(inspect.signature(run).parameters), name
        assert "out" in options, name
        fmt = options.get("format")
        assert (set(fmt.choices) if fmt else None) == FORMATS.get(name), name


UNREAD = [
    VALID[command] + option
    for commands, option in (
        (("classify", "paving"), ["--budget", "5"]),
        (("classify", "paving", "resolve", "fibers", "closure"), ["--workers", "2"]),
        (("classify", "paving", "resolve", "fibers", "verify"), ["--format", "json"]),
        (("labels", "count"), ["--format", "dot"]),
        (("closure",), ["--format", "csv"]),
    )
    for command in commands
]


@pytest.mark.parametrize("argv", UNREAD, ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
def test_unread_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--space", "Sp4", "--label", "2:1"],
        ["fibers", "--space", "O4", "--label", "2:5"],
        ["resolve", "--space", "Sp4", "--label", "2-0"],
        ["count", "--space", "O2", "--k", "1", "--primes", "3,x"],
        # a target of the wrong dimension is not a point outside the closure
        ["fibers", "--space", "O4", "--label", "2:1", "--target-label", "1:0", "--primes", "3"],
        # every prime is checked, even where an out-of-range k counts nothing
        ["count", "--space", "O2", "--k", "5", "--primes", "4"],
        ["labels", "--space", "O2", "--k", "5", "--primes", "3,4"],
    ],
)
def test_bad_values_are_usage_errors(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_assertion_exit_code(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("tower invariant")

    monkeypatch.setattr(cli, "tower_points", broken)
    assert main(VALID["resolve"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: AssertionError('tower invariant')"]


@pytest.mark.parametrize(
    "error",
    [RuntimeError("boom"), InvariantMismatch("lost a line"), InterpolationError("no fit"),
     FloatingPointError("overflow")],
    ids=lambda error: type(error).__name__,
)
def test_unexpected_exception_exit_code(monkeypatch, capsys, error):
    # an exception outside the taxonomy is a bug in isograss, not a failed
    # check: exit 4 and one line, never a traceback with exit 1
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "tower_points", broken)
    assert main(VALID["resolve"]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"internal error: {error!r}"]


def test_exhausted_prime_pool_is_a_usage_error(capsys):
    # more sampling primes than the pool holds: no budget helps
    big = str(10**40)
    assert main(["verify", "--space", "O7", "--suite", "degrees", "--k", "3", "--budget", big]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: degree 11 needs 12 sampling primes; the pool 3..31 has 10\n"


def test_fibers_checks_the_open_stratum(capsys):
    # one check per prime over the label's own stratum, none over another
    assert main(["fibers", "--space", "O4", "--label", "2:1"]) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [
        {"name": f"open-stratum fiber at q={p}", "passed": True, "details": "1 points, expected 1",
         "repro": f"isograss fibers --space O4 --label 2:1 --primes {p}"}
        for p in (3, 5)
    ]
    assert main(VALID["fibers"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["checks"] == []


def test_broken_bijectivity_is_a_failed_check(monkeypatch, capsys):
    # every non-empty walk, whole or under a target, repeats its first point:
    # a broken law writes its report and exits 1, in verify and in fibers
    real = towers._walk

    def repeated(space, jobs, budget):
        return [take_points(points, [*range(len(points)), *range(len(points))[:1]])
                for points in real(space, jobs, budget)]

    monkeypatch.setattr(towers, "_walk", repeated)
    assert main(["verify", "--space", "O2", "--suite", "fibers"]) == EXIT_CHECK_FAILED
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "fibers bijectivity O2 p=3" in [c["name"] for c in checks if not c["passed"]]
    assert main(["fibers", "--space", "O4", "--label", "2:1", "--primes", "3"]) == EXIT_CHECK_FAILED
    [check] = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "open-stratum fiber at q=3" and not check["passed"]
    assert check["details"] == "2 points, expected 1"


def test_one_resolution_row_feeds_towers_and_bijectivity(monkeypatch, capsys):
    # a tower point repeated over the open stratum: the point count and the
    # bijectivity check read the same row, so exactly those two fail
    def repeated(space, label, points):
        labels = stack_labels(space, [datum.hs[-1] for datum in flag_data(points)])
        return take_points(points, [*range(len(points)), labels.index(label)])

    monkeypatch.setattr(towers, "_walk", edit_whole_walks(towers._walk, repeated))
    assert main(["verify", "--space", "O2"]) == EXIT_CHECK_FAILED
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [c["name"] for c in checks if not c["passed"]]
    assert failed == ["towers O2 p=3", "fibers bijectivity O2 p=3"]


def test_io_errors_are_usage_errors(tmp_path, capsys):
    count_report = tmp_path / "count.json"
    assert main(VALID["count"] + ["--out", str(count_report)]) == EXIT_OK
    not_a_report = tmp_path / "list.json"
    not_a_report.write_text("[]")
    bad_rows = tmp_path / "bad_rows.json"
    bad_rows.write_text('{"results": [1]}')
    bad_nodes = tmp_path / "bad_nodes.json"
    bad_nodes.write_text('{"results": [{"nodes": [1]}]}')
    for argv in (
        ["export", "--in", str(tmp_path / "missing.json")],
        VALID["labels"] + ["--out", str(tmp_path / "missing" / "out.json")],
        ["export", "--in", str(count_report), "--format", "dot"],
        ["export", "--in", str(not_a_report)],
        ["export", "--in", str(bad_rows), "--format", "csv"],
        ["export", "--in", str(bad_nodes), "--format", "dot"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, argv


def test_export_ignores_report_checks(tmp_path, capsys):
    failed = {"name": "c", "passed": False, "details": "", "repro": ""}
    report = cli.bundle("resolve", {}, [], [failed])
    path = tmp_path / "failed.json"
    path.write_text(json.dumps(report))
    assert main(["export", "--in", str(path)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == report


def test_dimensions_above_16_are_usage_errors(capsys):
    # 24 O1 factors overflowed the bulk classifier's label codes, and the
    # wrong label then broke the report (exit 4); Sp18 got a catalog
    spec = "+".join(["O1"] * 24)
    rows = ",".join(["1"] + ["0"] * 22 + ["1"])
    for argv in (
        ["classify", "--space", spec, "--rows", rows, "--prime", "3"],
        ["labels", "--space", "Sp18", "--k", "1"],
    ):
        assert main(argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: space dimension n=") and "n <= 16" in captured.err


def _edge_calls(spec, n, label, p, budget):
    """One call of each space command, and of each verify suite, on
    ``spec`` at prime ``p``, with ``budget`` wherever the command takes one."""
    b = ["--budget", str(budget)]
    rows = ",".join(["1"] + ["0"] * (n - 1))
    return [
        ["labels", "--space", spec, "--k", "1", "--primes", str(p), *b],
        ["classify", "--space", spec, "--rows", rows, "--prime", str(p)],
        ["count", "--space", spec, "--k", "1", "--primes", str(p), *b],
        ["paving", "--space", spec, "--k", "1", "--prime", str(p)],
        ["resolve", "--space", spec, "--label", label, "--prime", str(p), *b],
        ["fibers", "--space", spec, "--label", label, "--primes", str(p), *b],
        ["closure", "--space", spec, "--k", "1", "--prime", str(p), *b],
        *(["verify", "--space", spec, "--suite", suite, "--primes", str(p), *b]
          for suite in (*cli.SUITE_NAMES, "all")),
    ]


def test_domain_edge_answers_or_refuses_within_seconds(tmp_path, capsys):
    # n = 16 is the largest dimension accepted and n = 17 a usage error.
    # Budgets 0 and 1 refuse before any walk and the default --workers 1
    # starts no pool, so every call is quick; exit 4 is a bug at any input.
    # The paving of O16 at 997 took 40 s while it waited for 2^14
    # isotropic lines per level.
    report = tmp_path / "o16.json"
    calls = [["paving", "--space", "O16", "--k", "1", "--prime", "997", "--out", str(report)]]
    for spec, n, label in (("O16", 16, "1:1"), ("Sp16", 16, "1:0"), ("Sp16+O1", 17, "1:0,0:0")):
        calls += [argv for p in (3, 997) for budget in (0, 1) for argv in _edge_calls(spec, n, label, p, budget)]
    calls.append(["export", "--in", str(report)])
    for argv in calls:
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_BUDGET), (argv, err)
        if "Sp16+O1" in argv:
            assert code == EXIT_USAGE and "n=17" in err, argv
        assert elapsed < 5, (argv, elapsed)


def test_o16_tower_refusals_build_no_paving(monkeypatch, capsys):
    # every tower a suite reads is sized from the closed-form isotropic
    # counts, so the largest refusals at n = 16 choose no paving line
    def refuse(*args):
        raise AssertionError("a paving line was chosen")

    monkeypatch.setattr(paving, "_choose_line", refuse)
    want = f"budget refused: enumeration of ~{subspace_total(16, 8, 3)} subspaces exceeds budget 0"
    for suite in ("towers", "closure", "fibers"):
        argv = ["verify", "--space", "O16", "--suite", suite, "--primes", "3", "--budget", "0"]
        assert main(argv) == EXIT_BUDGET, suite
        assert capsys.readouterr().err.strip() == want, suite


FACTORS = {"Sp2": 2, "Sp4": 4, "Sp6": 6, "O1": 1, "O2": 2, "O3": 3, "O4": 4, "O5": 5, "O6": 6}


@st.composite
def _invocations(draw):
    """One command (all but export, which reads a saved report) on a drawn
    sum of Sp2-Sp6 and O1-O6 with n <= 16, with every option its function
    takes.  The default budget is drawn only for labels and count on small
    inputs, where a whole walk is cheap; classify and paving take no budget."""
    factors = draw(st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=4)
                   .filter(lambda fs: sum(FACTORS[f] for f in fs) <= 16))
    spec, n = "+".join(factors), sum(FACTORS[f] for f in factors)
    p = draw(st.sampled_from((3, 5, 7, 997)))
    commands = {command: run for command, run, *_ in cli._COMMANDS if command != "export"}
    name = draw(st.sampled_from(sorted(commands)))
    k = draw(st.integers(0, n))
    labels = st.sampled_from(enumerate_multilabels(build_sum_space(spec, 3), k)).map(cli.label_arg)
    small = n <= 4 and p <= 7 and name in ("labels", "count")
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n).map(lambda r: ",".join(map(str, r)))
    options = {
        "space_spec": st.just(spec),
        "k": st.none() | st.just(k) if name == "verify" else st.just(k),
        "primes": st.just(p),
        "prime": st.just(p),
        "rows_text": st.lists(row, min_size=max(k, 1), max_size=max(k, 1)).map(";".join),
        "label": labels,
        "target_label": st.none() | labels,
        "suite": st.sampled_from(cli.SUITE_NAMES + ("all",)),
        "budget": st.sampled_from((0, 1, 1000) + ((None,) if small else ())),
        "workers": st.sampled_from((1, 2)),
    }
    argv = [name]
    for param in inspect.signature(commands[name]).parameters:
        value = draw(options[param])
        if value is not None:  # the command's default
            argv += [cli._OPTIONS[param][0], str(value)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_invocations())
def test_accepted_domain_answers_or_refuses(monkeypatch, capsys, argv):
    # a drawn command exits 0-3, never 4; a budget refusal comes before the
    # work it refuses; and a report is the same bytes on a second run.  No
    # pool may start: budgets this small never reach its threshold.  The
    # draws are derandomized, so every run checks the same 300 commands; the
    # two fixtures serve every example alike
    def no_pool(*args, **kwargs):
        raise RuntimeError("a worker pool was started")

    monkeypatch.setattr(sumspace, "ProcessPoolExecutor", no_pool)
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_BUDGET), (argv, err)
    if code == EXIT_BUDGET:
        assert elapsed < 2, (argv, elapsed)
    if code in (EXIT_OK, EXIT_CHECK_FAILED):
        assert main(argv) == code
        assert capsys.readouterr().out == out, argv
