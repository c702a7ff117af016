import json

import pytest

from isograss.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    CliError,
    cmd_classify,
    cmd_closure,
    cmd_export,
    cmd_labels,
    cmd_resolve,
    main,
    parse_label_arg,
)
from isograss.orbits import PRIME0
from isograss.sumspace import MultiLabel


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


def test_verify_cli_k_filter(capsys):
    code = main(
        ["verify", "--space", "Sp4", "--k", "2", "--suite", "partition", "--primes", "3"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] and all(c["passed"] for c in report["checks"])
