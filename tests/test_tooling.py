import ast
import importlib.util
import inspect
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import isograss
from isograss.cli import _COMMANDS, main, make_parser

SRC = Path(isograss.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_no_bare_asserts_in_package():
    # `python -O` strips assert statements, so package checks must raise
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "--space", "Sp4", "--label", "2:0"],
        ["fibers", "--space", "O4", "--label", "2:1", "--target-label", "2:0p", "--primes", "3"],
        ["verify", "--space", "O3", "--suite", "all"],
    ],
)
def test_optimized_run_writes_same_bytes(argv, capsysbinary):
    # the AST check above keeps asserts out of the package; this runs it with
    # asserts stripped and wants the report bytes and exit code of a plain run
    code = main(argv)
    want = capsysbinary.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    run = "import sys; from isograss.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", run, *argv], env=env, capture_output=True, timeout=300
    )
    assert (proc.returncode, proc.stdout) == (code, want)
    assert want


def test_enumerations_name_their_budget():
    # a call that leaves out the budget enumerates under the default one and
    # ignores its caller's; an explicit `budget=None` is a visible choice
    from isograss.linalg import enumerate_subspaces, subspaces_between
    from isograss.paving import isotropic_bases, isotropic_subspaces

    slot = {
        fn.__name__: list(inspect.signature(fn).parameters).index("budget")
        for fn in (enumerate_subspaces, isotropic_bases, isotropic_subspaces, subspaces_between)
    }
    calls, offenders = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in slot:
                continue
            calls += 1
            if len(node.args) <= slot[name] and "budget" not in {kw.arg for kw in node.keywords}:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert calls and offenders == []


def test_budget_rule_has_one_home():
    # every refusal comes from one rule: only BudgetExceeded.check raises
    # the exception, and only within_budget compares a size with a budget,
    # so `budget=None` is no bound at every site that takes one
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # a class's methods come after it, so a node ends up owned by its method
        for qualname, node in _package_defs(tree):
            owner.update({id(inner): qualname for inner in ast.walk(node)})
        for node in ast.walk(tree):
            constructs = isinstance(node, ast.Call) and (
                getattr(node.func, "id", getattr(node.func, "attr", None)) == "BudgetExceeded")
            compares = isinstance(node, ast.Compare) and any(
                getattr(side, "id", None) == "budget" for side in (node.left, *node.comparators))
            if constructs or compares:
                sites.add((type(node).__name__, owner.get(id(node), path.name)))
    assert sites == {("Call", "BudgetExceeded.check"), ("Compare", "within_budget")}


def test_readme_cli_examples_parse():
    # parse only: the README's CLI block must stay in step with the option table
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("isograss ")]
    assert examples
    parser = make_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_traced_layers_exist(monkeypatch):
    # perfbench/tracer.py wraps these by name: a renamed function must fail
    # here, not silently drop out of a `--trace 1` run.  Tracer.install reads
    # each from its module's (or class's) own __dict__, so each must stay a
    # function defined there, not one imported from elsewhere.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = []
    for layer in tracer.LAYERS:
        name = f"isograss.{layer.module}"
        owner = importlib.import_module(name)
        for attr in layer.attr.split("."):
            owner = vars(owner).get(attr) if owner is not None else None
        if not inspect.isfunction(owner) or owner.__module__ != name:
            missing.append(f"{layer.module}.{layer.attr}")
    assert tracer.LAYERS and missing == []


def _package_defs(tree):
    """(name, node) of each top-level function and class, and of each
    non-dunder method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield f"{node.name}.{method.name}", method


def test_package_names_have_package_callers():
    # a function, class or method that only tests reach is a second API to
    # keep in step: such a name belongs in the test that uses it.  Exempt:
    # multilabel_of, the definitional per-subspace classifier that checks
    # the bulk one and that perfbench/tracer.py wraps by name.  Only the
    # last part of a name is matched: a function or class counts as reached
    # by any use of its name, a method only by an attribute access `.name`,
    # so a local variable that shares a method's name does not reach it.
    # Also exempt: subspaces_between and closure_labels, the one-pair view of
    # linalg.between_stack and the one-label view of towers.closure_rows,
    # which tests and perfbench/tracer.py read by name; and subspace_sum, a
    # package export that perfbench/tracer.py wraps by name.
    exempt = {"multilabel_of", "subspaces_between", "closure_labels", "subspace_sum"}
    paths = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    trees = [ast.parse(path.read_text()) for path in paths]
    names: dict[str, set[int]] = {}
    attributes: dict[str, set[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, set()).add(id(node))

    def uses(qualname, name):
        found = attributes.get(name, set())
        return found if "." in qualname else found | names.get(name, set())

    unreached = [
        qualname
        for tree in trees
        for qualname, node in _package_defs(tree)
        if node.name not in exempt
        and not uses(qualname, node.name) - {id(inner) for inner in ast.walk(node)}
    ]
    assert unreached == []


def _defaulted_params(tree):
    """(name, callee, slot, param) of each defaulted parameter of each
    function and method: its qualified name, the name calls use (the class's
    for an __init__), its positional slot as a call sees it (None if
    keyword-only) and the parameter's name."""
    owner = {
        id(method): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        name = node.name if cls is None else f"{cls}.{node.name}"
        callee = cls if node.name == "__init__" else node.name
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for slot, arg in enumerate(positional[first:], start=first - (cls is not None)):
            yield name, callee, slot, arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, callee, None, arg.arg


def _splat_keys(func, name):
    """Keys of the dict literals that ``func`` assigns to ``name``."""
    return {
        key.value
        for node in ast.walk(func)
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets)
        for literal in ast.walk(node.value)
        if isinstance(literal, ast.Dict)
        for key in literal.keys
        if isinstance(key, ast.Constant)
    }


def _sets(call, func, slot, param):
    """Whether a call made in ``func`` passes the parameter: by keyword, by
    position, through a ``*`` splat, or through a ``**name`` splat whose
    dict literals in ``func`` hold the key.  Any other ``**`` splat sets
    nothing."""
    for kw in call.keywords:
        if kw.arg == param:
            return True
        if kw.arg is None and func is not None and isinstance(kw.value, ast.Name):
            if param in _splat_keys(func, kw.value.id):
                return True
    if slot is None:
        return False
    return len(call.args) > slot or any(isinstance(a, ast.Starred) for a in call.args)


def test_defaulted_parameters_have_package_setters():
    # a default that no package code overrides is one value in use: it
    # belongs in the body as a constant.  A parameter counts as set when a
    # package call passes it, or when its function is a CLI command, whose
    # parameters the parser fills.  Only the last part of a callee is
    # matched, as for the callers above.  Exempt: classify_counts's slice
    # (the worker pool passes it through `submit`) and chunk (ROADMAP item 9
    # keeps the tests' chunk sizes); main's argv and suite_witt's seed,
    # which the benchmark sets; the budgets of subspaces_between and
    # closure_labels, whose callers are the tests (see
    # test_package_names_have_package_callers).
    exempt = {
        "classify_counts.start",
        "classify_counts.stop",
        "classify_counts.chunk",
        "main.argv",
        "suite_witt.seed",
        "subspaces_between.budget",
        "closure_labels.budget",
    }
    commands = {run.__name__ for _, run, _, _ in _COMMANDS}
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    calls: dict[str, list[tuple[ast.Call, ast.FunctionDef | None]]] = {}
    for tree in trees:
        # ast.walk visits an outer function before the ones nested in it, so
        # each node ends up owned by its innermost function
        owner = {
            id(node): func
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append((node, owner.get(id(node))))
    unset = [
        f"{name}.{param}"
        for tree in trees
        for name, callee, slot, param in _defaulted_params(tree)
        if name not in commands
        and f"{name}.{param}" not in exempt
        and not any(_sets(call, func, slot, param) for call, func in calls.get(callee, []))
    ]
    assert unset == []


def _loaded_names(tree, attributes=False):
    """Names a module reads: loaded Name ids, and with ``attributes`` also
    the last part of each loaded attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif attributes and isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def test_module_constants_have_package_readers():
    # a module-level name that nothing in the package reads is dead API,
    # like a function without a caller; its own assignment does not count
    trees = [(path, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    reads = set().union(*(_loaded_names(tree, attributes=True) for _, tree in trees))
    unread = [
        f"{path.name}:{target.id}"
        for path, tree in trees
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and not target.id.startswith("__")
        and target.id not in reads
    ]
    assert unread == []


def test_imported_names_are_read():
    # an import its module never reads is a dead dependency; __init__.py
    # imports in order to export
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        reads = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in reads:
                        unread.append(f"{path.name}:{name}")
    assert unread == []


def test_internal_invariants_are_named():
    # `raise AssertionError` is an internal invariant: cli.main exits 4 and
    # writes no report.  A law of the paper belongs in a report check that
    # can fail (exit 1), so a new invariant site must be added here on purpose.
    # None is left: each construction that had one is either guaranteed by
    # the code before it or held by a verify check
    sites = sorted(
        qualname
        for path in sorted(SRC.glob("*.py"))
        for qualname, node in _package_defs(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Raise)
        and getattr(getattr(inner.exc, "func", inner.exc), "id", None) == "AssertionError"
    )
    assert sites == []


def test_form_terms_have_one_home():
    # a form's terms are built once per space: BilinearSpace.terms is the
    # one package caller of _batch.form_terms, and every Gram reader takes
    # a space's terms
    callers = [
        (path.name, qualname)
        for path in sorted(SRC.glob("*.py"))
        for qualname, node in _package_defs(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        for inner in ast.walk(node)
        if isinstance(inner, ast.Call)
        and getattr(inner.func, "id", getattr(inner.func, "attr", None)) == "form_terms"
    ]
    assert callers == [("bilinear.py", "BilinearSpace.terms")]


def test_verify_results_come_from_one_helper():
    # one failure-detail policy: every check of a suite is built by
    # verify._result, which keeps the first four failures
    tree = ast.parse((SRC / "verify.py").read_text())
    [helper] = [node for node in tree.body if getattr(node, "name", None) == "_result"]

    def builds(root):
        return [
            node
            for node in ast.walk(root)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"
        ]

    assert len(builds(helper)) == 1 and builds(tree) == builds(helper)


def test_towers_imports_no_per_subspace_path():
    # the walk and the covering tower run on int stacks: no scalar span or
    # meet, and no walk that hands out one Subspace at a time
    names = {
        alias.name
        for node in ast.walk(ast.parse((SRC / "towers.py").read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    per_subspace = {"span", "subspace_intersect", "subspaces_between", "enumerate_subspaces",
                    "isotropic_subspaces"}
    assert names & per_subspace == set()


def test_witt_suite_calls_no_per_subspace_path():
    # the Witt suite draws, decomposes, checks and transports its subspaces
    # on int stacks: no scalar draw, span, sum, perp, radical, solver or
    # rref in its draws, its rounds or its table check
    tree = ast.parse((SRC / "verify.py").read_text())
    bodies = [node for node in tree.body
              if getattr(node, "name", None) in ("suite_witt", "_draw", "_witt_round", "_witt_table_ok")]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for body in bodies
        for node in ast.walk(body)
        if isinstance(node, ast.Call)
    }
    per_subspace = {"random_subspace", "span", "subspace_sum", "perp", "radical", "RowSolver", "rref"}
    assert len(bodies) == 4 and called & per_subspace == set()


def test_batch_imports_only_polynomials():
    # _batch reads the SumSpace it is given through its attributes; importing
    # sumspace (or a module that imports it) from here would be a cycle
    imported = set()
    for node in ast.walk(ast.parse((SRC / "_batch.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: _batch sits at the top of the package
                module = "isograss" + ("." + module if module else "")
            if module == "isograss":  # `from . import x`: x is a module
                imported.update(f"isograss.{alias.name}" for alias in node.names)
            else:
                imported.add(module)
    assert {name for name in imported if name.split(".")[0] == "isograss"} == {
        "isograss.polynomials"
    }
