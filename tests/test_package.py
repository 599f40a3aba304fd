import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import countercheck

SRC = Path(countercheck.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent


def _fresh(code: str, site: bool = False) -> str:
    """The stdout of ``code`` run in a new interpreter, by default without
    ``site``, so that only the interpreter, the package and ``code`` load
    modules."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    flags = [] if site else ["-S"]
    done = subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def test_every_exported_name_resolves_once():
    names = countercheck.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(countercheck, name), name


def test_names_and_modules_resolve_on_first_access():
    loaded = json.loads(_fresh("""
        import json, sys
        import countercheck
        names = {name: getattr(countercheck, name).__module__ for name in ("decide", "CCA", "emit_phi")}
        print(json.dumps([countercheck.emptiness.__name__, countercheck.harness.__name__, names]))
    """))
    assert loaded == [
        "countercheck.emptiness",
        "countercheck.harness",
        {"decide": "countercheck.emptiness", "CCA": "countercheck.cca", "emit_phi": "countercheck.logic"},
    ]
    for module in ("cca", "cli", "emptiness", "exponents", "expr", "harness", "logic", "nfa", "translate"):
        assert getattr(countercheck, module).__name__ == f"countercheck.{module}"
    assert set(countercheck.__all__) <= set(dir(countercheck))
    assert not hasattr(countercheck, "no_such_name")


def test_importing_the_package_loads_no_module():
    loaded = _fresh("""
        import sys
        import countercheck
        print(sorted(name for name in sys.modules if name.startswith("countercheck.")))
    """)
    assert loaded == "[]\n"


def test_an_emptiness_command_loads_only_what_it_runs(tmp_path):
    from countercheck.cca import export
    from countercheck.emptiness import decide
    from countercheck.expr import parse_omega_t
    from countercheck.translate import compile_expression

    automaton = compile_expression(parse_omega_t("(a b)^w", "ab"), "ab")
    (tmp_path / "m.json").write_text(export(automaton, "json"), encoding="utf-8")
    (tmp_path / "w.json").write_text(json.dumps(decide(automaton).witness.to_json_dict()), encoding="utf-8")
    loaded = json.loads(_fresh(f"""
        import contextlib, io, json, sys
        from countercheck import cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = cli.main(["empty", "(a 0)^w"])
        after_empty = sorted(sys.modules)
        argv = ["verify", "--automaton", {str(tmp_path / "m.json")!r}, "--witness", {str(tmp_path / "w.json")!r}]
        with contextlib.redirect_stdout(io.StringIO()) as checked:
            verified = cli.main(argv)
        print(json.dumps([status, out.getvalue(), after_empty, verified, checked.getvalue(), sorted(sys.modules)]))
    """))
    status, out, modules, verified, checked, after_verify = loaded
    assert (status, out) == (0, "EMPTY\n")
    assert "countercheck.emptiness" in modules
    for name in ("countercheck.logic", "countercheck.exponents", "countercheck.harness", "random"):
        assert name not in modules, name
    assert (verified, checked) == (0, "WITNESS OK\n")
    for name in ("countercheck.reference", "countercheck.harness"):
        assert name not in modules and name not in after_verify, name


def test_importing_emptiness_leaves_the_references_unloaded():
    loaded = _fresh("""
        import sys
        import countercheck.emptiness
        print("countercheck.reference" in sys.modules)
    """)
    assert loaded == "False\n"


def test_emptiness_imports_the_references_only_in_its_alias():
    # the decision's module may not depend on its cross-checks; the one
    # exception is the module-level __getattr__ that answers an old name
    tree = ast.parse((SRC / "countercheck" / "emptiness.py").read_text(encoding="utf-8"))
    aliases = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"]
    inside = {id(node) for alias in aliases for node in ast.walk(alias)}
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "reference" in ast.unparse(node)
        and id(node) not in inside
    ]
    assert found == []


def _sources() -> dict[str, ast.Module]:
    """The syntax tree of every module of the package, by module name."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "countercheck").glob("*.py"))
    }


def _private_imports(source: str) -> dict[str, list[str]]:
    """Per module of the package, the underscore names it imports from the
    module ``source``."""
    found = {}
    for module, tree in _sources().items():
        names = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == source
            for alias in node.names
            if alias.name.startswith("_")
        ]
        if names:
            found[module] = names
    return found


def test_only_harness_imports_private_names_and_only_from_the_references():
    # the decision's checker is public, so no module needs a private name of
    # emptiness; harness builds one phase table per fuzz case and hands it
    # to the references it runs, which is the one reason to reach into them
    assert _private_imports("emptiness") == {}
    assert set(_private_imports("reference")) == {"harness"}


def test_every_name_no_code_calls_is_exported():
    # a module-level function or class that nothing in the package names is
    # either public API, listed in _EXPORTS, or dead code to delete
    trees = _sources()
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unnamed = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in named
    }
    exported = {(module, name) for module, names in countercheck._EXPORTS.items() for name in names}
    assert unnamed - exported == set()


def test_commands_without_a_decision_leave_emptiness_unloaded():
    loaded = json.loads(_fresh("""
        import contextlib, io, json, sys
        from countercheck import cli
        statuses = []
        for argv in (
            ["parse", "(a^T b)^w"],
            ["compile", "(a^T b)^w"],
            ["dot", "(a^T b)^w"],
            ["simulate", "(a^T b)^w", "--word", "ab"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                statuses.append(cli.main(argv))
        print(json.dumps([statuses, sorted(sys.modules)]))
    """))
    statuses, modules = loaded
    assert statuses == [0, 0, 0, 0]
    for name in ("countercheck.emptiness", "countercheck.logic", "countercheck.exponents", "countercheck.harness"):
        assert name not in modules, name


def test_the_first_record_of_each_class_generates_no_code():
    # a forked worker whose parent never built a record must not pay for
    # code generation on its first one; the samples are built after the
    # hook is in place, and code compiled from text runs as "<string>"
    built = _fresh("""
        import copy, dataclasses, pickle, sys
        import pytest, conftest
        from countercheck import cca, emptiness, exponents, harness, nfa, translate

        def refuse(event, args):
            if event == "exec" and args[0].co_filename == "<string>":
                raise AssertionError("code generated at run time")

        sys.addaudithook(refuse)
        import test_records
        for cls, fields in test_records.SAMPLES.items():
            cls(**fields)
        print(len(test_records.SAMPLES))
    """, site=True)
    assert built == "18\n"
