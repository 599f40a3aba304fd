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


def test_an_emptiness_command_loads_only_what_it_runs():
    loaded = json.loads(_fresh("""
        import contextlib, io, json, sys
        from countercheck import cli
        with contextlib.redirect_stdout(io.StringIO()) as out:
            status = cli.main(["empty", "(a 0)^w"])
        print(json.dumps([status, out.getvalue(), sorted(sys.modules)]))
    """))
    status, out, modules = loaded
    assert (status, out) == (0, "EMPTY\n")
    assert "countercheck.emptiness" in modules
    for name in ("countercheck.logic", "countercheck.exponents", "countercheck.harness", "random"):
        assert name not in modules, name


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
