import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from countercheck.cca import export, hat
from countercheck import cli
from countercheck.cli import build_parser, main

from conftest import atom_a, flat_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_round_trip(capsys):
    code, out, _ = run(capsys, "parse", "(a^Tb)^w")
    assert code == 0
    assert out.strip() == "(a^T b)^w"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "a^T b")
    assert code == 2
    assert "error" in err


def test_parse_alphabet_enforced(capsys):
    code, _, err = run(capsys, "parse", "(a c)^w", "--alphabet", "ab")
    assert code == 2
    assert "c" in err


def test_empty_nonempty_with_witness(capsys):
    code, out, _ = run(capsys, "empty", "(a^T b)^w")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NONEMPTY"
    witness = json.loads("\n".join(lines[1:]))
    assert witness["begin"] < witness["end"]
    assert len(witness["pairs"]) == len(witness["checks"])


def test_empty_answer(capsys):
    code, out, _ = run(capsys, "empty", "0^w")
    assert code == 0
    assert out.strip() == "EMPTY"


def test_empty_deterministic(capsys):
    _, first, _ = run(capsys, "empty", "((a*b)* a^T b)^w")
    _, second, _ = run(capsys, "empty", "((a*b)* a^T b)^w")
    assert first == second


def test_witness_reverifies_via_verify_mode(capsys, tmp_path):
    code, out, _ = run(capsys, "compile", "(a^T b)^w")
    assert code == 0
    automaton_file = tmp_path / "auto.json"
    automaton_file.write_text(out, encoding="utf-8")

    code, out, _ = run(capsys, "empty", "--automaton", str(automaton_file))
    assert code == 0 and out.startswith("NONEMPTY")
    witness_file = tmp_path / "witness.json"
    witness_file.write_text("\n".join(out.splitlines()[1:]), encoding="utf-8")

    code, out, _ = run(
        capsys, "verify", "--automaton", str(automaton_file), "--witness", str(witness_file)
    )
    assert code == 0
    assert out.strip() == "WITNESS OK"


def test_verify_rejects_tampered_witness(capsys, tmp_path):
    code, compiled, _ = run(capsys, "compile", "(a^T b)^w")
    automaton_file = tmp_path / "auto.json"
    automaton_file.write_text(compiled, encoding="utf-8")
    code, out, _ = run(capsys, "empty", "--automaton", str(automaton_file))
    witness = json.loads("\n".join(out.splitlines()[1:]))
    witness["begin"] = witness["end"]
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(witness), encoding="utf-8")
    code, out, _ = run(
        capsys, "verify", "--automaton", str(automaton_file), "--witness", str(witness_file)
    )
    assert code == 1
    assert out.strip() == "WITNESS INVALID"


def test_compile_output_imports(capsys):
    from countercheck.cca import import_json

    code, out, _ = run(capsys, "compile", "(a b)^w")
    assert code == 0
    auto = import_json(out)
    assert auto.counters == 3


def test_compile_intermediate_dumps_sets(capsys):
    code, out, _ = run(capsys, "compile", "(a^T b)^w", "--intermediate")
    assert code == 0
    assert out.count("==") >= 8  # one banner per sub-expression
    assert "a^T" in out


def test_dot_output(capsys, tmp_path):
    automaton_file = tmp_path / "atom.json"
    automaton_file.write_text(export(hat(atom_a()), "json"), encoding="utf-8")
    code, out, _ = run(capsys, "dot", "--automaton", str(automaton_file))
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out
    assert "a/1:no_op" in out


def test_simulate_present_and_absent(capsys):
    code, out, _ = run(capsys, "simulate", "(a^T b)^w", "--word", "abab")
    assert code == 0
    assert out.splitlines()[0] == "PRESENT"
    code, out, _ = run(capsys, "simulate", "(a^T b)^w", "--word", "ba")
    assert code == 0
    assert out.strip() == "ABSENT"


def test_simulate_eps_budget(capsys):
    code, out, _ = run(capsys, "simulate", "(a b)^w", "--word", "abab", "--eps", "0")
    assert code == 0
    assert out.strip() == "ABSENT"


def test_classify_staircase_line(capsys):
    code, out, _ = run(capsys, "classify", "staircase")
    assert code == 0
    assert out.strip() == "bounded=false strictly_unbounded=false T=true"


def test_classify_interleave_line(capsys):
    code, out, _ = run(capsys, "classify", "interleave(const:1,ramp:2:1)")
    assert code == 0
    assert out.strip() == "bounded=false strictly_unbounded=false T=false"


def test_classify_bad_spec(capsys):
    code, _, err = run(capsys, "classify", "upward")
    assert code == 2
    assert "generator" in err or "error" in err


def test_formula_header_and_modes(capsys):
    code, out, _ = run(capsys, "formula", "(a^T b)^w")
    assert code == 0
    assert out.splitlines()[0].startswith("# schema:")
    assert "∃" in out

    code, ascii_out, _ = run(capsys, "formula", "(a^T b)^w", "--ascii")
    assert code == 0
    assert all(ord(c) < 128 for c in ascii_out)

    code, expanded, _ = run(capsys, "formula", "(a^T b)^w", "--expand-macros")
    assert code == 0
    assert "⊊" not in expanded


def test_fuzz_small_run(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "7", "--cases", "25", "--depth", "40")
    assert code == 0
    assert "25/25 cases agree" in out


def test_missing_expression_and_automaton(capsys):
    code, _, err = run(capsys, "empty")
    assert code == 2


def test_malformed_automaton_file_exits_cleanly(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["s"], "alphabet": ["a"]}', encoding="utf-8")
    code, _, err = run(capsys, "empty", "--automaton", str(bad))
    assert code == 2
    assert "malformed automaton JSON" in err


def test_malformed_witness_file_exits_cleanly(capsys, tmp_path):
    auto = tmp_path / "auto.json"
    code, compiled, _ = run(capsys, "compile", "(a b)^w")
    auto.write_text(compiled, encoding="utf-8")
    bad = tmp_path / "w.json"
    bad.write_text('{"path": ["s0"]}', encoding="utf-8")
    code, _, err = run(capsys, "verify", "--automaton", str(auto), "--witness", str(bad))
    assert code == 2
    assert "malformed witness JSON" in err


def test_internal_invariant_violation_exit_code(capsys, monkeypatch):
    from countercheck import cli
    from countercheck.emptiness import InternalCheckError

    def explode(_):
        raise InternalCheckError("decoded witness failed verification")

    monkeypatch.setattr(cli, "decide", explode)
    code, _, err = run(capsys, "empty", "(a b)^w")
    assert code == 3
    assert "internal error" in err


def test_deep_nesting_exits_with_one_line_error(capsys):
    code, out, err = run(capsys, "empty", "(" * 600 + "a" + ")" * 600 + "^w")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nest" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["compile", "empty"])
def test_compile_blow_up_exits_before_building(capsys, command):
    # 3^49 automata: refused from the expression's shape alone
    start = time.perf_counter()
    code, out, err = run(capsys, command, "(" + "+".join(["a"] * 50) + ")^w")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "automata" in err
    assert len(err.strip().splitlines()) == 1


def test_witness_over_the_limit_exits_with_one_line_error(capsys):
    # its shortest witness has 899,700 states; the backward bound says so
    # before any forward search
    start = time.perf_counter()
    code, out, err = run(capsys, "empty", flat_word(300))
    assert time.perf_counter() - start < 10.0
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "899700 states" in err
    assert len(err.strip().splitlines()) == 1


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    first = run(capsys, "empty", "(a^T b)^w")
    second = run(capsys, "empty", "(a^T b)^w")
    assert first[0] == 0 and first[1].startswith("NONEMPTY\n")
    assert first == second
    assert built == [1]


def test_automaton_json_with_string_states_exits_cleanly(capsys, tmp_path):
    data = json.loads(export(hat(atom_a()), "json"))
    data["states"] = "".join(data["states"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "empty", "--automaton", str(bad))
    assert code == 2
    assert "malformed automaton JSON" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("expression", ["((a^T b)^T a)^w", "(a^T b)^w + (b^T a)^w", "(a + b)^w"])
def test_empty_output_independent_of_hash_seed(expression):
    import countercheck

    src = str(Path(countercheck.__file__).resolve().parent.parent)
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-m", "countercheck.cli", "empty", expression],
            env=env, capture_output=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0].startswith(b"NONEMPTY\n")
    assert outputs[0] == outputs[1]
