import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from countercheck.cca import MAX_COUNTERS, export, hat
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


@pytest.mark.parametrize("alphabet, bad", [("a ^", " "), ("a^", "^"), ("aB", "B"), ("a1", "1")])
def test_an_alphabet_character_the_parser_cannot_read_is_refused(capsys, alphabet, bad):
    code, out, err = run(capsys, "compile", "a^w", "--alphabet", alphabet)
    assert (code, out) == (2, "")
    assert err == f"error: --alphabet: {bad!r} is not a lowercase letter\n"
def test_empty_nonempty_with_witness(capsys):
    code, out, _ = run(capsys, "empty", "(a^T b)^w")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "NONEMPTY"
    witness = json.loads("\n".join(lines[1:]))
    assert witness["begin"] < witness["end"]
    assert len(witness["pairs"]) == len(witness["checks"])


def test_empty_certificate_is_its_json_dumps_and_a_line_break(capsys):
    from countercheck.emptiness import decide
    from countercheck.expr import parse_omega_t
    from countercheck.translate import compile_expression

    text = "b (a + b^T)^w + (a* b)^w"
    witness = decide(compile_expression(parse_omega_t(text, "ab"), "ab")).witness
    code, out, _ = run(capsys, "empty", text)
    assert code == 0
    assert out == "NONEMPTY\n" + json.dumps(witness.to_json_dict(), indent=2) + "\n"


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
    length = len(witness["path"])
    # the begin moved onto the end, and marks at and past the path's ends
    for tampered in ({"begin": witness["end"]}, {"end": length}, {"end": length + 1}, {"begin": -1}):
        witness_file = tmp_path / "witness.json"
        witness_file.write_text(json.dumps({**witness, **tampered}), encoding="utf-8")
        code, out, err = run(
            capsys, "verify", "--automaton", str(automaton_file), "--witness", str(witness_file)
        )
        assert code == 1, tampered
        assert out.strip() == "WITNESS INVALID"
        assert err == ""


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
    assert out == (Path(__file__).parent / "golden" / "compile_intermediate.txt").read_text(encoding="utf-8")
    # every rule at once: a mix, a star, a ^T, a prefix and a union
    code, out, _ = run(capsys, "compile", "b (a + b^T)^w + (a* b)^w", "--intermediate")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "compile_intermediate_union.txt").read_text(encoding="utf-8")


GOLDEN = Path(__file__).parent / "golden"

# a command's whole output, byte for byte: a golden file's name, or the
# sha256 of the output
OUTPUT_PINS = [
    (("compile", "(a^T b)^w"), "20cead25b3adbe5d28d688af74d5582101b1f62fb1830967544e232272dfdc38"),
    (("compile", "((a+b)(a+b)(a+b))^w"), "bbd8ab783789917c32b5095a025fd09e4c171d34e71154c1ffa772ed67b8dfe0"),
    (("compile", "(a^T b)^w", "--intermediate"), "compile_intermediate.txt"),
    (("compile", "b (a + b^T)^w + (a* b)^w", "--intermediate"), "compile_intermediate_union.txt"),
    (("dot", "(a^T b)^w"), "74159e93d1e6327959993ae8682483bb2174685194b88a74f3a173f08e59b531"),
    (("dot", "b (a + b^T)^w + (a* b)^w"), "3a5470e42f97f66925b8f731d0a26d1a15051d3f122ce580c4f4df25100eb415"),
    (("empty", "(a^T b)^w"), "190258d8209b0d8245c5afb297e9cd98e4dbe828b2917fd1013b33cc6d8a7471"),
    (("empty", "b (a + b^T)^w + (a* b)^w"), "f2a41294acf8158dfdc22b39d6a37b0fe2b583b23788fbb374b7910705f2b234"),
    (("empty", "(a 0)^w"), "a3395601ed5265fe3f97da9dcdd9e5cae777dbc2bd32e2c2c066c66613eee499"),
]


def _matches_pin(out: str, pin: str) -> bool:
    if pin.endswith(".txt"):
        return out == (GOLDEN / pin).read_text(encoding="utf-8")
    return hashlib.sha256(out.encode()).hexdigest() == pin


@pytest.mark.parametrize("argv, pin", OUTPUT_PINS, ids=[" ".join(argv) for argv, _ in OUTPUT_PINS])
def test_command_output_is_pinned(capsys, argv, pin):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert _matches_pin(out, pin)


# the longest certificates among the pins, 15,960 and 8,420 states: one
# component of each holds one inc-k and one check-k state for every k
LONG_PINS = [
    (flat_word(40), "16fa82509dfaaa2a9d7a98fad846c17e1bb7814b46c46b07e88643a071cf1be5"),
    ("(" + " ".join(["a^T b"] * 10) + ")^w", "df5e4ecd05591743f1a7ead2df07c3f97d22b11563ba7d3007e5205005d0be30"),
]


@pytest.mark.parametrize("text, pin", LONG_PINS, ids=["flat_word(40)", "ten (a^T b)"])
def test_long_certificates_are_pinned(capsys, text, pin):
    code, out, err = run(capsys, "empty", text)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == pin


def planted_disagreement(monkeypatch) -> None:
    """Make every fuzz case with two or more transitions fail, so that
    shrinking stops at two."""
    from countercheck import harness

    monkeypatch.setattr(
        harness, "_oracle_disagreement",
        lambda table, depth, report: "planted" if len(table.a.transitions) >= 2 else None,
    )


def test_fuzz_failure_output_is_pinned(capsys, monkeypatch):
    planted_disagreement(monkeypatch)
    code, out, err = run(capsys, "fuzz", "--seed", "3", "--cases", "2")
    assert (code, err) == (1, "")
    assert _matches_pin(out, "88483ffc94911ced7c7083a2e8ec5e77e8cbcd639a74b440a311aad4a7009c04")


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


def test_simulate_long_word(capsys):
    # the search visits each (state, position) pair at most once
    code, out, _ = run(capsys, "simulate", "((a+b)(a+b))^w", "--word", "ab" * 1000)
    assert code == 0
    assert out.splitlines()[0] == "PRESENT"


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

    # the line CI runs on the installed console script
    code, out, _ = run(capsys, "formula", "(a^T b)^w", "--expand-macros", "--ascii")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "formula_aTb_expand_macros_ascii.txt").read_text(encoding="utf-8")


def test_fuzz_small_run(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "7", "--cases", "25", "--depth", "40")
    assert code == 0
    assert "25/25 cases agree" in out


@pytest.mark.parametrize("option, message", [("--cases", "number of cases"), ("--depth", "depth")])
def test_fuzz_refuses_negative_counts_before_any_case(capsys, monkeypatch, option, message):
    from countercheck import harness

    def refuse(*_):
        raise AssertionError("a case ran")

    monkeypatch.setattr(harness, "examine", refuse)
    code, out, err = run(capsys, "fuzz", option, "-5")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and message in err and "nonnegative" in err


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
    code, out, _ = run(capsys, "empty", "--automaton", str(auto))
    witness = json.loads("\n".join(out.splitlines()[1:]))
    # a well-shaped witness with one path entry that is not a state name,
    # and one whose end index overflows a float
    listed = dict(witness, path=[witness["path"][0], ["x"], *witness["path"][2:]])
    huge = json.dumps(witness).replace(f'"end": {witness["end"]}', '"end": 1e400')
    assert "1e400" in huge
    bad = tmp_path / "w.json"
    for text in ('{"path": ["s0"]}', json.dumps(listed), huge):
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "verify", "--automaton", str(auto), "--witness", str(bad))
        assert code == 2, text
        assert out == ""
        assert "malformed witness JSON" in err
        assert len(err.strip().splitlines()) == 1


def test_internal_invariant_violation_exit_code(capsys, monkeypatch):
    from countercheck import emptiness
    from countercheck.emptiness import InternalCheckError

    def explode(_):
        raise InternalCheckError("decoded witness failed verification")

    # `empty` imports `decide` from `emptiness` when it runs
    monkeypatch.setattr(emptiness, "decide", explode)
    code, _, err = run(capsys, "empty", "(a b)^w")
    assert code == 3
    assert "internal error" in err


def test_an_unexpected_exception_exits_3_with_one_line(capsys, monkeypatch):
    # exit 1 is a failed check, so a bug of any other kind must not end
    # with Python's traceback and its exit 1
    from countercheck import emptiness

    def explode(_):
        raise KeyError("s0")

    monkeypatch.setattr(emptiness, "decide", explode)
    code, out, err = run(capsys, "empty", "(a b)^w")
    assert code == 3
    assert out == ""
    assert err == "internal error: KeyError: 's0'\n"
    assert "Traceback" not in err


def test_deep_nesting_exits_with_one_line_error(capsys):
    code, out, err = run(capsys, "empty", "(" * 600 + "a" + ")" * 600 + "^w")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nest" in err
    assert len(err.strip().splitlines()) == 1


def test_running_out_of_memory_exits_with_one_line_error(capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "cmd_parse", exhaust)
    code, out, err = run(capsys, "parse", "(a b)^w")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: the input is too large to process\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["parse", "compile", "empty", "formula"])
def test_long_flat_word_is_refused_as_an_operator_chain(capsys, command):
    # 1000 letters and no parentheses: the parser names the chain
    code, out, err = run(capsys, command, "(" + "a" * 1000 + ")^w")
    assert code == 2
    assert out == ""
    assert err == "error: operator chain too long to process (at position 0)\n"


def test_formula_of_a_200_letter_flat_word_is_printed(capsys):
    # the formula layer's depth limit lies near 327 letters; keep it above 200
    code, out, err = run(capsys, "formula", "(" + "a" * 200 + ")^w")
    assert code == 0
    assert out.startswith("# schema:") and len(out.splitlines()) == 2
    assert err == ""


def test_formula_of_a_long_flat_word_names_the_operator_chain(capsys):
    # 400 letters parse and compile, but the formula is too deep to print
    # (on Python 3.11 `formula` prints a flat word of up to about 327)
    code, out, err = run(capsys, "formula", "(" + "a" * 400 + ")^w")
    assert code == 2
    assert out == ""
    assert err == "error: input too deep to process: a long operator chain or deep nesting\n"


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


def test_automaton_json_with_a_longer_letter_exits_cleanly(capsys, tmp_path):
    # a letter named "eps" would come back from the JSON form as a silent label
    data = json.loads(export(hat(atom_a()), "json"))
    data["alphabet"] = ["eps"]
    bad = tmp_path / "eps.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "empty", "--automaton", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: alphabet entry 'eps' is not one character\n"


def test_automaton_json_with_an_overflowing_counter_exits_cleanly(capsys, tmp_path):
    text = export(hat(atom_a()), "json").replace('"counter": 1,', '"counter": 1e400,', 1)
    assert "1e400" in text
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "empty", "--automaton", str(bad))
    assert code == 2
    assert out == ""
    assert "malformed automaton JSON" in err
    assert len(err.strip().splitlines()) == 1


def _with_counters(tmp_path, counters: int) -> str:
    text = export(hat(atom_a()), "json").replace('"counters": 1,', f'"counters": {counters},', 1)
    assert f'"counters": {counters},' in text
    path = tmp_path / f"counters_{counters}.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_automaton_json_with_too_many_counters_exits_cleanly(capsys, tmp_path):
    code, out, err = run(capsys, "empty", "--automaton", _with_counters(tmp_path, 200_000))
    assert code == 2
    assert out == ""
    assert "200000" in err and str(MAX_COUNTERS) in err
    assert len(err.strip().splitlines()) == 1


def test_automaton_json_at_the_counter_limit_is_decided(capsys, tmp_path):
    # only counter 1 is ever checked, so no witness exists
    code, out, _ = run(capsys, "empty", "--automaton", _with_counters(tmp_path, MAX_COUNTERS))
    assert (code, out) == (0, "EMPTY\n")


def _child_env(**extra) -> dict:
    """The environment of a child interpreter that imports these sources."""
    import countercheck

    src = str(Path(countercheck.__file__).resolve().parent.parent)
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("expression", ["((a^T b)^T a)^w", "(a^T b)^w + (b^T a)^w", "(a + b)^w"])
def test_empty_output_independent_of_hash_seed(expression):
    outputs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "countercheck.cli", "empty", expression],
            env=_child_env(PYTHONHASHSEED=seed), capture_output=True, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0].startswith(b"NONEMPTY\n")
    assert outputs[0] == outputs[1]


def _status_and_stderr_after_one_line(argv: list[str], first: bytes) -> tuple[int, bytes]:
    """Run the command in a child, read its first line, then close the pipe."""
    command = [sys.executable, "-m", "countercheck.cli", *argv]
    with subprocess.Popen(
        command, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        assert child.stdout.readline() == first
        child.stdout.close()
        err = child.stderr.read()
        status = child.wait(timeout=60)
    return status, err


def test_a_reader_that_leaves_early_ends_the_command_quietly():
    # 2000 letters print about 250 KB, far more than a pipe holds, so the
    # command is still writing when its reader leaves after one line
    argv = ["simulate", "((a+b)(a+b))^w", "--word", "ab" * 1000]
    assert _status_and_stderr_after_one_line(argv, b"PRESENT\n") == (141, b"")


def test_a_reader_that_leaves_during_an_export_ends_the_command_quietly():
    # the five-fold sum's JSON is about 2 MB, so the export is still being
    # written when its reader leaves
    argv = ["compile", "((a+b)(a+b)(a+b)(a+b)(a+b))^w"]
    assert _status_and_stderr_after_one_line(argv, b"{\n") == (141, b"")
