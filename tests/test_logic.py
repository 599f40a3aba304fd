import hashlib
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from countercheck import logic as lg
from countercheck.expr import RAlt, RCat, RSym, RStar, parse_omega_t, substitute_t_with_star
from countercheck.harness import random_formula, random_omega_expr

from conftest import is_closed
from countercheck.logic import (
    And,
    Bounding,
    ExistsFO,
    ExistsFin,
    ExistsOmega,
    ForAllFO,
    InP,
    InX,
    Less,
    Not,
    Or,
    SubsetEq,
    Unbounding,
    Var,
    block_formula,
    blockset_formula,
    emit_phi,
    free_vars,
    is_regexp_formula,
    omega_word_formula,
    pretty_formula,
    t_condition,
    unfold_macros,
)

GOLDEN = Path(__file__).parent / "golden"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def count_nodes(f, kind) -> int:
    total = int(isinstance(f, kind))
    if isinstance(f, (lg.Or, lg.And, lg.Implies)):
        return total + count_nodes(f.left, kind) + count_nodes(f.right, kind)
    if hasattr(f, "body"):
        return total + count_nodes(f.body, kind)
    return total


# --------------------------------------------------------------------------
# goldens

def test_golden_t_condition():
    assert pretty_formula(t_condition(RSym("a"))) + "\n" == golden_text("t_condition_a.txt")


def test_golden_block():
    assert pretty_formula(block_formula(RSym("a"), "X")) + "\n" == golden_text("block_a_X.txt")


def test_golden_blockset():
    assert pretty_formula(blockset_formula(RSym("a"), "Y")) + "\n" == golden_text("blockset_a_Y.txt")


def test_golden_concat_match():
    built = is_regexp_formula(RCat(RSym("a"), RSym("b")), "x", "y")
    assert pretty_formula(built) + "\n" == golden_text("match_ab_x_y.txt")


# --------------------------------------------------------------------------
# structural facts

def test_match_formula_base_shape():
    f = is_regexp_formula(RSym("a"), "x", "y")
    assert count_nodes(f, InP) == 1
    assert free_vars(f) == (frozenset({"x", "y"}), frozenset())


def test_match_formula_star_free_vars():
    f = is_regexp_formula(RStar(RCat(RSym("a"), RSym("b"))), "x", "y")
    assert free_vars(f) == (frozenset({"x", "y"}), frozenset())


def test_match_formula_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        is_regexp_formula(RSym("a"), "x", "x")


def test_block_formula_binding():
    f = block_formula(RSym("a"), "X")
    assert free_vars(f) == (frozenset(), frozenset({"X"}))


def test_block_formula_shape():
    # two position existentials around [match(star) and interval-subset and
    # maximality], exactly the displayed three-part body
    f = block_formula(RSym("a"), "X")
    assert isinstance(f, ExistsFO)
    assert isinstance(f.body, ExistsFO)
    body = f.body.body
    assert isinstance(body, And) and isinstance(body.left, And)
    assert isinstance(body.left.right, lg.SubsetInterval)
    maximal = body.right
    assert isinstance(maximal, ForAllFO)
    assert isinstance(maximal.body, lg.Implies)
    assert isinstance(maximal.body.left.left, lg.InInterval)
    assert isinstance(maximal.body.right, InX)


def test_blockset_formula_node_counts():
    f = blockset_formula(RSym("a"), "Y")
    assert count_nodes(f, Bounding) == 1
    assert count_nodes(f, ExistsFin) == 2
    assert free_vars(f) == (frozenset(), frozenset({"Y"}))


def test_t_condition_closed():
    assert is_closed(t_condition(RSym("a")))
    assert is_closed(t_condition(RAlt(RSym("a"), RSym("b"))))


def test_t_condition_uses_infinite_quantifier():
    assert count_nodes(t_condition(RSym("a")), ExistsOmega) == 1


def _block_of(blockset):
    # the block formula under the blockset's last conjunct, the size bound
    return blockset.right.body.right


def test_t_condition_builds_its_block_formula_once():
    f = t_condition(RAlt(RSym("a"), RSym("b")))
    premise = f.body.left
    grown = f.body.right.body.left.left
    assert _block_of(premise) == block_formula(RAlt(RSym("a"), RSym("b")), "X")
    assert _block_of(premise) is _block_of(grown)


# --------------------------------------------------------------------------
# macro unfolding

def test_exists_omega_unfolds_to_stated_equivalence():
    body = InX(Var("x"), "Q")
    written_out = ForAllFO("y", ExistsFO("x", And(Less(Var("y"), Var("x")), body)))
    assert unfold_macros(ExistsOmega("x", body)) == unfold_macros(written_out)


def test_exists_fin_unfolds_to_bounded_second_order():
    f = unfold_macros(ExistsFin("X", InX(Var("x"), "X")))
    assert isinstance(f, lg.ExistsSO)
    assert free_vars(f) == (frozenset({"x"}), frozenset())


def test_bounding_unfolds_to_negated_unbounding():
    f = unfold_macros(Bounding("X", InX(Var("x"), "X")))
    assert isinstance(f, Not)
    assert isinstance(f.body, Unbounding)


def test_duality_on_50_random_formulas():
    rng = random.Random(99)
    for _ in range(50):
        body = random_formula(rng, depth=3)
        negated = pretty_formula(Not(Unbounding("X", body)), expand_macros=True)
        bounded = pretty_formula(Bounding("X", body), expand_macros=True)
        assert negated == bounded


def test_unfold_preserves_free_variables():
    rng = random.Random(100)
    for _ in range(60):
        f = random_formula(rng, depth=4)
        assert free_vars(unfold_macros(f)) == free_vars(f)


def test_unfold_reaches_connective_layer():
    rng = random.Random(101)
    macro_kinds = (
        lg.Eq, lg.Less, lg.LessEq, lg.SubsetEq, lg.ProperSubset, lg.InInterval,
        lg.SubsetInterval, lg.MinGreater, lg.InDifference, lg.IsFirst,
        lg.Bounding, lg.ExistsFin, lg.ExistsOmega,
    )
    drawn = set()
    for _ in range(40):
        f = random_formula(rng, depth=4)
        drawn.update(kind for kind in macro_kinds if count_nodes(f, kind))
        unfolded = unfold_macros(f)
        for kind in macro_kinds:
            assert count_nodes(unfolded, kind) == 0
    assert drawn == set(macro_kinds)

    big = unfold_macros(t_condition(RSym("a")))
    for kind in macro_kinds:
        assert count_nodes(big, kind) == 0
    assert is_closed(big)


def test_unbounding_survives_unfolding():
    f = unfold_macros(Unbounding("X", SubsetEq("X", "Y")))
    assert isinstance(f, Unbounding)


# --------------------------------------------------------------------------
# whole-expression emission

def test_emit_without_t_is_plain_core():
    tree = parse_omega_t("(a* b)^w", "ab")
    assert emit_phi(tree) == omega_word_formula(tree)


def test_emit_single_t_site():
    tree = parse_omega_t("(a^T b)^w", "ab")
    expected = And(
        omega_word_formula(substitute_t_with_star(tree)), t_condition(RSym("a"))
    )
    assert emit_phi(tree) == expected


def test_emit_counts_t_sites():
    tree = parse_omega_t("(a^T b^T)^w + (b a^T)^w", "ab")
    f = emit_phi(tree)
    conjuncts = []
    while isinstance(f, And):
        conjuncts.append(f.right)
        f = f.left
    conjuncts.append(f)
    assert len(conjuncts) == 4  # the core plus three recurrence conditions


def test_emit_builds_one_condition_per_distinct_body():
    # two sites of one body share one condition node; the printer and the
    # macro unfolding treat the shared node as they treat two equal ones
    f = emit_phi(parse_omega_t("((a)^T (a)^T)^w", "a"))
    assert f.right is f.left.right
    assert f.right == t_condition(RSym("a"))
    f = emit_phi(parse_omega_t("(a^T b^T)^w", "ab"))
    assert f.right == t_condition(RSym("b")) and f.left.right == t_condition(RSym("a"))


def test_emit_closed_for_reference_expressions():
    for text in ("(a^T b)^w", "((a*b)* a^T b)^w", "(a* b)^w", "((a+b)^T b)^w", "0^w", "(0 a)^w"):
        assert is_closed(emit_phi(parse_omega_t(text, "ab")))


def test_emission_deterministic():
    tree = parse_omega_t("((a+b)^T b)^w", "ab")
    assert pretty_formula(emit_phi(tree)) == pretty_formula(emit_phi(tree))


# --------------------------------------------------------------------------
# printing modes

def test_ascii_mode():
    f = ExistsFO("x", Or(InP(Var("x"), "a"), Not(InX(Var("x"), "X"))))
    assert pretty_formula(f, style="ascii") == "E x.(x in P_a \\/ ~(x in X))"
    assert pretty_formula(f) == "∃x.(x ∈ P_a ∨ ¬(x ∈ X))"


def test_ascii_glyphs_cover_macros():
    f = t_condition(RSym("a"))
    text = pretty_formula(f, style="ascii")
    assert "E^w" in text and "psub" in text and "\\" in text
    assert all(ord(c) < 128 for c in text)


def test_a_shared_subformula_is_rendered_once(monkeypatch):
    calls = []
    term_text = lg._term_text

    def counted(t):
        calls.append(t)
        return term_text(t)

    monkeypatch.setattr(lg, "_term_text", counted)
    g = Or(InP(Var("x"), "a"), InX(Var("y"), "X"))
    assert pretty_formula(And(g, g)) == "((x ∈ P_a ∨ y ∈ X) ∧ (x ∈ P_a ∨ y ∈ X))"
    assert len(calls) == 2


def test_printing_memory_stays_linear_in_the_output():
    # a flat word nests one binder per letter; a memo of whole texts would
    # hold each binder's text again inside every enclosing one, about 320
    # times the output's size at 200 letters
    f = emit_phi(parse_omega_t("(" + "a" * 200 + ")^w", "a"))
    tracemalloc.start()
    try:
        text = pretty_formula(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * sys.getsizeof(text)


def test_unknown_style_rejected():
    with pytest.raises(ValueError):
        pretty_formula(InP(Var("x"), "a"), style="tex")


def test_printing_of_random_formulas_is_pinned():
    # both styles, with and without the macros unfolded, byte for byte
    rng = random.Random(1414)
    digest = hashlib.sha256()
    for _ in range(400):
        f = random_formula(rng, depth=4)
        for style in ("unicode", "ascii"):
            for expand in (False, True):
                digest.update(pretty_formula(f, style=style, expand_macros=expand).encode() + b"\n")
    assert digest.hexdigest() == "537169cf9bb9d85b9295ff51732a931449dcd4561d64f7f8aa629fe5e5385c51"


def _free_vars_line(f) -> bytes:
    fo, so = free_vars(f)
    return f"{sorted(fo)} {sorted(so)}\n".encode()


def test_free_variables_are_pinned():
    # free_vars before and after unfolding on random formulas, and on the
    # formulas of the random omega expressions the compile digest pins
    digest = hashlib.sha256()
    rng = random.Random(1515)
    for _ in range(400):
        f = random_formula(rng, depth=4)
        digest.update(_free_vars_line(f) + _free_vars_line(unfold_macros(f)))
    rng = random.Random(1313)
    for _ in range(200):
        digest.update(_free_vars_line(emit_phi(random_omega_expr(rng, 4))))
    assert digest.hexdigest() == "50dc5d3f7ac8914e4e3da652d51e3469a62e0a3057470169f69d5f68c5b9e341"
