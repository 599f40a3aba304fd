import random

import pytest

from countercheck import expr as ex
from countercheck.harness import random_omega_expr


def test_parse_simple_omega():
    tree = ex.parse_omega_t("(a^T b)^w", "ab")
    assert tree == ex.Omega(ex.Cat(ex.T(ex.Sym("a")), ex.Sym("b")))


def test_parse_nested_star_and_t():
    tree = ex.parse_omega_t("((a*b)* a^T b)^w", "ab")
    inner = ex.Cat(
        ex.Cat(ex.Star(ex.Cat(ex.Star(ex.Sym("a")), ex.Sym("b"))), ex.T(ex.Sym("a"))),
        ex.Sym("b"),
    )
    assert tree == ex.Omega(inner)


def test_parse_prefix_and_union():
    tree = ex.parse_omega_t("c (a^T b)^w + b^w", "abc")
    assert isinstance(tree, ex.Union)
    assert tree.left == ex.Prefix(ex.RSym("c"), ex.Omega(ex.Cat(ex.T(ex.Sym("a")), ex.Sym("b"))))
    assert tree.right == ex.Omega(ex.Sym("b"))


def test_parse_explicit_dot_and_whitespace():
    assert ex.parse_omega_t("( a . b )^w", "ab") == ex.parse_omega_t("(ab)^w", "ab")


def test_missing_omega_closure_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse_omega_t("a^T b", "ab")


def test_t_outside_omega_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse_omega_t("a^T b^w", "ab")  # the ^T lands in the regular prefix


def test_nested_omega_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse_omega_t("((a^w) b)^w", "ab")


def test_omega_must_end_the_branch():
    with pytest.raises(ex.ParseError) as excinfo:
        ex.parse_omega_t("a^w b^w", "ab")
    assert "end the branch" in str(excinfo.value)


def test_letter_outside_alphabet_rejected():
    with pytest.raises(ex.ParseError) as excinfo:
        ex.parse_omega_t("(a c)^w", "ab")
    assert "c" in str(excinfo.value)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("a^T b^w", "'^T' is only allowed underneath '^w'", 1),
        ("a^w b^w", "'^w' cannot appear inside a finite prefix; it must end the branch", 1),
        ("((a^w) b)^w", "'^w' cannot be nested", 3),
        ("a^T", "'^T' needs an enclosing '^w'", 1),
        ("a b", "missing omega closure: every branch needs '^w'", 2),
        ("(a c)^w", "letter 'c' is not in the alphabet", 3),
        ("c (a b)^w", "letter 'c' is not in the alphabet", 0),
    ],
    ids=["t-in-prefix", "omega-in-prefix", "nested-omega", "t-without-omega",
         "missing-closure", "letter-in-block", "letter-in-prefix"],
)
def test_stratifier_refusals_are_pinned(text, message, position):
    with pytest.raises(ex.ParseError) as excinfo:
        ex.parse_omega_t(text, "ab")
    assert str(excinfo.value) == f"{message} (at position {position})"
    assert excinfo.value.position == position


def test_syntax_error_carries_position():
    with pytest.raises(ex.ParseError) as excinfo:
        ex.parse_omega_t("(a^w", "ab")
    assert excinfo.value.position == 4


def test_trailing_input_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse_omega_t("a^w )", "ab")


def test_caret_without_operator_rejected():
    with pytest.raises(ex.ParseError):
        ex.parse_omega_t("a^x", "ax")


def test_substitute_t_with_star_paper_case():
    before = ex.parse_omega_t("(a^T b)^w", "ab")
    after = ex.substitute_t_with_star(before)
    assert after == ex.parse_omega_t("(a* b)^w", "ab")


def test_substitute_without_t_is_identity():
    tree = ex.parse_omega_t("c (a* b)^w", "abc")
    assert ex.substitute_t_with_star(tree) == tree


def _node_count(e) -> int:
    if isinstance(e, (ex.REmpty, ex.RSym, ex.Empty, ex.Sym)):
        return 1
    if isinstance(e, (ex.RStar, ex.Star, ex.T, ex.Omega)):
        return 1 + _node_count(e.body)
    if isinstance(e, ex.Prefix):
        return 1 + _node_count(e.prefix) + _node_count(e.tail)
    return 1 + _node_count(e.left) + _node_count(e.right)


def test_substitute_preserves_node_count():
    before = ex.parse_omega_t("((a*b)* a^T b)^w", "ab")
    after = ex.substitute_t_with_star(before)
    assert after == ex.parse_omega_t("((a*b)* a* b)^w", "ab")
    assert _node_count(after) == _node_count(before)


def test_parse_pretty_round_trip_500():
    rng = random.Random(5)
    for _ in range(500):
        tree = random_omega_expr(rng, depth=6, alphabet=("a", "b", "c"))
        text = ex.pretty(tree)
        assert ex.parse_omega_t(text, "abc") == tree, text


def test_pretty_examples():
    assert ex.pretty(ex.parse_omega_t("(a^Tb)^w", "ab")) == "(a^T b)^w"
    assert ex.pretty(ex.parse_omega_t("(a+b+ab)^w", "ab")) == "(a + b + a b)^w"


def test_erase_to_regex_shapes():
    e = ex.Cat(ex.T(ex.Sym("a")), ex.Sum(ex.Sym("b"), ex.Star(ex.Sym("a"))))
    erased = ex.erase_to_regex(e)
    assert erased == ex.RCat(ex.RStar(ex.RSym("a")), ex.RAlt(ex.RSym("b"), ex.RStar(ex.RSym("a"))))


def test_t_subexpressions_document_order():
    tree = ex.parse_omega_t("(a^T b^T)^w + (b a^T)^w", "ab")
    assert ex.t_subexpressions(tree) == [ex.Sym("a"), ex.Sym("b"), ex.Sym("a")]
    # an outer ^T comes before the ^T inside its body
    nested = ex.parse_omega_t("((a^T b)^T)^w", "ab")
    assert ex.t_subexpressions(nested) == [ex.Cat(ex.T(ex.Sym("a")), ex.Sym("b")), ex.Sym("a")]


def letters(e) -> frozenset[str]:
    """All letters occurring in the expression."""

    def walk(x):
        if isinstance(x, (ex.RSym, ex.Sym)):
            yield x.letter
        elif isinstance(x, (ex.RCat, ex.RAlt, ex.Cat, ex.Sum, ex.Union)):
            yield from walk(x.left)
            yield from walk(x.right)
        elif isinstance(x, (ex.RStar, ex.Star, ex.T, ex.Omega)):
            yield from walk(x.body)
        elif isinstance(x, ex.Prefix):
            yield from walk(x.prefix)
            yield from walk(x.tail)

    return frozenset(walk(e))


def test_letters():
    assert letters(ex.parse_omega_t("c (a^T b)^w", "abc")) == frozenset("abc")


def test_deep_parentheses_rejected_with_parse_error():
    deep = "(" * 600 + "a" + ")" * 600 + "^w"
    with pytest.raises(ex.ParseError) as excinfo:
        ex.parse_omega_t(deep, "a")
    assert "nest" in str(excinfo.value)
    limit = ex.MAX_NESTING
    assert ex.parse_omega_t("(" * limit + "a" + ")" * limit + "^w", "a") == ex.parse_omega_t("a^w", "a")


def test_long_operator_chain_rejected_with_parse_error():
    with pytest.raises(ex.ParseError):
        ex.parse_omega_t("(a" + "*" * 5000 + ")^w", "a")
