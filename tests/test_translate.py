import gc
import hashlib
import random
import re

import pytest

from countercheck import expr as ex
from countercheck.cca import (
    CCA,
    CCAError,
    CHECK,
    INC,
    NO_OP,
    Transition,
    export,
    hat,
    replay,
    simplify,
    split_with_residue,
)
from countercheck.emptiness import decide, is_empty, verify_witness
from countercheck.harness import random_texpr, random_omega_expr
from countercheck.logic import emit_phi, pretty_formula
from countercheck.nfa import accepts, thompson
from countercheck.reference import brute_force_witness
from countercheck.translate import (
    MAX_MEMBERS,
    AutomatonSet,
    FreshNames,
    compile_expression,
    compile_omega,
    compile_t,
    member_count,
    merge,
    omega_member_count,
)

from conftest import accepts_extension, atom_a, expected_counters, random_general_cca, satisfies_final_contract

SIGMA = frozenset("ab")


def the(auto_set: AutomatonSet) -> CCA:
    assert len(auto_set.automata) == 1
    return auto_set.automata[0]


# --------------------------------------------------------------------------
# block-expression rules

def test_compile_empty_atom():
    a = the(compile_t(ex.Empty(), SIGMA))
    assert len(a.states) == 2
    assert a.transitions == frozenset()
    assert a.counters == 1
    assert a.final is not None


def test_compile_letter_atom():
    a = the(compile_t(ex.Sym("a"), SIGMA))
    assert a.counters == 1
    assert a.transitions == frozenset(
        {
            Transition(a.initial, "a", a.final, 1, NO_OP),
            Transition(a.final, None, a.final, 1, INC),
        }
    )


def test_compile_concat_counts():
    a = the(compile_t(ex.Cat(ex.Sym("a"), ex.Sym("b")), SIGMA))
    assert a.counters == 3
    assert len(a.states) == 5


def _role_map(a: CCA) -> dict:
    """Name the states of a small compiled automaton by their role."""
    roles = {"init": a.initial, "final": a.final}
    for t in sorted(a.transitions, key=Transition.sort_key):
        if t.label is not None:
            roles[f"after_{t.label}"] = t.target
            roles[f"reads_{t.label}"] = t.source
    return roles


def _shape(a: CCA) -> frozenset:
    """Transitions with states replaced by role names where known."""
    roles = _role_map(a)
    backwards = {}
    for name, state in roles.items():
        backwards.setdefault(state, name)
    def named(s):
        return backwards.get(s, "?")
    return frozenset(
        (named(t.source), t.label, named(t.target), t.counter, t.op) for t in a.transitions
    )


def test_compile_concat_glue():
    a = the(compile_t(ex.Cat(ex.Sym("a"), ex.Sym("b")), SIGMA))
    assert _shape(a) == frozenset(
        {
            ("init", "a", "after_a", 1, NO_OP),
            ("after_a", None, "after_a", 2, INC),
            ("after_a", None, "reads_b", 2, CHECK),
            ("reads_b", "b", "after_b", 1, NO_OP),
            ("after_b", None, "after_b", 3, INC),
            ("after_b", None, "final", 3, CHECK),
            ("final", None, "final", 1, INC),
        }
    )


def test_compile_star_shape():
    a = the(compile_t(ex.Star(ex.Sym("a")), SIGMA))
    assert _shape(a) == frozenset(
        {
            ("init", "a", "after_a", 1, NO_OP),
            ("after_a", None, "after_a", 2, INC),
            ("after_a", None, "init", 1, NO_OP),
            ("after_a", None, "final", 2, CHECK),
            ("final", None, "final", 1, INC),
        }
    )


def test_compile_recurring_shape():
    a = the(compile_t(ex.T(ex.Sym("a")), SIGMA))
    assert _shape(a) == frozenset(
        {
            ("init", "a", "after_a", 1, NO_OP),
            ("after_a", None, "after_a", 3, INC),
            ("after_a", None, "init", 2, INC),
            ("after_a", None, "final", 2, CHECK),
            ("after_a", None, "after_a", 3, CHECK),
            ("final", None, "final", 1, INC),
        }
    )


def test_compile_mix_shapes():
    first, second, third = compile_t(ex.Sum(ex.Sym("a"), ex.Sym("b")), SIGMA).automata

    core = {
        ("init", None, "reads_a", 1, NO_OP),
        ("init", None, "reads_b", 1, NO_OP),
        ("reads_a", "a", "after_a", 1, NO_OP),
        ("after_a", None, "after_a", 2, INC),
        ("reads_b", "b", "after_b", 1, NO_OP),
        ("after_b", None, "after_b", 3, INC),
        ("after_a", None, "final", 2, CHECK),
        ("after_b", None, "final", 3, CHECK),
        ("final", None, "final", 1, INC),
    }
    assert _shape(first) == frozenset(
        core | {("after_a", None, "after_a", 3, INC), ("after_a", None, "after_a", 3, CHECK)}
    )
    assert _shape(second) == frozenset(
        core | {("after_b", None, "after_b", 2, INC), ("after_b", None, "after_b", 2, CHECK)}
    )
    assert _shape(third) == frozenset(
        core
        | {("after_a", None, "after_a", 2, CHECK)}
        | {("after_b", None, "after_b", 3, CHECK)}
    )


def test_compile_mix_is_a_triple():
    result = compile_t(ex.Sum(ex.Sym("a"), ex.Sym("b")), SIGMA)
    assert len(result.automata) == 3
    assert all(m.counters == 3 for m in result.automata)
    # the three variants carry distinct extra self-loop placements
    def extra_loops(m):
        return frozenset(
            (t.counter, t.op)
            for t in m.transitions
            if t.source == t.target and t.source != m.final and t.op in (INC, CHECK)
        )

    assert len({extra_loops(m) for m in result.automata}) >= 2


def test_compile_recurring_rule_transitions():
    a = the(compile_t(ex.T(ex.Sym("a")), SIGMA))
    assert a.counters == 3
    sources = {t.source for t in a.transitions}
    inner_final = next(
        s
        for s in sources
        if {(x.counter, x.op) for x in a.transitions if x.source == s}
        >= {(2, INC), (2, CHECK), (3, CHECK)}
    )
    outgoing = {(t.target, t.counter, t.op) for t in a.transitions if t.source == inner_final}
    assert (a.initial, 2, INC) in outgoing
    assert (a.final, 2, CHECK) in outgoing
    assert (inner_final, 3, CHECK) in outgoing
    assert Transition(a.final, None, a.final, 1, INC) in a.transitions


def test_compile_star_rule():
    a = the(compile_t(ex.Star(ex.Sym("a")), SIGMA))
    assert a.counters == 2
    assert len(a.states) == 3
    labels = {(t.counter, t.op) for t in a.transitions if t.label is None and t.source != t.target}
    assert (1, NO_OP) in labels  # loop back for another factor
    assert (2, CHECK) in labels  # exit


def test_counter_arithmetic_random(rng):
    checked = 0
    while checked < 60:
        e = random_texpr(rng, depth=5)
        if member_count(e) > 30:
            continue
        expected = expected_counters(e)
        result = compile_t(e, SIGMA)
        assert all(m.counters == expected for m in result.automata)
        checked += 1


def test_final_contract_everywhere(rng):
    for _ in range(25):
        e = random_texpr(rng, depth=4)
        if member_count(e) > 30:
            continue
        trace = []
        compile_t(e, SIGMA, FreshNames(), trace)
        for _, auto_set in trace:
            seen = set()
            for m in auto_set.automata:
                assert satisfies_final_contract(m)
                assert not seen & m.states
                seen |= m.states


def shift(a: CCA, offset: int) -> CCA:
    """Renumber counters upward by ``offset``, as ``rename_apart`` does:
    silent bookkeeping no-ops stay on counter 1."""
    if offset < 0:
        raise CCAError("shift offset must be nonnegative")
    moved = frozenset(
        Transition(t.source, t.label, t.target, t.counter if t.op == NO_OP else t.counter + offset, t.op)
        for t in a.transitions
    )
    return CCA(a.states, a.alphabet, a.initial, a.counters + offset, moved, a.final)


def test_shift_moves_counting_ops_only():
    a = CCA(
        states=frozenset({"s"}),
        alphabet=frozenset("a"),
        initial="s",
        counters=1,
        transitions=frozenset(
            {Transition("s", None, "s", 1, INC), Transition("s", "a", "s", 1, NO_OP)}
        ),
    )
    lifted = shift(a, 2)
    assert lifted.counters == 3
    assert Transition("s", None, "s", 3, INC) in lifted.transitions
    assert Transition("s", "a", "s", 1, NO_OP) in lifted.transitions


def test_shift_zero_is_identity():
    a = atom_a()
    assert shift(a, 0) == a


def test_shift_composes():
    a = atom_a()
    assert shift(shift(a, 1), 1) == shift(a, 2)


def rename_apart(a: CCA, names: FreshNames, offset: int = 0) -> CCA:
    """Reference renaming: a copy of ``a`` with fresh state names, drawn in
    sorted state order, and its counters lifted by ``offset`` in the same
    pass."""
    mapping = dict(zip(sorted(a.states), names.take(len(a.states))))
    return CCA(
        frozenset(mapping.values()),
        a.alphabet,
        mapping[a.initial],
        a.counters + offset,
        frozenset(
            Transition(mapping[t.source], t.label, mapping[t.target], t.counter if t.op == NO_OP else t.counter + offset, t.op)
            for t in a.transitions
        ),
        None if a.final is None else mapping[a.final],
    )


def test_rename_apart_lifts_counters_as_shift_does(rng):
    for _ in range(60):
        a = random_general_cca(rng, max_states=8, max_counters=3)
        if rng.random() < 0.5:
            a = CCA(a.states, a.alphabet, a.initial, a.counters, a.transitions, max(a.states))
        offset = rng.randint(0, 3)
        once = rename_apart(a, FreshNames("r"), offset)
        assert once == shift(rename_apart(a, FreshNames("r")), offset)
    member = the(compile_t(ex.parse_omega_t("(a^T b)^w", "ab").body, SIGMA))
    assert rename_apart(member, FreshNames(), 2) == shift(rename_apart(member, FreshNames()), 2)
    # every rule holds its operands renamed apart and lifted as the
    # reference does, drawing names in the same order
    checked = 0
    while checked < 40:
        left, right = random_texpr(rng, depth=3), random_texpr(rng, depth=3)
        if member_count(left) * member_count(right) > 27:
            continue
        for rule, offset in ((ex.Star, 1), (ex.T, 2)):
            names = FreshNames()
            inner = compile_t(left, SIGMA, names).automata
            for a, m in zip(inner, compile_t(rule(left), SIGMA).automata):
                copy = rename_apart(a, names, offset)
                names()  # the rule's own final state
                assert copy.states < m.states and copy.transitions < m.transitions
        names = FreshNames()
        operands = compile_t(left, SIGMA, names).automata, compile_t(right, SIGMA, names).automata
        members = iter(compile_t(ex.Cat(left, right), SIGMA).automata)
        for a in operands[0]:
            for b in operands[1]:
                m = next(members)
                for copy in (rename_apart(a, names, 1), rename_apart(b, names, a.counters + 1)):
                    assert copy.states < m.states and copy.transitions <= m.transitions
                names()
        checked += 1


def test_state_disjointness_across_compilation(rng):
    for _ in range(20):
        e = random_omega_expr(rng, depth=3)
        if omega_member_count(e) > 30:
            continue
        trace = []
        auto = compile_expression(e, SIGMA, trace)
        for _, auto_set in trace:
            AutomatonSet(auto_set.expression, auto_set.automata)  # revalidates disjointness
        final_states = set()
        for member in trace[-1][1].automata:
            assert not (final_states & member.states)
            final_states |= member.states
        assert final_states <= auto.states


@pytest.mark.parametrize("text", ["((a+b)(a+b))^w", "b (a^w + (b 0)^w)"])
def test_compile_expression_constructs_one_automaton(text, monkeypatch):
    # renaming apart copies no automaton: only the merged one is built
    built = []
    validate = CCA.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(CCA, "__post_init__", counting)
    auto = compile_expression(ex.parse_omega_t(text, "ab"), "ab")
    assert built == [auto]


# --------------------------------------------------------------------------
# omega-level rules

def test_omega_rule_is_hat_of_inner():
    result = compile_omega(ex.parse_omega_t("(a^T b)^w", "ab"), SIGMA)
    member = the(result)
    assert Transition(member.final, None, member.initial, 1, CHECK) in member.transitions
    assert member.counters == 5


def test_union_rule_concatenates_sets():
    left = ex.parse_omega_t("(a+b)^w", "ab")
    right = ex.parse_omega_t("(a b)^w", "ab")
    combined = compile_omega(ex.Union(left, right), SIGMA)
    n_left = len(compile_omega(left, SIGMA).automata)
    n_right = len(compile_omega(right, SIGMA).automata)
    assert len(combined.automata) == n_left + n_right == 4


def test_prefix_rule_adds_word_machine_states():
    tail = ex.parse_omega_t("(a^T b)^w", "ab")
    bare = compile_omega(tail, SIGMA)
    glued = compile_omega(ex.Prefix(ex.RCat(ex.RSym("a"), ex.RSym("b")), tail), SIGMA)
    assert len(glued.automata) == len(bare.automata)
    member = the(glued)
    bare_member = the(compile_omega(tail, SIGMA))
    assert len(member.states) > len(bare_member.states)
    assert member.counters == bare_member.counters
    # prefix copies never count: they ride on silent-style no-ops of counter 1
    prefix_only = {t for t in member.transitions if t.op == NO_OP and t.label is not None}
    assert all(t.counter == 1 for t in prefix_only)


def test_prefix_rule_language():
    auto = compile_expression(ex.parse_omega_t("b (a^T b)^w", "ab"), "ab")
    from countercheck.cca import has_run_prefix

    assert has_run_prefix(auto, "bab") is not None
    assert has_run_prefix(auto, "ab") is None


def test_merge_single_member():
    inner = compile_omega(ex.parse_omega_t("(a b)^w", "ab"), SIGMA)
    member = the(inner)
    merged = merge(inner)
    assert len(merged.states) == len(member.states) + 1
    assert len(merged.transitions) == len(member.transitions) + 1
    assert merged.final is None


def test_merge_pads_counters():
    names = FreshNames()
    small = the(compile_omega(ex.parse_omega_t("(a b)^w", "ab"), SIGMA, names))  # 3 counters
    big = the(compile_omega(ex.parse_omega_t("(a^T b)^w", "ab"), SIGMA, names))  # 5 counters
    merged = merge(AutomatonSet(None, (small, big)))
    assert merged.counters == 5
    padding = {
        (t.counter, t.op)
        for t in merged.transitions
        if t.source == small.initial and t.source == t.target and t.op in (INC, CHECK)
    }
    assert padding == {(4, INC), (4, CHECK), (5, INC), (5, CHECK)}


@pytest.mark.parametrize("text", ["a b^w + (a^T 0)^w", "0*^w + b a^w", "b (a^w + (b 0)^w)"])
def test_merge_pads_a_prefixed_member_on_its_cycle(text):
    # the only nonempty member has a prefix and fewer counters than the
    # widest; padded on the prefix's first state, passed once, its padding
    # counters could never be checked again and the union read as empty
    tree = ex.parse_omega_t(text, "ab")
    for auto in (compile_expression(tree, "ab"), merge(compile_omega(tree, SIGMA))):
        report = decide(auto)
        assert not report.empty
        assert verify_witness(report.simple, report.witness)


def test_merge_empty_iff_every_member_empty(rng):
    for _ in range(12):
        e = random_omega_expr(rng, depth=3)
        if omega_member_count(e) > 12:
            continue
        auto_set = compile_omega(e, SIGMA)
        merged_empty = is_empty(merge(auto_set))
        member_empty = [is_empty(m) for m in auto_set.automata]
        assert merged_empty == all(member_empty)


# --------------------------------------------------------------------------
# whole-pipeline facts

def test_compile_examples_emptiness():
    assert not is_empty(compile_expression(ex.parse_omega_t("(a^T b)^w", "ab"), "ab"))
    assert is_empty(compile_expression(ex.parse_omega_t("0^w", "ab"), "ab"))
    assert not is_empty(compile_expression(ex.parse_omega_t("((a*b)* a^T b)^w", "ab"), "ab"))


def test_empty_free_expressions_are_nonempty(rng):
    checked = 0
    for _ in range(500):
        if checked == 25:
            break
        e = random_omega_expr(rng, depth=4, allow_empty=False)
        if omega_member_count(e) > 12:
            continue
        auto = compile_expression(e, SIGMA)
        if len(simplify(auto).states) > 120:
            continue
        assert not is_empty(auto)
        checked += 1
    assert checked == 25


def _regex_nonempty(r: ex.RegExpr) -> bool:
    if type(r) in (ex.RCat, ex.RAlt):
        left, right = _regex_nonempty(r.left), _regex_nonempty(r.right)
        return left and right if type(r) is ex.RCat else left or right
    return type(r) is not ex.REmpty  # a star holds the empty word


def _block_values(e: ex.TExpr) -> tuple[bool, bool]:
    """Whether the block expression's sequence language is nonempty, and
    whether it has a sequence with infinitely many nonempty blocks."""
    if type(e) in (ex.Star, ex.T):  # one or more iterations per block, as compiled
        return _block_values(e.body)
    if type(e) in (ex.Cat, ex.Sum):
        (ln, li), (rn, ri) = _block_values(e.left), _block_values(e.right)
        if type(e) is ex.Sum:
            return ln or rn, li or ri
        return ln and rn, ln and rn and (li or ri)
    return (True, True) if type(e) is ex.Sym else (False, False)


def _omega_nonempty(e: ex.OmegaTExpr) -> bool:
    """Nonemptiness read off the expression tree alone, with no automaton."""
    if type(e) is ex.Omega:
        return _block_values(e.body)[1]
    if type(e) is ex.Prefix:
        return _regex_nonempty(e.prefix) and _omega_nonempty(e.tail)
    return _omega_nonempty(e.left) or _omega_nonempty(e.right)


def test_compiled_verdicts_match_the_expressions_1000_random():
    rng = random.Random(1)
    checked = 0
    while checked < 1000:
        e = random_omega_expr(rng, 4)
        if omega_member_count(e) > 30:
            continue
        assert decide(compile_expression(e, SIGMA)).empty != _omega_nonempty(e), ex.pretty(e)
        checked += 1


def _block_shape_nfa(e: ex.TExpr):
    return thompson(ex.erase_to_regex(e), SIGMA, FreshNames("w"))


@pytest.mark.parametrize(
    "text",
    ["(a^T b)^w", "((a*b)* a^T b)^w", "(a* b)^w", "((a+b)^T b)^w"],
)
def test_simulable_words_stay_within_star_approximation(text):
    # necessity: every word with a run prefix is a prefix of a word of the
    # block shape repeated, with ^T relaxed to *
    tree = ex.parse_omega_t(text, "ab")
    auto = compile_expression(tree, "ab")
    shape = ex.erase_to_regex(tree.body)
    closure = thompson(ex.RStar(shape), SIGMA, FreshNames("c"))
    from countercheck.cca import has_run_prefix

    frontier = [""]
    reachable = []
    while frontier:
        word = frontier.pop()
        if has_run_prefix(auto, word) is None:
            continue
        reachable.append(word)
        if len(word) < 6:
            frontier.extend(word + c for c in "ab")
    assert any(len(w) == 6 for w in reachable), "the probe must reach depth 6"
    for word in reachable:
        assert accepts_extension(closure, word), (text, word)


@pytest.mark.parametrize(
    "e",
    [
        ex.Sym("a"),
        ex.Cat(ex.Sym("a"), ex.Sym("b")),
        ex.Sum(ex.Sym("a"), ex.Sym("b")),
        ex.Star(ex.Sym("a")),
        ex.T(ex.Sym("a")),
    ],
    ids=lambda e: ex.pretty(e),
)
def test_witness_blocks_match_block_shape(e):
    shape = _block_shape_nfa(e)
    for member in compile_t(e, SIGMA).automata:
        closed = simplify(hat(member))
        witness = brute_force_witness(closed, 120)
        assert witness is not None
        run = replay(closed, witness.path)
        blocks, residue = split_with_residue(closed, run)
        assert blocks, "a witness passes at least one block boundary"
        for block in blocks:
            assert accepts(shape, block), (ex.pretty(e), block)
        assert accepts_extension(shape, residue) or residue == ""


def test_compile_refuses_more_members_than_the_limit():
    under = ex.parse_omega_t("(" + "(a+b)" * 5 + ")^w", "ab")
    assert omega_member_count(under) == 243 <= MAX_MEMBERS
    assert compile_expression(under, "ab").counters == expected_counters(under.body)
    over = ex.parse_omega_t("(" + "(a+b)" * 7 + ")^w + (a^T)^w", "ab")
    assert omega_member_count(over) == 2188 > MAX_MEMBERS
    with pytest.raises(CCAError, match="2188 automata"):
        compile_expression(over, "ab")


@pytest.mark.parametrize("alphabet, bad", [("a ^", " "), ("a^", "^"), ("aB", "B"), ("a1", "1"), ({"a", "\0"}, "\0")])
def test_the_library_refuses_an_alphabet_character_that_is_not_a_letter(alphabet, bad):
    # no expression can use such a letter, and an export would write it
    message = re.escape(f"alphabet character {bad!r} is not a lowercase letter")
    with pytest.raises(ex.ParseError, match=message):
        ex.parse_omega_t("a^w", alphabet)
    with pytest.raises(CCAError, match=message):
        compile_expression(ex.parse_omega_t("a^w", "a"), alphabet)


# (((a+b) repeated k times))^w for k = 2..5, and a mix under ^T
SUM_SHAPES = tuple(f"(({'(a+b)' * k}))^w" for k in range(2, 6)) + ("(((a+b)+(a+b))^T b)^w",)


def _pinned_trees() -> list:
    """The sum shapes and 200 random trees."""
    rng = random.Random(1313)
    trees = [ex.parse_omega_t(text, "ab") for text in SUM_SHAPES]
    return trees + [random_omega_expr(rng, 4) for _ in range(200)]


def test_compile_exports_and_formulas_are_pinned():
    # the compiled and the simplified automaton's JSON and both styles of
    # the formula, byte for byte, over the sum shapes and 200 random trees
    digest = hashlib.sha256()
    transitions = 0
    for e in _pinned_trees():
        a = compile_expression(e, "ab")
        transitions += len(a.transitions)
        phi = emit_phi(e)
        for text in (
            export(a, "json"),
            export(simplify(a), "json"),
            pretty_formula(phi),
            pretty_formula(phi, style="ascii"),
        ):
            digest.update(text.encode() + b"\n")
    assert transitions > 30000
    assert digest.hexdigest() == "42c2f57c468f889f5dd189fd240009af984bba44bb11634a559045c2c3f42f92"


def test_compile_dot_exports_are_pinned():
    # the compiled and the simplified automaton's DOT, byte for byte, over
    # the same trees
    digest = hashlib.sha256()
    for e in _pinned_trees():
        a = compile_expression(e, "ab")
        for text in (export(a, "dot"), export(simplify(a), "dot")):
            digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == "f94048555ac211b883217b43a509e22d374c8fe6e38ba3650b37e6ecca56d418"


def test_formulas_with_macros_unfolded_are_pinned():
    # both styles of each pinned tree's formula with its macros unfolded,
    # byte for byte
    digest = hashlib.sha256()
    for e in _pinned_trees():
        phi = emit_phi(e)
        for style in ("unicode", "ascii"):
            digest.update(pretty_formula(phi, style, expand_macros=True).encode() + b"\n")
    assert digest.hexdigest() == "b10b8eb2bc769d6a79cacada0998fbc24e39bf9cc49f8ee116d9d8d81deee988"


def test_compiling_and_printing_leave_no_cyclic_garbage():
    # nothing these steps build refers to itself, so reference counting
    # frees it all and the collector finds nothing
    e = ex.parse_omega_t("b (a^T b)^w", "ab")
    gc.collect()
    gc.disable()
    try:
        compile_expression(e, "ab")
        pretty_formula(emit_phi(e))
        pretty_formula(emit_phi(e), expand_macros=True)
        assert gc.collect() == 0
    finally:
        gc.enable()
