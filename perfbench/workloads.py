"""Inputs, command paths and reference checks of the countercheck benchmark.

Each workload builds one *pass* of inputs from the workload seed, and a run
repeats whole passes, so every run measures the same input mix whatever its
speed.  The generators belong to the benchmark: the package's own random
generators may be retuned, and the workloads must not move with them.

Importing this module puts the checkout's ``src`` directory first on
``sys.path``, so the package measured is always the one next to the
benchmark.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import countercheck  # noqa: E402
from countercheck import cca, emptiness, expr, harness, logic, translate  # noqa: E402

if not Path(countercheck.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"countercheck was imported from {countercheck.__file__}, not from {SRC}")

CORPUS = Path(__file__).with_name("corpus.json")
ALPHABET = "ab"
FUZZ_DEPTH = 40  # the default depth of `countercheck fuzz`
UNBOUNDED = 10**9  # an oracle depth no search reaches: the oracle is then exact


@dataclass(frozen=True)
class Input:
    id: str
    data: Any


# --------------------------------------------------------------------------
# generators


def _ring(rng: random.Random, lo: int, hi: int, counters: int, hubs: int, out: list) -> None:
    """Wire states lo..hi-1 into a ring.  Silent choice hubs add shortcut
    edges, which make check-free pump loops possible; every other state
    fires one transition, mostly to its ring successor.

    The shares of operations, counters and letters are exact, not drawn:
    they set the size of the decision's product, which then depends on the
    slot an automaton fills and hardly on the seed.
    """
    size = hi - lo
    hub_set = set(rng.sample(range(lo, hi), min(hubs, size)))
    singles = [i for i in range(lo, hi) if i not in hub_set]
    m = len(singles)
    ops = ["stuck"] * (m // 32) + ["inc"] * round(0.35 * m) + ["check"] * round(0.2 * m)
    ops += ["no_op"] * (m - len(ops))
    counter_of = {}
    for op in ("inc", "check"):
        for n, i in enumerate(j for j, o in enumerate(ops) if o == op):
            counter_of[i] = 1 + n % counters
    labels = [ALPHABET[n % 2] if n < m // 2 else None for n in range(m)]
    order = list(range(m))
    rng.shuffle(order)
    rng.shuffle(labels)
    for i in range(lo, hi):
        succ = lo + (i + 1 - lo) % size
        if i in hub_set:
            for j in sorted({succ, rng.randrange(lo, hi)}):
                out.append((f"q{i}", None, f"q{j}", 1, "no_op"))
            continue
        slot = order.pop()
        op = ops[slot]
        if op == "stuck":
            continue
        target = succ if rng.random() < 0.85 else rng.randrange(lo, hi)
        out.append((f"q{i}", labels[slot], f"q{target}", counter_of.get(slot, 1), op))


def random_automaton(rng: random.Random, states: int, counters: int, core: int) -> dict:
    """A simple automaton in the JSON schema of ``--automaton`` files.

    States q0..q{core-1} form the ring reachable from q0; the rest form a
    second ring that q0 cannot reach.  The decision still builds its
    product over every state, while the oracle only explores the reachable
    ring, which keeps the reference answer exact and cheap.
    """
    transitions: list = []
    _ring(rng, 0, core, counters, max(1, core // 4), transitions)
    if states > core:
        _ring(rng, core, states, counters, max(1, (states - core) // 8), transitions)
    return {
        "states": [f"q{i}" for i in range(states)],
        "alphabet": sorted(ALPHABET),
        "initial": "q0",
        "final": None,
        "counters": counters,
        "transitions": [
            {"from": s, "label": "eps" if label is None else label, "to": t, "counter": k, "op": op}
            for s, label, t, k, op in transitions
        ],
    }


def to_cca(data: dict) -> cca.CCA:
    """Build the automaton of a schema dict with the model's constructors,
    as `countercheck fuzz` builds its cases."""
    return cca.CCA(
        states=frozenset(data["states"]),
        alphabet=frozenset(data["alphabet"]),
        initial=data["initial"],
        counters=data["counters"],
        transitions=frozenset(
            cca.Transition(
                d["from"], None if d["label"] == "eps" else d["label"], d["to"], d["counter"], d["op"]
            )
            for d in data["transitions"]
        ),
    )


def _tree(rng: random.Random, leaves: int):
    """A random binary tree shape with ``leaves`` leaves, as nested pairs."""
    if leaves == 1:
        return None
    left = rng.randint(1, leaves - 1)
    return (_tree(rng, left), _tree(rng, leaves - left))


def random_block(rng: random.Random, leaves: int, sums: int, unary: int) -> str:
    """Text of a random block expression with exactly ``leaves`` letters,
    ``sums`` mixes among its binary nodes (concatenations otherwise) and
    ``unary`` stars or ^T.  The shape counts fix how much the compiler
    builds (3^sums automata), so the seed changes little but the shape."""
    shape = _tree(rng, leaves)
    binary = leaves - 1
    is_sum = [True] * sums + [False] * (binary - sums)
    rng.shuffle(is_sum)
    nodes = 2 * leaves - 1
    wrapped = rng.sample(range(nodes), unary)
    wraps = {i: rng.choice(("*", "^T")) for i in wrapped}
    counter = iter(range(nodes))
    binaries = iter(is_sum)

    def render(node) -> str:
        index = next(counter)
        if node is None:
            text = rng.choice(ALPHABET)
        else:
            left, right = render(node[0]), render(node[1])
            text = f"({left}+{right})" if next(binaries) else f"({left} {right})"
        return f"({text}){wraps[index]}" if index in wraps else text

    return render(shape)


# (leaves, sums, unary) of the random compile inputs, taken in turn
EXPRESSION_SHAPES = tuple(
    (leaves, sums, unary) for leaves in (2, 3, 4, 5) for sums in (0, 1, 2, 3) for unary in (1, 2)
    if sums < leaves
)


def random_expression(rng: random.Random, slot: int) -> str:
    """A random omega expression of the slot's shape; every fourth slot puts
    a one-letter prefix in front and every fifth adds a second ^w term."""
    leaves, sums, unary = EXPRESSION_SHAPES[slot % len(EXPRESSION_SHAPES)]
    text = f"({random_block(rng, leaves, sums, unary)})^w"
    if slot % 5 == 4:
        text += f" + ({random_block(rng, 2, 0, 1)})^w"
    if slot % 4 == 3:
        text = f"{rng.choice(ALPHABET)} ({text})"
    return text


# --------------------------------------------------------------------------
# one pass of inputs per workload


def load_corpus() -> list[dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))["rungs"]


def typed_exprs_pass(seed: int) -> list[Input]:
    """The hand-written ladder in an order drawn from the seed."""
    rungs = [r for r in load_corpus() if not r.get("over_limit")]
    random.Random(f"typed-exprs:{seed}").shuffle(rungs)
    return [Input(r["text"], r) for r in rungs]


def over_limit_rungs() -> list[Input]:
    return [Input(r["text"], r) for r in load_corpus() if r.get("over_limit")]


# (|S| bound, automata per pass).  Sizes run from bound/2 to bound in each
# stratum, so one pass climbs from 16 to 64 states without gaps and ends at
# 128.  The decision's cost grows about as |S|^3: the one automaton at 128
# states takes two thirds of a pass.  21 inputs put the median on one
# input, not between two.
AUTOMATON_STRATA = ((32, 10), (64, 10), (128, 1))


def random_automata_pass(seed: int) -> list[Input]:
    """Size and counter count are fixed per slot, spread over
    |S| in [bound/2, bound] and N in 1..6; the seed draws the wiring."""
    inputs = []
    for bound, count in AUTOMATON_STRATA:
        for j in range(count):
            rng = random.Random(f"random-automata:{seed}:{bound}:{j}")
            states = bound - (bound // 2) * (count - 1 - j) // max(1, count - 1)
            automaton = random_automaton(rng, states, 1 + j % 6, core=rng.randint(8, 16))
            inputs.append(Input(f"S{bound}-{j}", json.dumps(automaton)))
    return inputs


FUZZ_CASES = 1000


def fuzz_pass(seed: int) -> list[Input]:
    inputs = []
    for j in range(FUZZ_CASES):
        rng = random.Random(f"fuzz:{seed}:{j}")
        states = rng.randint(5, 8)
        inputs.append(Input(f"case-{j}", to_cca(random_automaton(rng, states, 1 + j % 2, core=states))))
    return inputs


SUM_LADDER = tuple(f"(({'(a+b)' * k}))^w" for k in range(2, 6)) + ("(((a+b)+(a+b))^T b)^w",)
RANDOM_EXPRESSIONS = 200


def compile_pass(seed: int) -> list[Input]:
    """The sum-heavy ladder, then random expressions of every shape in turn."""
    inputs = [Input(text, text) for text in SUM_LADDER]
    for j in range(RANDOM_EXPRESSIONS):
        rng = random.Random(f"compile:{seed}:{j}")
        inputs.append(Input(f"random-{j}", random_expression(rng, j)))
    return inputs


# --------------------------------------------------------------------------
# the command paths; each calls what the CLI subcommand calls, in-process


def _verdict(report) -> dict:
    if report.empty:
        return {"verdict": "EMPTY", "certificate": None}
    return {"verdict": "NONEMPTY", "certificate": json.dumps(report.witness.to_json_dict(), indent=2)}


def empty_expression(rung: dict) -> dict:
    """`countercheck empty EXPR`: parse, compile, decide, certificate JSON."""
    tree = expr.parse_omega_t(rung["text"], ALPHABET)
    return _verdict(emptiness.decide(translate.compile_expression(tree, ALPHABET)))


def empty_automaton(text: str) -> dict:
    """`countercheck empty --automaton FILE`: import, decide, certificate JSON."""
    return _verdict(emptiness.decide(cca.import_json(text)))


def fuzz_case(a: cca.CCA):
    """One case of `countercheck fuzz`."""
    return harness.examine(a, FUZZ_DEPTH)


def compile_and_formula(text: str) -> dict:
    """`countercheck compile EXPR` and `countercheck formula EXPR`, with the
    simplification every decision starts from."""
    tree = expr.parse_omega_t(text, ALPHABET)
    automaton = translate.compile_expression(tree, ALPHABET)
    simple = cca.simplify(automaton)
    exported = cca.export(automaton, "json")
    formula = logic.pretty_formula(logic.emit_phi(tree))
    return {"tree": tree, "automaton": automaton, "simple": simple, "json": exported, "formula": formula}


# --------------------------------------------------------------------------
# reference checks; each returns None or what is wrong with an output


def rule_budget(e) -> int:
    """Counters the compilation rules assign, recomputed from the AST:
    atoms 1, concatenation and mix N + N' + 1, star N + 1, ^T N + 2; the
    merge keeps the largest member."""
    if isinstance(e, expr.Union):
        return max(rule_budget(e.left), rule_budget(e.right))
    if isinstance(e, expr.Prefix):
        return rule_budget(e.tail)
    if isinstance(e, expr.Omega):
        return rule_budget(e.body)
    if isinstance(e, (expr.Empty, expr.Sym)):
        return 1
    if isinstance(e, (expr.Cat, expr.Sum)):
        return rule_budget(e.left) + rule_budget(e.right) + 1
    if isinstance(e, expr.Star):
        return rule_budget(e.body) + 1
    if isinstance(e, expr.T):
        return rule_budget(e.body) + 2
    raise TypeError(f"not an expression node: {e!r}")


def certificate_problem(simple: cca.CCA, witness, shortest: int) -> Optional[str]:
    """Walk the certificate along the automaton's edges from its initial
    state, re-verify it, and compare its length with the shortest one."""
    path = witness.path
    if not path or path[0] != simple.initial:
        return "certificate path does not start at the initial state"
    edges = {(t.source, t.target) for t in simple.transitions}
    if any((here, there) not in edges for here, there in zip(path, path[1:])):
        return "certificate path leaves the transition graph"
    if not emptiness.verify_witness(simple, witness):
        return "verify_witness rejects the certificate"
    if len(path) != shortest:
        return f"certificate has {len(path)} states, the shortest has {shortest}"
    return None


def _oracle(refs: dict, key: str, a: cca.CCA):
    if key not in refs:
        refs[key] = emptiness.brute_force_witness(a, UNBOUNDED)
    return refs[key]


def check_typed(item: Input, out: dict, refs: dict) -> Optional[str]:
    rung = item.data
    if out["verdict"] != rung["verdict"]:
        return f"verdict {out['verdict']}, expected {rung['verdict']}"
    if out["verdict"] == "EMPTY":
        return None
    if item.id not in refs:
        compiled = translate.compile_expression(expr.parse_omega_t(rung["text"], ALPHABET), ALPHABET)
        refs[item.id] = cca.simplify(compiled)
    witness = emptiness.witness_from_json(out["certificate"])
    return certificate_problem(refs[item.id], witness, rung["witness_len"])


def _check_against_oracle(a: cca.CCA, empty: bool, witness, reference) -> Optional[str]:
    if empty != (reference is None):
        return f"verdict {'EMPTY' if empty else 'NONEMPTY'}, the oracle disagrees"
    if empty:
        return None
    return certificate_problem(a, witness, len(reference.path))


def check_automaton(item: Input, out: dict, refs: dict) -> Optional[str]:
    a = cca.import_json(item.data)
    reference = _oracle(refs, item.id, a)
    witness = None if out["certificate"] is None else emptiness.witness_from_json(out["certificate"])
    return _check_against_oracle(a, out["verdict"] == "EMPTY", witness, reference)


def check_fuzz(item: Input, outcome, refs: dict) -> Optional[str]:
    if outcome.failure is not None:
        return outcome.failure
    return _check_against_oracle(item.data, outcome.empty, outcome.witness, _oracle(refs, item.id, item.data))


def check_compile(item: Input, out: dict, refs: dict) -> Optional[str]:
    automaton = out["automaton"]
    if cca.import_json(out["json"]) != automaton:
        return "exported JSON does not import back to the compiled automaton"
    budget = rule_budget(out["tree"])
    if automaton.counters != budget:
        return f"{automaton.counters} counters, the rules budget {budget}"
    if not cca.is_simple(out["simple"]):
        return "simplified automaton is not simple"
    if not out["formula"]:
        return "empty formula"
    return None


def _digest_json(out: dict) -> str:
    return json.dumps(out, sort_keys=True)


def _digest_compile(out: dict) -> str:
    return hashlib.sha256((out["json"] + out["formula"]).encode()).hexdigest()


def _digest_fuzz(outcome) -> str:
    return repr((outcome.empty, outcome.witness, outcome.failure))


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]  # seed -> one pass of inputs
    path: Callable[[Any], Any]  # the timed command path
    check: Callable[[Input, Any, dict], Optional[str]]
    digest: Callable[[Any], str]  # equal digests, equal outputs: checked once
    isolated: bool  # each input in its own forked, limited child
    over_limit: Optional[Callable[[], list]] = None  # inputs the traced run's limit probe tries


WORKLOADS = {
    w.name: w
    for w in (
        Workload("typed-exprs", typed_exprs_pass, empty_expression, check_typed,
                 _digest_json, True, over_limit_rungs),
        Workload("random-automata", random_automata_pass, empty_automaton, check_automaton,
                 _digest_json, True),
        Workload("fuzz", fuzz_pass, fuzz_case, check_fuzz, _digest_fuzz, False),
        Workload("compile", compile_pass, compile_and_formula, check_compile, _digest_compile, False),
    )
}
