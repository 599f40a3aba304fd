"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""
import json
import time
from pathlib import Path

import pytest

import isolate
import run
import stats
import tracing
import workloads
from countercheck import cca, emptiness, expr, translate


def test_percentile_interpolates_between_ranks():
    assert stats.percentile([3, 1, 2], 50) == 2
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([10, 20], 0) == 10
    assert stats.percentile([10, 20], 100) == 20
    assert stats.percentile(list(range(101)), 99) == pytest.approx(99)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert stats.tail_percentile(15) == 33
    assert stats.tail_percentile(205) == 95
    assert stats.tail_percentile(1000) == 99
    for samples in (11, 25, 77, 1000):
        p = stats.tail_percentile(samples)
        assert samples * (1 - p / 100) >= stats.TAIL_BEYOND
        assert samples * (1 - (p + 1) / 100) < stats.TAIL_BEYOND
    with pytest.raises(ValueError):
        stats.tail_percentile(10)


def test_geomean():
    assert stats.geomean([1, 100]) == pytest.approx(10)
    assert stats.geomean([4.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geomean([1, 0])


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["decide", 0.0, 10.0, None, "x"],
        ["intersect", 1.0, 4.0, 0, "x"],
        ["search", 5.0, 3.0, 0, "x"],
        ["adjacency", 5.5, 1.0, 2, "x"],
    ]
    assert tracing.self_times(spans) == [3.0, 4.0, 2.0, 1.0]


def test_tracer_nests_spans_and_keeps_observers_out_of_them():
    tracer = tracing.Tracer()

    def slow_observer(counts, result):
        time.sleep(0.05)
        counts["seen"] += result

    inner = tracer.wrap("inner", lambda: 1, slow_observer)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    tracer.input_id = "case"
    assert outer() == 2
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [None, 0, 0]
    assert {span[4] for span in tracer.spans} == {"case"}
    assert tracer.counts["seen"] == 2
    assert tracer.spans[0][2] < 0.05  # two 50 ms observers are not in the span


def test_absorb_offsets_parent_indexes():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 1.0, None, "x"]]
    tracer.absorb({"spans": [["b", 0.0, 2.0, None, "y"], ["c", 0.5, 1.0, 0, "y"]], "counts": {"k": 3}})
    assert [span[3] for span in tracer.spans] == [None, None, 1]
    assert tracer.counts["k"] == 3


def test_install_wraps_and_uninstall_restores():
    original = emptiness.decide
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert emptiness.decide is not original
        workloads.empty_expression({"text": "(a b)^w"})
    finally:
        tracing.uninstall(undo)
    assert emptiness.decide is original
    names = {span[0] for span in tracer.spans}
    assert {"expr.parse", "translate.compile", "emptiness.decide", "nfa.intersect", "nfa.search"} <= names
    metrics = tracing.layer_metrics(tracer, 1, 1.0, 0, 0.0)
    assert [name for name in metrics] == [name for name, _ in tracing.PER_LAYER]
    assert metrics["emptiness.witness_len"][0] == 38
    assert 0 < metrics["nfa.product_reachable_share"][0] < 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    build = workloads.WORKLOADS[name].build
    first, again, other = build(7), build(7), build(8)
    assert first == again
    if name != "typed-exprs":
        assert first != other
    assert sorted(i.id for i in first) == sorted(i.id for i in other)


def test_random_automata_are_simple_and_sized_by_slot():
    for item in workloads.random_automata_pass(3):
        a = cca.import_json(item.data)
        assert cca.is_simple(a)
        bound = int(item.id[1:].split("-")[0])
        assert bound // 2 <= len(a.states) <= bound
    for item in workloads.fuzz_pass(3)[:50]:
        assert cca.is_simple(item.data)


def test_random_block_has_the_asked_shape():
    import random

    rng = random.Random(5)
    for leaves, sums, unary in workloads.EXPRESSION_SHAPES:
        text = workloads.random_block(rng, leaves, sums, unary)
        assert sum(c in "ab" for c in text) == leaves
        assert text.count("+") == sums
        assert text.count("*") + text.count("^T") == unary
        expr.parse_omega_t(f"({text})^w", "ab")


def test_rule_budget_matches_compiled_counters():
    for text, counters in (("(a b)^w", 3), ("(a^T b)^w", 5), ("((a^T b + a b^T)^T a)^w", 15)):
        tree = expr.parse_omega_t(text, "ab")
        assert workloads.rule_budget(tree) == counters
        assert translate.compile_expression(tree, "ab").counters == counters


def test_corpus_lengths_agree_with_the_oracle_where_it_finishes():
    for rung in workloads.load_corpus():
        if not rung["oracle"]:
            continue
        tree = expr.parse_omega_t(rung["text"], workloads.ALPHABET)
        simple = cca.simplify(translate.compile_expression(tree, workloads.ALPHABET))
        found = emptiness.brute_force_witness(simple, workloads.UNBOUNDED)
        assert ("EMPTY" if found is None else "NONEMPTY") == rung["verdict"], rung["text"]
        assert (None if found is None else len(found.path)) == rung["witness_len"], rung["text"]


def test_checks_reject_wrong_outputs():
    rung = {"text": "(a b)^w", "verdict": "NONEMPTY", "witness_len": 38}
    item = workloads.Input(rung["text"], rung)
    good = workloads.empty_expression(rung)
    assert workloads.check_typed(item, good, {}) is None
    assert "verdict" in workloads.check_typed(item, {"verdict": "EMPTY", "certificate": None}, {})
    witness = json.loads(good["certificate"])
    witness["path"] = witness["path"][1:]
    bad = {"verdict": "NONEMPTY", "certificate": json.dumps(witness)}
    assert workloads.check_typed(item, bad, {}) is not None
    longer = dict(rung, witness_len=37)
    assert "shortest" in workloads.check_typed(workloads.Input("x", longer), good, {})


def test_end_to_end_uses_per_input_medians_and_counts_failures_at_the_limit():
    def result(i, latency, error=None):
        return run.Result(f"in{i}", latency, 10.0 + i, error)

    ids = range(12)
    passes = [[result(i, 0.001 * (i + 1)) for i in ids] for _ in range(3)]
    passes[1] = [result(i, 1.0) for i in ids]  # one slow pass
    passes[1][0] = result(0, run.LIMIT_S, "over the time limit")
    metrics, _ = run.end_to_end(passes, 0.5)
    assert metrics["latency_p50_ms"][0] == pytest.approx(6.5)
    assert metrics["ok_share"][0] == pytest.approx(35 / 36)
    assert metrics["inputs_per_s"][0] == pytest.approx(35 / 3 / 0.078)
    assert metrics["peak_rss_mb"][0] == 21.0
    assert metrics["setup_s"] == (0.5, "s")


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(tracing.PER_LAYER)
    passes = [[run.Result(f"in{i}", 0.01, 1.0, None) for i in range(4)]]
    metrics, _ = run.end_to_end(passes, 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v[1] for k, v in metrics.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def _allocate(_):
    return len(bytearray(512 << 20))


def _sleep(_):
    time.sleep(5)


def _raise(_):
    raise ValueError("bad input")


def test_isolated_child_limits():
    assert isolate.Child(lambda x: x + 1, 41, 5, 256 << 20).wait().payload == 42
    memory = isolate.Child(_allocate, None, 5, 256 << 20).wait()
    assert memory.payload is None and memory.over_limit
    slow = isolate.Child(_sleep, None, 0.3, 256 << 20).wait()
    assert slow.payload is None and slow.over_limit and slow.wall_s < 2
    broken = isolate.Child(_raise, None, 5, 256 << 20).wait()
    assert broken.error == "ValueError: bad input" and not broken.over_limit
