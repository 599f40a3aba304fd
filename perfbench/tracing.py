"""Spans and counts at the boundaries between countercheck's modules.

The traced run wraps, from here, the public functions each module calls in
the next one; the package's source is not touched.  A function that a later
version removes is skipped and reports zero calls.  Spans stay in memory
and are written out when the run ends.
"""
from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Optional


class Tracer:
    """Spans are ``[name, start, seconds, parent index, input id]``."""

    def __init__(self):
        self.input_id: Optional[str] = None
        self.reset()

    def reset(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._bookkeeping = 0.0  # time spent in observers, kept out of spans

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(index)
            held = self._bookkeeping
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start - (self._bookkeeping - held)
                self._open.pop()
                self.spans[index] = [name, start, seconds, parent, self.input_id]
            if observe is not None:
                began = time.perf_counter()
                observe(self.counts, result)
                self._bookkeeping += time.perf_counter() - began
            return result

        return traced

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    def absorb(self, exported: dict) -> None:
        """Append the spans and counts a forked child recorded."""
        offset = len(self.spans)
        for name, start, seconds, parent, input_id in exported["spans"]:
            self.spans.append([name, start, seconds, None if parent is None else parent + offset, input_id])
        self.counts.update(exported["counts"])


def self_times(spans: list) -> list[float]:
    """Each span's seconds minus the seconds of the spans it directly caused."""
    own = [span[2] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2]
    return own


# --------------------------------------------------------------------------
# observers: counts taken where the work happens, outside the span times


def _reachable(nfa) -> int:
    successors: dict = defaultdict(list)
    for source, _, target in nfa.transitions:
        successors[source].append(target)
    seen = {nfa.initial}
    stack = [nfa.initial]
    while stack:
        for target in successors[stack.pop()]:
            if target not in seen:
                seen.add(target)
                stack.append(target)
    return len(seen)


def _product(counts: Counter, nfa) -> None:
    counts["nfa.product_states"] += len(nfa.states)
    counts["nfa.product_transitions"] += len(nfa.transitions)
    counts["nfa.product_reachable"] += _reachable(nfa)


def _structure(counts: Counter, nfa) -> None:
    counts["emptiness.structure_states"] += len(nfa.states)


def _report(counts: Counter, report) -> None:
    counts["emptiness.decisions"] += 1
    if not report.empty:
        counts["emptiness.nonempty"] += 1
        counts["emptiness.witness_states"] += len(report.witness.path)


def _compiled(counts: Counter, a) -> None:
    counts["translate.states"] += len(a.states)
    counts["translate.transitions"] += len(a.transitions)
    counts["translate.counters"] += a.counters


def _simple(counts: Counter, a) -> None:
    counts["cca.simple_states"] += len(a.states)


def _exported(counts: Counter, text: str) -> None:
    counts["cca.json_bytes"] += len(text.encode())


def install(tracer: Tracer) -> list:
    """Wrap every boundary; returns what ``uninstall`` needs."""
    from countercheck import cca, emptiness, expr, harness, logic, translate

    boundaries = (
        (expr, "parse_omega_t", "expr.parse", None),
        (translate, "compile_expression", "translate.compile", _compiled),
        (cca, "simplify", "cca.simplify", _simple),
        (emptiness, "simplify", "cca.simplify", _simple),
        (cca, "export", "cca.export", _exported),
        (cca, "import_json", "cca.import", None),
        (cca.CCA, "adjacency", "cca.adjacency", None),
        (logic, "emit_phi", "logic.formula", None),
        (logic, "pretty_formula", "logic.formula", None),
        (emptiness, "decide", "emptiness.decide", _report),
        (harness, "decide", "emptiness.decide", _report),
        (emptiness, "build_potential_witness_nfa", "emptiness.structure_nfa", _structure),
        (emptiness, "build_prefix_nfa", "emptiness.prefix_nfa", None),
        (emptiness, "intersect", "nfa.intersect", _product),
        (emptiness, "shortest_accepting_run", "nfa.search", None),
        (emptiness, "accepts", "nfa.accepts", None),
        (emptiness, "verify_witness", "emptiness.verify", None),
        (harness, "verify_witness", "emptiness.verify", None),
        (harness, "brute_force_witness", "emptiness.oracle", None),
        (harness, "examine", "harness.examine", None),
    )
    undo = []
    for owner, attribute, name, observe in boundaries:
        original = vars(owner).get(attribute)
        if original is None:
            continue
        setattr(owner, attribute, tracer.wrap(name, original, observe))
        undo.append((owner, attribute, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


# --------------------------------------------------------------------------
# per-layer metrics

PER_LAYER = (
    ("nfa.intersect_s", "s"),
    ("nfa.search_s", "s"),
    ("nfa.product_states", "count"),
    ("nfa.product_transitions", "count"),
    ("nfa.product_reachable_share", "share"),
    ("emptiness.structure_nfa_s", "s"),
    ("emptiness.structure_states", "count"),
    ("emptiness.prefix_nfa_s", "s"),
    ("emptiness.decide_s", "s"),
    ("emptiness.decide_self_s", "s"),
    ("emptiness.verify_s", "s"),
    ("emptiness.witness_len", "count"),
    ("nfa.accepts_s", "s"),
    ("emptiness.oracle_s", "s"),
    ("emptiness.oracle_calls", "count"),
    ("emptiness.nonempty_share", "share"),
    ("emptiness.over_limit_rungs", "count"),
    ("harness.examine_s", "s"),
    ("cca.adjacency_calls", "count"),
    ("cca.adjacency_s", "s"),
    ("expr.parse_s", "s"),
    ("translate.compile_s", "s"),
    ("translate.states", "count"),
    ("translate.transitions", "count"),
    ("translate.counters", "count"),
    ("cca.simplify_s", "s"),
    ("cca.simple_states", "count"),
    ("cca.export_s", "s"),
    ("cca.json_bytes", "B"),
    ("logic.formula_s", "s"),
    ("cca.import_s", "s"),
    ("trace.overhead_share", "share"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, inputs: int, scale: float, over_limit: int, overhead: float) -> dict:
    """Per-layer figures of a traced run: seconds (times ``scale``, the
    machine speed factor), calls and sizes per input, and the shares named
    in PER_LAYER."""
    seconds: dict = defaultdict(float)
    own: dict = defaultdict(float)
    calls: Counter = Counter()
    for span, mine in zip(tracer.spans, self_times(tracer.spans)):
        seconds[span[0]] += span[2] * scale
        own[span[0]] += mine * scale
        calls[span[0]] += 1
    counts = tracer.counts
    per_input = {
        "nfa.intersect_s": seconds["nfa.intersect"],
        "nfa.search_s": seconds["nfa.search"],
        "nfa.product_states": counts["nfa.product_states"],
        "nfa.product_transitions": counts["nfa.product_transitions"],
        "emptiness.structure_nfa_s": seconds["emptiness.structure_nfa"],
        "emptiness.structure_states": counts["emptiness.structure_states"],
        "emptiness.prefix_nfa_s": seconds["emptiness.prefix_nfa"],
        "emptiness.decide_s": seconds["emptiness.decide"],
        "emptiness.decide_self_s": own["emptiness.decide"],
        "emptiness.verify_s": seconds["emptiness.verify"],
        "nfa.accepts_s": seconds["nfa.accepts"],
        "emptiness.oracle_s": seconds["emptiness.oracle"],
        "emptiness.oracle_calls": calls["emptiness.oracle"],
        "harness.examine_s": seconds["harness.examine"],
        "cca.adjacency_calls": calls["cca.adjacency"],
        "cca.adjacency_s": seconds["cca.adjacency"],
        "expr.parse_s": seconds["expr.parse"],
        "translate.compile_s": seconds["translate.compile"],
        "translate.states": counts["translate.states"],
        "translate.transitions": counts["translate.transitions"],
        "translate.counters": counts["translate.counters"],
        "cca.simplify_s": seconds["cca.simplify"],
        "cca.simple_states": counts["cca.simple_states"],
        "cca.export_s": seconds["cca.export"],
        "cca.json_bytes": counts["cca.json_bytes"],
        "logic.formula_s": seconds["logic.formula"],
        "cca.import_s": seconds["cca.import"],
    }
    values = {name: _ratio(total, inputs) for name, total in per_input.items()}
    values["nfa.product_reachable_share"] = _ratio(
        counts["nfa.product_reachable"], counts["nfa.product_states"]
    )
    values["emptiness.witness_len"] = _ratio(counts["emptiness.witness_states"], counts["emptiness.nonempty"])
    values["emptiness.nonempty_share"] = _ratio(counts["emptiness.nonempty"], counts["emptiness.decisions"])
    values["emptiness.over_limit_rungs"] = over_limit
    values["trace.overhead_share"] = overhead
    return {name: (values[name], unit) for name, unit in PER_LAYER}
