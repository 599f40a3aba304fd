"""The countercheck benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload typed-exprs --seed 1 --seconds 10 --trace 0

Workloads: typed-exprs, random-automata, fuzz, compile (see README.md).
The run repeats whole passes of the workload's inputs until --seconds have
passed and at least MIN_PASSES passes are done.  Every output is checked
against a reference outside the timed region.  Each metric is printed by
name and unit, and the last line is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs untraced passes,
then the same passes again with spans at every module boundary, and
reports the per-layer metrics; the spans go to out/ next to this file.

Exit status: 0 when every output is correct, 1 when one is wrong, 2 when
the package cannot be imported from this checkout or the arguments are bad.
"""
from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import isolate
import speed
import stats

HERE = Path(__file__).resolve().parent
LIMIT_S = 10.0  # per input; a failed input counts at this latency
LIMIT_BYTES = 1 << 30  # address space per isolated input
MIN_PASSES = 4  # per-input medians then shrug off a slow spell of the machine
SETUP_REPEATS = 7


@dataclass
class Result:
    """Times are scaled to nominal machine speed when the run ends."""

    input_id: str
    latency_s: float  # the command path alone; LIMIT_S when the input failed
    peak_rss_mb: float
    error: Optional[str]
    over_limit: bool = False
    ended: float = 0.0  # perf_counter when the input was done
    factor: Optional[float] = None  # speed factor from the child's own loops


class Runner:
    """Runs and checks inputs of one workload, optionally traced."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.refs: dict = {}  # reference answers, per input
        self.verdicts: dict = {}  # (input, output digest) -> problem
        self.wrong = False  # some output disagreed with its reference

    def _timed(self, data: Any) -> dict:
        """Runs in the child: the input, between two timings of the speed
        loop, so that a long input is scaled by the speed on both sides."""
        before = speed.loop_seconds()
        if self.tracer is not None:
            self.tracer.reset()
        start = time.perf_counter()
        out = self.workload.path(data)
        latency = time.perf_counter() - start
        trace = None if self.tracer is None else self.tracer.export()
        loop = (before + speed.loop_seconds()) / 2
        return {"out": out, "latency": latency, "loop": loop, "trace": trace}

    def run(self, item) -> Result:
        if self.tracer is not None:
            self.tracer.input_id = item.id
        if self.workload.isolated:
            done = isolate.Child(self._timed, item.data, LIMIT_S, LIMIT_BYTES).wait()
            if done.payload is None:
                return Result(item.id, LIMIT_S, done.peak_rss_mb, done.error, done.over_limit)
            if self.tracer is not None:
                self.tracer.absorb(done.payload["trace"])
            out, latency, peak = done.payload["out"], done.payload["latency"], done.peak_rss_mb
            factor = speed.NOMINAL_S / done.payload["loop"]
        else:
            start = time.perf_counter()
            try:
                out = self.workload.path(item.data)
            except Exception as err:  # a failed input; the run goes on
                return Result(item.id, LIMIT_S, _own_peak_mb(), f"{type(err).__name__}: {err}")
            latency = time.perf_counter() - start
            peak = _own_peak_mb()
            factor = None
        problem = self.check(item, out)
        if problem is not None:
            self.wrong = True
            return Result(item.id, LIMIT_S, peak, f"wrong output: {problem}")
        return Result(item.id, latency, peak, None, factor=factor)

    def check(self, item, out) -> Optional[str]:
        key = (item.id, self.workload.digest(out))
        if key not in self.verdicts:
            self.verdicts[key] = self.workload.check(item, out, self.refs)
        return self.verdicts[key]


def _own_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(runner: Runner, items: list, seconds: float, min_passes: int, machine: speed.Speed) -> list:
    """Whole passes until ``seconds`` have passed and ``min_passes`` are done."""
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        results = []
        for item in items:
            results.append(runner.run(item))
            results[-1].ended = time.perf_counter()
            machine.sample()
        passes.append(results)
    return passes


def setup_seconds(workload: str, seed: int, machine: speed.Speed) -> float:
    """Median set-up time over fresh interpreters (import plus input build),
    scaled by the loop samples taken between them."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
        machine.sample(force=True)
    return stats.median(times) * machine.factor()


def scale(passes: list, machine: speed.Speed) -> None:
    """Scale the times of finished inputs to nominal machine speed: by the
    loops the input's own child ran, or by the samples nearest the input."""
    for r in (r for p in passes for r in p if r.error is None):
        r.latency_s *= r.factor or machine.factor_at(r.ended)


def end_to_end(passes: list[list[Result]], setup_s: float) -> tuple[dict, str]:
    """Latency figures use each input's median over the passes, so a slow
    spell of the machine that touches a minority of passes is ignored.  The
    tail percentile leaves ten of the samples of the shortest run (MIN_PASSES
    passes) beyond it, so it is the same for every run of a workload however
    many passes a faster program fits in."""
    inputs = len(passes[0])
    values = [stats.median([p[k].latency_s for p in passes]) * 1000 for k in range(inputs)]
    results = [r for p in passes for r in p]
    ok = sum(r.error is None for r in results)
    tail = stats.tail_percentile(inputs * MIN_PASSES)
    return {
        "setup_s": (setup_s, "s"),
        "inputs_per_s": (ok / len(passes) / (sum(values) / 1000), "1/s"),
        "latency_p50_ms": (stats.median(values), "ms"),
        "latency_tail_ms": (stats.percentile(values, tail), "ms"),
        "latency_geomean_ms": (stats.geomean(values), "ms"),
        "peak_rss_mb": (max(r.peak_rss_mb for r in results), "MB"),
        "ok_share": (ok / len(results), "share"),
    }, f"tail is p{tail} of {inputs} per-input medians of {len(results)} samples"


def over_limit_count(workload) -> int:
    """Start every over-limit input of the workload at once (there are two)
    and count those that still exceed the per-input limit."""
    children = [isolate.Child(workload.path, item.data, LIMIT_S, LIMIT_BYTES) for item in workload.over_limit()]
    return sum(child.wait().over_limit for child in children)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import tracing
        import workloads
    except ImportError as err:
        print(f"error: cannot import countercheck from this checkout: {err}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    machine = speed.Speed()
    setup_s = setup_seconds(args.workload, args.seed, machine) if not args.trace else 0.0
    items = workload.build(args.seed)
    runner = Runner(workload)
    if not args.trace:
        passes = run_passes(runner, items, args.seconds, MIN_PASSES, machine)
        scale(passes, machine)
        factor = machine.factor()
        metrics, note = end_to_end(passes, setup_s)
    else:
        passes = run_passes(runner, items, args.seconds / 2, 1, machine)
        over_limit = over_limit_count(workload) if workload.over_limit else 0
        tracer = tracing.Tracer()
        runner.tracer = tracer
        undo = tracing.install(tracer)
        try:
            traced = run_passes(runner, items, 0, len(passes), machine)
        finally:
            tracing.uninstall(undo)
        scale(passes + traced, machine)
        factor = machine.factor()
        untraced_s = sum(r.latency_s for p in passes for r in p)
        traced_s = sum(r.latency_s for p in traced for r in p)
        metrics = tracing.layer_metrics(tracer, len(items) * len(traced), factor, over_limit,
                                        traced_s / untraced_s - 1)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.export()), encoding="utf-8")
        note = f"{len(tracer.spans)} spans in {trace_file.relative_to(HERE.parent)}"
        passes = passes + traced

    results = [r for p in passes for r in p]
    failed = [r for r in results if r.error is not None]
    # a wrong output or an exception makes the run incorrect; an input over
    # its limit only counts as failed
    correct = not runner.wrong and all(r.error is None or r.over_limit for r in failed)
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} inputs in {len(passes)} passes"
          f" of {len(items)}; {len(failed)} failed (failed_share {len(failed) / len(results):.4g}); {note}")
    print(f"  times scaled to nominal machine speed by {factor:.4f} (run median; each input by the"
          f" {speed.NEAREST} samples nearest it, of {len(machine.samples)}; see speed.py)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:.6g} {unit}")
    for input_id, error in sorted({(r.input_id, r.error) for r in failed}):
        print(f"  FAILED {input_id}: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
