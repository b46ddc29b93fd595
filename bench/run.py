"""The prodtv benchmark: seeded workloads, end-to-end metrics, a traced run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact_enum --seed 1 --seconds 25 --trace 0

Each workload is a deck of operations generated from ``--seed`` (see
workloads.py). BENCHMARK.json gates changes on exact_enum and cli_mixed only:
bounds_large_n and mc_sampling run the same way, but on a shared 2-vCPU host
their figures swung by up to a half between sets of runs. One client replays the deck in a closed loop, issuing the next
operation only when the previous one has returned, until ``--seconds`` have
passed and at least one pass is complete. Every result is checked; a failure
is an undocumented exception, a wrong exit code or a failed check.

End-to-end metrics (``--trace 0``):
  setup_s               best of five set-ups, each a fresh-process
                        ``import prodtv.cli`` plus deck generation and one
                        warm-up call per kind of operation
  ops_per_s             operations per second of a pass made of each item's
                        best time
  latency_p50_ms/p90_ms percentiles over the deck's items of each item's best
                        wall time over its repetitions in the run; the sample
                        count and repetitions are printed and stored
  peak_rss_mb           peak resident memory of the benchmark process
  bracket_ratio_median  median upper/lower of the answer's bracket over
                        operations with a nonzero lower end: the bounds
                        report's best bracket, or on Monte Carlo operations the
                        confidence interval
The failed fraction is printed, stored and carried by the result's
``failed``/``attempted``; it is not a metric because it is 0 on a correct run.

With ``--trace 1`` the run spends half its time untraced and half with a
wrapper around every traced prodtv function (see spans.py), and reports
per-layer times and counts per pass of the deck (0 where the workload does not
reach the layer), self times, and the tracing overhead. The last line of
stdout is one JSON object; a report with the input properties and any failures
and, for traced runs, the spans are written to bench/results/.

Known library defects that the workloads steer clear of (workloads.KNOWN_DEFECTS)
are probed after every run and reported on stdout, stderr and in the report;
they do not count as failures.

The library is imported from ``src/`` of the checkout the script sits in; the
benchmark exits non-zero before measuring anything if it is not there.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl
from spans import NullTracer, Tracer, instrument

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("bracket_ratio_median", "ratio"),
)

PER_LAYER = (
    ("core.input.time_s", "s"), ("core.input.calls", "count"), ("core.input.coords", "count"),
    ("core.exact.time_s", "s"), ("core.exact.calls", "count"),
    ("core.exact.outcomes", "count"), ("core.exact.ns_per_outcome", "ns"),
    ("core.exact.bytes_computed", "B"),
    ("core.exact.serial.time_s", "s"), ("core.exact.threaded.time_s", "s"),
    ("core.exact.serial.ns_per_outcome", "ns"), ("core.exact.threaded.ns_per_outcome", "ns"),
    ("core.closed_form.time_s", "s"), ("core.closed_form.terms", "count"),
    ("core.mc.time_s", "s"), ("core.mc.samples", "count"), ("core.mc.coord_draws", "count"),
    ("core.mc.ns_per_coord_draw", "ns"),
    ("reduce.scheffe.time_s", "s"), ("reduce.scheffe.coords", "count"),
    ("bounds.report.time_s", "s"), ("bounds.report.self_s", "s"),
    ("bounds.report.active_coords", "count"),
    ("bounds.trivial.time_s", "s"), ("bounds.l2.time_s", "s"),
    ("bounds.hellinger.time_s", "s"), ("bounds.kl.time_s", "s"),
    ("bounds.symmetric_l2.time_s", "s"), ("bounds.affinity.time_s", "s"),
    ("symmetrize.channels.time_s", "s"), ("symmetrize.channels.coords", "count"),
    ("extremal.gap.time_s", "s"), ("extremal.lowther.time_s", "s"),
    ("extremal.lowther.sign_patterns", "count"),
    ("cli.process.time_s", "s"), ("cli.main.time_s", "s"), ("cli.startup_s", "s"),
    ("cli.self_s", "s"), ("cli.stdout_bytes", "B"),
    ("trace.ops_per_pass", "count"),
    ("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
)

# The exact kernels read one float64 mass of each side per joint outcome; this
# is a model of the bytes the kernel must touch, not a measurement.
BYTES_PER_OUTCOME = 16


@dataclass(frozen=True)
class Workload:
    generate: object
    reference: object
    run: object
    check: object
    bracket: object


WORKLOADS = {
    "exact_enum": Workload(wl.exact_generate, wl.exact_reference, wl.exact_run,
                           wl.exact_check, wl.exact_bracket),
    "bounds_large_n": Workload(wl.bounds_generate, wl.bounds_reference, wl.bounds_run,
                               wl.bounds_check, wl.bounds_bracket),
    "mc_sampling": Workload(wl.mc_generate, wl.mc_reference, wl.mc_run, wl.mc_check,
                            wl.mc_bracket),
    "cli_mixed": Workload(wl.cli_generate, wl.cli_reference, None, wl.cli_check,
                          wl.cli_bracket),
}


def load_prodtv():
    """Import prodtv from this checkout's src/, and only from there."""
    package = ROOT / "src" / "prodtv"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a prodtv checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import prodtv
    import prodtv.cli  # noqa: F401  (the cli workload and the tracer need it)
    if Path(prodtv.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported prodtv from {prodtv.__file__}, not {package}")
    return prodtv


def seeded_rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed] + [ord(c) for c in workload])


def probe_import(env) -> tuple:
    """(import seconds, process wall seconds) of a fresh `import prodtv.cli`."""
    code = "import time; t = time.perf_counter(); import prodtv.cli; print(time.perf_counter() - t)"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return float(proc.stdout), time.perf_counter() - start


def warmup_items(deck: list) -> list:
    """The cheapest item of each kind."""
    cheapest = {}
    for item in deck:
        if item.kind not in cheapest or item.n < cheapest[item.kind].n:
            cheapest[item.kind] = item
    return list(cheapest.values())


def make_ops(name: str, tv):
    """(untraced op, traced op factory) for a workload.

    cli_mixed calls cli.main in process, with stdin and stdout redirected: a
    CLI process's wall time is mostly interpreter start-up and import, which on
    a shared host swing by a third from minute to minute and would drown the
    work the CLI does. Start-up cost shows in setup_s, which imports prodtv.cli
    in a fresh process, and in the traced run's cli.startup_s and
    cli.process.time_s.
    """
    if name != "cli_mixed":
        run = WORKLOADS[name].run
        return (lambda item: run(item, tv, NullTracer()),
                lambda tracer: lambda item: run(item, tv, tracer))

    def in_process(tracer):
        def op(item):
            out, err = io.StringIO(), io.StringIO()
            stdin = sys.stdin
            sys.stdin = io.StringIO(item.data["stdin"] or "")
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    with tracer.span("cli.main"):
                        code = tv.cli.main(list(item.data["argv"]))
            finally:
                sys.stdin = stdin
            text = out.getvalue()
            tracer.add("cli.stdout_bytes", len(text.encode()))
            return code, text
        return op

    return in_process(NullTracer()), in_process


def setup(name: str, seed: int, tv, env) -> tuple:
    """Set up SETUP_REPEATS times; returns (deck, best seconds, probes).

    The best set-up, not the median, for the reason best_times gives.
    """
    workload = WORKLOADS[name]
    untraced_op, _ = make_ops(name, tv)
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        import_s, wall_s = probe_import(env)
        probes.append(wall_s)
        start = time.perf_counter()
        deck = workload.generate(seeded_rng(seed, name))
        for item in warmup_items(deck):
            try:
                untraced_op(item)
            except Exception:  # counted when the measured loop reaches the item
                pass
        times.append(import_s + time.perf_counter() - start)
    return deck, min(times), probes


class Loop:
    """Closed-loop replay of a deck in whole passes, with every result checked."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        # Answer brackets by item, from each item's first successful run.
        self.brackets = {}
        # Pass and item times of the last replay, for the report.
        self.timings = {}

    def run(self, deck, op, budget_s: float, tracer=None) -> dict:
        """Replay the deck until ``budget_s`` has passed and one pass is complete.

        Returns the wall time of each complete pass and, per item, its
        latencies in the order run; the last partial pass adds latencies only.
        A traced run stops only between passes, so its spans cover whole passes.
        """
        pass_s = []
        latencies = [[] for _ in deck]
        start = time.perf_counter()

        def summary():
            self.timings = {"pass_s": pass_s, "item_latencies_s": latencies}
            return {"passes": len(pass_s), "pass_s": pass_s, "latencies": latencies}

        while True:
            pass_start = time.perf_counter()
            for index, item in enumerate(deck):
                if pass_s and tracer is None and time.perf_counter() - start >= budget_s:
                    return summary()
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        result = op(item)
                    else:
                        with tracer.span("op"):
                            result = op(item)
                    error = None
                except Exception as exc:  # an undocumented exception is a failure
                    result, error = None, f"{type(exc).__name__}: {exc}"
                latencies[index].append(time.perf_counter() - t0)
                if error is None:
                    error = self.workload.check(item, result)
                self.attempted += 1
                if error is not None:
                    self.failures.append(f"{item.kind} n={item.n}: {error}")
                elif id(item) not in self.brackets:
                    self.brackets[id(item)] = self.workload.bracket(item, result)
            pass_s.append(time.perf_counter() - pass_start)
            if time.perf_counter() - start >= budget_s:
                return summary()


def best_times(result) -> np.ndarray:
    """Each item's best wall time over its repetitions in a replay.

    Contention from other tenants of a shared host only ever adds time, and on
    a 2-vCPU cloud VM it stretched the same pass of bounds_large_n from 3.4 s to
    5.8 s within a minute; medians carry such swings into the result.
    """
    return np.asarray([min(l) for l in result["latencies"]])


def bracket_ratio_median(brackets) -> float:
    ratios = [upper / lower for b in brackets if b is not None
              for lower, upper in [b] if lower > 0.0]
    return statistics.median(ratios) if ratios else math.nan


def properties(deck) -> dict:
    """Exact counts of the input properties the queued optimisations key on."""
    pairs = [item.props for item in deck if item.props is not None]
    histogram = {}
    for props in pairs:
        bits = props["log2_support"]
        decade = int(math.log10(bits))
        key = f"2^{int(bits)}" if bits < 64 else f"2^[1e{decade},1e{decade + 1})"
        histogram[key] = histogram.get(key, 0) + 1
    return {
        "operations_per_pass": len(deck),
        "pairs": len(pairs),
        "active_all_two_point": sum(p["two_point"] for p in pairs),
        "symmetric": sum(p["symmetric"] for p in pairs),
        "constant_parameter": sum(p["constant"] for p in pairs),
        "joint_support_histogram": dict(sorted(histogram.items(),
                                               key=lambda kv: (len(kv[0]), kv[0]))),
    }


def end_to_end(name: str, deck, loop: Loop, seconds: float, setup_s: float, tv) -> tuple:
    op, _ = make_ops(name, tv)
    result = loop.run(deck, op, seconds)
    best_s = best_times(result)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(deck) / float(best_s.sum()),
        "latency_p50_ms": float(np.percentile(best_s, 50)) * 1e3,
        "latency_p90_ms": float(np.percentile(best_s, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bracket_ratio_median": bracket_ratio_median(loop.brackets.values()),
    }
    extra = {"latency_samples": sum(len(l) for l in result["latencies"]),
             "repeats_per_item": min(len(l) for l in result["latencies"]),
             "complete_passes": result["passes"],
             "median_pass_ops_per_s": len(deck) / statistics.median(result["pass_s"])}
    return metrics, extra


def per_layer(name: str, deck, loop: Loop, seconds: float, probes, tv, env) -> tuple:
    untraced_op, traced_op = make_ops(name, tv)
    half = seconds / 2.0
    plain = loop.run(deck, untraced_op, half)
    tracer = Tracer()
    with instrument(tracer):
        traced = loop.run(deck, traced_op(tracer), half, tracer)
    passes = traced["passes"]
    calls, total, own = tracer.totals()

    def per_pass(value):
        return value / passes

    def ns_per(seconds, count):
        return seconds / count * 1e9 if count else 0.0

    exact_time = total["core.exact.serial"] + total["core.exact.threaded"]
    outcomes = tracer.counts["core.exact.outcomes"]
    mc_draws = tracer.counts["core.mc.coord_draws"]
    metrics = {
        "core.input.time_s": per_pass(total["core.input"]),
        "core.input.calls": calls["core.input"] // passes,
        "core.input.coords": tracer.counts["core.input.coords"] // passes,
        "core.exact.time_s": per_pass(exact_time),
        "core.exact.calls": (calls["core.exact.serial"] + calls["core.exact.threaded"]) // passes,
        "core.exact.outcomes": outcomes // passes,
        "core.exact.ns_per_outcome": ns_per(exact_time, outcomes),
        "core.exact.bytes_computed": BYTES_PER_OUTCOME * outcomes // passes,
        "core.exact.serial.time_s": per_pass(total["core.exact.serial"]),
        "core.exact.threaded.time_s": per_pass(total["core.exact.threaded"]),
        "core.exact.serial.ns_per_outcome": ns_per(total["core.exact.serial"],
                                                   tracer.counts["core.exact.serial.outcomes"]),
        "core.exact.threaded.ns_per_outcome": ns_per(total["core.exact.threaded"],
                                                     tracer.counts["core.exact.threaded.outcomes"]),
        "core.closed_form.time_s": per_pass(total["core.closed_form"]),
        "core.closed_form.terms": tracer.counts["core.closed_form.terms"] // passes,
        "core.mc.time_s": per_pass(total["core.mc"]),
        "core.mc.samples": tracer.counts["core.mc.samples"] // passes,
        "core.mc.coord_draws": mc_draws // passes,
        "core.mc.ns_per_coord_draw": ns_per(total["core.mc"], mc_draws),
        "reduce.scheffe.time_s": per_pass(total["reduce.scheffe"]),
        "reduce.scheffe.coords": tracer.counts["reduce.scheffe.coords"] // passes,
        "bounds.report.time_s": per_pass(total["bounds.report"]),
        "bounds.report.self_s": per_pass(own["bounds.report"]),
        "bounds.report.active_coords": tracer.counts["bounds.report.active_coords"] // passes,
    }
    for family in ("trivial", "l2", "hellinger", "kl", "symmetric_l2", "affinity"):
        metrics[f"bounds.{family}.time_s"] = per_pass(total[f"bounds.{family}"])
    metrics.update({
        "symmetrize.channels.time_s": per_pass(total["symmetrize.channels"]),
        "symmetrize.channels.coords": tracer.counts["symmetrize.channels.coords"] // passes,
        "extremal.gap.time_s": per_pass(total["extremal.gap"]),
        "extremal.lowther.time_s": per_pass(total["extremal.lowther"]),
        "extremal.lowther.sign_patterns":
            tracer.counts["extremal.lowther.sign_patterns"] // passes,
        "cli.process.time_s": 0.0,
        "cli.main.time_s": per_pass(total["cli.main"]),
        "cli.startup_s": 0.0,
        "cli.self_s": per_pass(own["cli.main"]),
        "cli.stdout_bytes": tracer.counts["cli.stdout_bytes"] // passes,
        "trace.ops_per_pass": len(deck),
        "trace.untraced_ops_per_s": len(deck) / float(best_times(plain).sum()),
        "trace.traced_ops_per_s": len(deck) / float(best_times(traced).sum()),
    })
    metrics["trace.overhead_frac"] = (metrics["trace.untraced_ops_per_s"]
                                      / metrics["trace.traced_ops_per_s"] - 1.0)
    if name == "cli_mixed":
        process = loop.run(deck, lambda item: wl.cli_subprocess(item, env), 0.0)
        metrics["cli.process.time_s"] = sum(sum(l) for l in process["latencies"])
        metrics["cli.startup_s"] = statistics.median(probes)
    extra = {"passes_untraced": plain["passes"], "passes_traced": passes,
             "spans": len(tracer.spans)}
    return metrics, extra, tracer


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    name = args.workload
    tv = load_prodtv()
    env = wl.cli_env(ROOT)
    deck, setup_s, probes = setup(name, args.seed, tv, env)
    workload = WORKLOADS[name]
    for item in deck:
        workload.reference(item, tv)
    loop = Loop(workload)
    tracer = None
    if args.trace:
        metrics, extra, tracer = per_layer(name, deck, loop, args.seconds, probes, tv, env)
        units = dict(PER_LAYER)
    else:
        metrics, extra = end_to_end(name, deck, loop, args.seconds, setup_s, tv)
        units = dict(END_TO_END)

    # Probed after the measurement, so they cost it nothing and leave its peak
    # memory alone; they do not count as failures of the workload.
    defects = wl.known_defects(tv)
    failed = len(loop.failures)
    report = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": loop.attempted, "failed": failed,
        "failed_frac": failed / loop.attempted, **extra,
        "properties": properties(deck), "metrics": metrics, "failures": loop.failures[:20],
        "known_defects": defects, **loop.timings,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")

    for message in loop.failures[:20]:
        print(f"FAILED {message}", file=sys.stderr)
    for defect, symptom in defects.items():
        print(f"KNOWN DEFECT {defect}: {symptom}", file=sys.stderr)
    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"attempted {loop.attempted}  failed {failed}  failed_frac {failed / loop.attempted:g}")
    for key, value in extra.items():
        print(f"  {key:<32} {value:g}")
    for key, value in metrics.items():
        print(f"  {key:<32} {value:<14.6g} {units[key]}")
    print("  properties " + json.dumps(report["properties"]))
    for defect in wl.KNOWN_DEFECTS:
        state = f"present: {defects[defect]}" if defect in defects else "not reproduced"
        print(f"  known defect {defect}: {state}")
    print(json.dumps({
        "correct": failed == 0, "attempted": loop.attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
