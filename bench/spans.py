"""In-memory spans around calls into prodtv, installed from outside the library.

``instrument`` replaces every module attribute of prodtv that refers to a
traced public function with a timing wrapper. Because the library's modules
import each other's functions by name, patching each module's own reference
also catches nested calls such as bounds_report -> scheffe_reduce.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans (name, parent, start, end) plus counters, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def totals(self) -> tuple:
        """Per span name: (calls, total seconds, self seconds)."""
        child_time = defaultdict(float)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
        return calls, total, own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "parent": parent, "name": name,
                                         "start_s": start, "dur_s": end - start}) + "\n")


class NullTracer:
    """Tracer stand-in for untraced runs: spans and counts cost one call."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, key: str, value) -> None:
        pass


def _exact_name(bound) -> str:
    return "core.exact.serial" if bound.arguments["workers"] <= 1 else "core.exact.threaded"


def _count_outcomes(tracer, bound, outcomes):
    tracer.add("core.exact.outcomes", outcomes)
    tracer.add(_exact_name(bound) + ".outcomes", outcomes)


def _count_exact_bernoulli(tracer, bound, result):
    _count_outcomes(tracer, bound, 2 ** len(bound.arguments["p"]))


def _count_exact_general(tracer, bound, result):
    _count_outcomes(tracer, bound, bound.arguments["pair"].joint_support())


def _count_mc(tracer, bound, result):
    samples = bound.arguments["samples"]
    tracer.add("core.mc.samples", samples)
    tracer.add("core.mc.coord_draws", samples * len(bound.arguments["p"]))


def _count_closed_form(tracer, bound, result):
    tracer.add("core.closed_form.terms", bound.arguments["n"] + 1)


def _count_reduce(tracer, bound, result):
    tracer.add("reduce.scheffe.coords", len(result.witness_sets))


def _count_report(tracer, bound, result):
    tracer.add("bounds.report.active_coords", sum(1 for w in result.reduction.witness_sets if w))


def _count_channels(tracer, bound, result):
    tracer.add("symmetrize.channels.coords", len(result[1]))


def _count_lowther(tracer, bound, result):
    tracer.add("extremal.lowther.sign_patterns", 2 ** bound.arguments["instance"].n)


# (module, function) -> (span name or function of the bound arguments, counter)
TRACED = {
    ("core", "exact_tv_bernoulli"): (_exact_name, _count_exact_bernoulli),
    ("core", "exact_tv_general"): (_exact_name, _count_exact_general),
    ("core", "exact_tv_equal_marginals"): ("core.closed_form", _count_closed_form),
    ("core", "mc_tv_estimate"): ("core.mc", _count_mc),
    ("reduce", "scheffe_reduce"): ("reduce.scheffe", _count_reduce),
    ("bounds", "bounds_report"): ("bounds.report", _count_report),
    ("bounds", "trivial_bracket"): ("bounds.trivial", None),
    ("bounds", "l2_lower_bound"): ("bounds.l2", None),
    ("bounds", "hellinger_bracket"): ("bounds.hellinger", None),
    ("bounds", "kl_bracket"): ("bounds.kl", None),
    ("bounds", "symmetric_l2_upper_bound"): ("bounds.symmetric_l2", None),
    ("bounds", "symmetric_affinity_upper_bound"): ("bounds.affinity", None),
    ("symmetrize", "apply_channel_product"): ("symmetrize.channels", _count_channels),
    ("extremal", "gap_instance"): ("extremal.gap", None),
    ("extremal", "gap_ratio_exact"): ("extremal.gap", None),
    ("extremal", "lowther_check"): ("extremal.lowther", _count_lowther),
}

MODULES = ("core", "reduce", "bounds", "symmetrize", "extremal", "cli")


def _wrap(fn, tracer, name, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        with tracer.span(name(bound) if callable(name) else name):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(tracer, bound, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer):
    """Route every reference to a traced prodtv function through a wrapper."""
    package = sys.modules["prodtv"]
    modules = [package] + [sys.modules[f"prodtv.{name}"] for name in MODULES]
    wrappers = {}
    for (module_name, fn_name), (name, counter) in TRACED.items():
        fn = getattr(sys.modules[f"prodtv.{module_name}"], fn_name)
        wrappers[id(fn)] = (fn, _wrap(fn, tracer, name, counter))
    patched = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)][1])
    try:
        yield
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
