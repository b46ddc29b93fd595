"""Command-line front end: exact TV, bound reports, constructions, and sweeps.

Instance files are JSON objects in one of two shapes, with an optional
string ``label``:

    {"p": [0.5, 0.5], "q": [0.0, 0.0]}            Bernoulli product pair
    {"P": [[0.5, 0.5]], "Q": [[0.25, 0.75]]}      general finite product pair

Reports are emitted as JSON (default), CSV, or an aligned text table; floats
use shortest round-trip formatting, so identical invocations produce
byte-identical output. Exit codes: 0 success, 2 parse/validation error,
3 enumeration budget exceeded (or a closed-form window past it), 4
numeric-domain error (including an exact TV that ``bounds --exact`` finds
outside its own bracket, a size past the float range, a closed-form window
past 2**53, where doubles no longer hold every count, and any arithmetic
error, such as the KL lower bound's division by zero when the joint minimum
mass underflows).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .bounds import bounds_report
from .core import (
    DEFAULT_BUDGET_LOG2,
    DimensionMismatchError,
    EnumerationBudgetError,
    FiniteProductPair,
    InvalidDistributionError,
    ProbVector,
    _matched_params,
    exact_tv_general,
    mc_tv_estimate,
)
from .extremal import (LOWTHER_RATIO_BOUND, RademacherInstance, _exact_gap_tvs, _gap_scalars,
                       lowther_check)
from .reduce import scheffe_reduce
from .symmetrize import apply_channel_product

__all__ = ["main", "SCHEMA_VERSION", "EXIT_PARSE", "EXIT_BUDGET", "EXIT_DOMAIN"]

SCHEMA_VERSION = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DOMAIN = 4

# Slack of the bracket check in ``bounds --exact``: larger than the exact
# kernel's stated error bound (16 n + 8 log2 N + 32) * 2**-53 for every
# n <= 48 (about 7e-14 at n = 26).
_BRACKET_SLACK = 1e-12


class CliParseError(Exception):
    """Malformed command input: file contents, shapes, or ranges."""


@dataclass(frozen=True)
class Instance:
    """A parsed instance: a general one holds its FiniteProductPair, and a
    Bernoulli one keeps p and q and builds its pair once, when ``pair`` is
    first read (by bounds, exact and reduce)."""

    label: str | None
    n: int
    p: ProbVector | None = None
    q: ProbVector | None = None
    general_pair: FiniteProductPair | None = None

    @functools.cached_property
    def pair(self) -> FiniteProductPair:
        return self.general_pair or FiniteProductPair.from_bernoulli(self.p, self.q)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_instance(args, bernoulli: bool = False) -> Instance:
    """Read, decode, parse and check the instance ``args.instance``, a path or
    - for stdin; ``bernoulli`` requires the p/q shape. Every failure is a
    CliParseError whose message starts with that source."""
    source = args.instance
    try:
        doc = json.loads(sys.stdin.read() if source == "-"
                         else Path(source).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise CliParseError(f"{source}: invalid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliParseError(f"{source}: cannot read: {exc}")
    if not isinstance(doc, dict):
        raise CliParseError(f"{source}: instance must be a JSON object")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise CliParseError(f"{source}: label must be a string")
    bernoulli_keys, general_keys = {"p", "q"} & doc.keys(), {"P", "Q"} & doc.keys()
    if bool(bernoulli_keys) == bool(general_keys):
        raise CliParseError(f"{source}: provide exactly one instance shape, either p/q or P/Q")
    if bernoulli_keys and bernoulli_keys != {"p", "q"}:
        raise CliParseError(f"{source}: a Bernoulli instance needs both p and q")
    if general_keys and general_keys != {"P", "Q"}:
        raise CliParseError(f"{source}: a general instance needs both P and Q")
    if general_keys and bernoulli:
        raise CliParseError(
            f"{source}: {args.command} requires a Bernoulli instance (p/q shape)")
    try:
        if general_keys:
            pair = FiniteProductPair(doc["P"], doc["Q"])
            return Instance(label=label, n=pair.n, general_pair=pair)
        p, q = ProbVector(doc["p"]), ProbVector(doc["q"])
        _matched_params(p, q)
        return Instance(label=label, n=p.n, p=p, q=q)
    except (InvalidDistributionError, DimensionMismatchError) as exc:
        raise CliParseError(f"{source}: {exc}")


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _print_text(doc) -> None:
    width = max(map(len, doc))
    for key, value in doc.items():
        rendered = json.dumps(value) if isinstance(value, (list, dict)) else _fmt(value)
        print(f"{key:<{width}}  {rendered}")


def _print_csv(header, rows) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(value) for value in row))


def _emit_scalar_doc(doc, fmt: str) -> None:
    """Emit a one-record document; CSV flattens lists to JSON strings."""
    if fmt == "json":
        _print_json(doc)
    elif fmt == "text":
        _print_text(doc)
    else:
        _print_csv(list(doc), [[
            json.dumps(value, separators=(",", ":")).replace(",", ";")
            if isinstance(value, (list, dict)) else value for value in doc.values()
        ]])


def _emit_rows(columns, rows, fmt: str) -> None:
    """Emit a table of records: CSV rows, one JSON document, or text blocks."""
    if fmt == "csv":
        _print_csv(columns, rows)
    elif fmt == "json":
        _print_json({"schema_version": SCHEMA_VERSION,
                     "rows": [dict(zip(columns, row)) for row in rows]})
    else:
        for row in rows:
            _print_text(dict(zip(columns, row)))


def _base_doc(instance: Instance) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    if instance.label is not None:
        doc["label"] = instance.label
    doc["kind"] = "general" if instance.general_pair else "bernoulli"
    doc["n"] = instance.n
    return doc


def _check_bracket(report, exact: float) -> None:
    """Raise ValueError when an exact TV falls outside the report's bracket."""
    if not report.best_lower - _BRACKET_SLACK <= exact:
        raise ValueError(
            f"exact TV {exact!r} lies below best_lower {report.best_lower!r} "
            f"({report.best_lower_source}): the bracket is violated"
        )
    if not exact <= report.best_upper + _BRACKET_SLACK:
        raise ValueError(
            f"exact TV {exact!r} lies above best_upper {report.best_upper!r} "
            f"({report.best_upper_source}): the bracket is violated"
        )


def cmd_bounds(args) -> int:
    instance = _read_instance(args)
    report = bounds_report(instance.pair)
    doc = _base_doc(instance)
    doc["delta_linf"] = report.delta.linf
    doc["delta_l2"] = report.delta.l2
    doc["delta_l1"] = report.delta.l1
    for field in fields(report):
        if field.name not in ("delta", "reduction"):
            doc[field.name] = getattr(report, field.name)
    doc["ratio"] = report.ratio
    if args.exact:
        try:
            exact = exact_tv_general(instance.pair, budget_log2=args.budget,
                                     workers=args.workers)
        except EnumerationBudgetError as exc:
            doc["warnings"] = [f"exact TV omitted: {exc}"]
        else:
            _check_bracket(report, exact)
            doc["exact_tv"] = exact
    _emit_scalar_doc(doc, args.format)
    return 0


def cmd_exact(args) -> int:
    instance = _read_instance(args)
    doc = _base_doc(instance)
    doc["tv"] = exact_tv_general(instance.pair, budget_log2=args.budget, workers=args.workers)
    _emit_scalar_doc(doc, args.format)
    return 0


def cmd_mc(args) -> int:
    instance = _read_instance(args, bernoulli=True)
    estimate = mc_tv_estimate(instance.p, instance.q, samples=args.samples,
                              confidence=args.confidence, seed=args.seed)
    doc = _base_doc(instance)
    doc["value"] = estimate.value
    doc["half_width"] = estimate.half_width
    doc["confidence"] = estimate.confidence
    doc["samples"] = estimate.samples
    doc["seed"] = args.seed
    if args.format == "text":
        print(f"{_fmt(estimate.value)} +/- {_fmt(estimate.half_width)} "
              f"(confidence {_fmt(estimate.confidence)}, samples {estimate.samples}, "
              f"seed {args.seed})")
    else:
        _emit_scalar_doc(doc, args.format)
    return 0


def cmd_symmetrize(args) -> int:
    instance = _read_instance(args, bernoulli=True)
    sym, channels = apply_channel_product(instance.p, instance.q)
    doc = _base_doc(instance)
    doc["gamma_hat"] = [float(x) for x in sym.gamma_hat]
    doc["p_hat"] = [float(x) for x in sym.p_hat.params]
    doc["q_hat"] = [float(x) for x in sym.q_hat.params]
    # Channel rows are ordered (input 1, input 0); columns (output 1, output 0).
    doc["channels"] = [ch.rows.tolist() for ch in channels]
    _emit_scalar_doc(doc, args.format)
    return 0


def cmd_reduce(args) -> int:
    instance = _read_instance(args)
    reduction = scheffe_reduce(instance.pair)
    doc = _base_doc(instance)
    doc["p"] = [float(x) for x in reduction.p.params]
    doc["q"] = [float(x) for x in reduction.q.params]
    doc["witness_sets"] = [list(w) for w in reduction.witness_sets]
    _emit_scalar_doc(doc, args.format)
    return 0


def _parse_n_values(args) -> list:
    if (args.n is None) == (args.n_range is None):
        raise CliParseError("provide exactly one of --n or --n-range")
    if args.n is not None:
        return [args.n]
    text = args.n_range
    try:
        if "," in text:
            return [int(tok) for tok in text.split(",")]
        if ":" in text:
            parts = [int(tok) for tok in text.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError(text)
            if step < 1 or stop < start:
                raise ValueError(text)
            return list(range(start, stop + 1, step))
        return [int(text)]
    except ValueError:
        raise CliParseError(
            f"invalid --n-range {text!r}; use N, A:B, A:B:STEP, or a comma list"
        )


GAP_COLUMNS = ("n", "tv_pq", "tv_pq_prime_upper", "ratio_lower", "sqrt_n")


def cmd_gap(args) -> int:
    rows = []
    for n in _parse_n_values(args):
        tv_pq, tv_upper, ratio_lower = _gap_scalars(n)
        rows.append((n, tv_pq, tv_upper, ratio_lower, math.sqrt(n)))
    _emit_rows(GAP_COLUMNS, rows, args.format)
    return 0


SWEEP_COLUMNS = ("n", "tv_pq", "tv_pq_prime_exact", "tv_pq_prime_upper",
                 "gap_ratio_exact", "ratio_lower", "gap_ratio_over_sqrt_n")


def cmd_sweep(args) -> int:
    rows = []
    for n in _parse_n_values(args):
        _, tv_upper, ratio_lower = _gap_scalars(n)
        tv_pq, tv_prime = _exact_gap_tvs(n)
        ratio = tv_pq / tv_prime
        rows.append((n, tv_pq, tv_prime, tv_upper, ratio, ratio_lower, ratio / math.sqrt(n)))
    _emit_rows(SWEEP_COLUMNS, rows, args.format)
    return 0


def cmd_lowther(args) -> int:
    try:
        weights = [float(tok) for tok in args.weights.split(",") if tok.strip()]
    except ValueError:
        raise CliParseError(f"invalid --weights {args.weights!r}; use a comma list")
    if not weights:
        raise CliParseError("--weights must contain at least one value")
    instance = RademacherInstance(weights, args.threshold)
    lhs, rhs, ratio = lowther_check(instance)
    doc = {"schema_version": SCHEMA_VERSION,
           "weights": [float(x) for x in instance.weights],
           "threshold": instance.threshold,
           "lhs": lhs, "rhs": rhs, "ratio": ratio,
           "ratio_bound": LOWTHER_RATIO_BOUND}
    _emit_scalar_doc(doc, args.format)
    return 0


def _add_command(sub, name: str, handler, help: str, fmt: str = "json",
                 instance: bool = True) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    if instance:
        parser.add_argument("instance", help="path to a JSON instance file, or - for stdin")
    parser.add_argument("--format", choices=("json", "csv", "text"), default=fmt,
                        help=f"output format (default {fmt})")
    parser.set_defaults(handler=handler)
    return parser


def _add_budget_workers(parser) -> None:
    parser.add_argument("--budget", type=int, default=None, metavar="LOG2",
                        help="largest joint support for exact TV, as log2 of its "
                             f"outcome count (default {DEFAULT_BUDGET_LOG2})")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; does not change results")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every call.

    Parsing does not change it: each ``parse_args`` fills a fresh Namespace,
    so one call's flags and defaults never reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="prodtv",
        description="Total-variation distances and bounds for product distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = _add_command(sub, "bounds", cmd_bounds,
                            "all applicable TV bounds for an instance")
    p_bounds.add_argument("--exact", action="store_true",
                          help="also compute the exact TV when within budget")
    _add_budget_workers(p_bounds)
    _add_budget_workers(_add_command(
        sub, "exact", cmd_exact, "exact TV by meet-in-the-middle over the joint support"))

    p_mc = _add_command(sub, "mc", cmd_mc, "Monte Carlo TV estimate with Hoeffding interval")
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--confidence", type=float, default=0.95)
    p_mc.add_argument("--seed", type=int, default=0,
                      help="seed of np.random.default_rng, whose PCG64 words are drawn; "
                           "an integer in [0, 2**128) (default 0)")

    _add_command(sub, "symmetrize", cmd_symmetrize,
                 "symmetrized pair and per-coordinate channels")
    _add_command(sub, "reduce", cmd_reduce, "collapse an instance to a Bernoulli pair")

    for name, handler, help in (
        ("gap", cmd_gap, "the sqrt(n)-gap construction at given sizes"),
        ("sweep", cmd_sweep, "exact gap ratios over a range of sizes (CSV)"),
    ):
        p_sizes = _add_command(sub, name, handler, help, fmt="csv", instance=False)
        p_sizes.add_argument("--n", type=int, default=None)
        p_sizes.add_argument("--n-range", default=None, metavar="RANGE",
                             help="A:B, A:B:STEP, or a comma list")

    p_low = _add_command(sub, "lowther", cmd_lowther,
                         "concave sign-sum comparison for given weights", instance=False)
    p_low.add_argument("--weights", required=True,
                       help="comma list of positive weights")
    p_low.add_argument("--threshold", type=float, required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CliParseError, InvalidDistributionError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
