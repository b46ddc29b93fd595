"""Command-line front end: exact TV, bound reports, constructions, and sweeps.

Instance files are JSON objects in one of two shapes, with an optional
string ``label``:

    {"p": [0.5, 0.5], "q": [0.0, 0.0]}            Bernoulli product pair
    {"P": [[0.5, 0.5]], "Q": [[0.25, 0.75]]}      general finite product pair

Reports are emitted as JSON (default), CSV, or an aligned text table; floats
use shortest round-trip formatting, so identical invocations produce
byte-identical output. Exit codes: 0 success, 2 parse/validation error,
3 enumeration budget exceeded, 4 numeric-domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .bounds import bounds_report
from .core import (
    DEFAULT_BUDGET_LOG2,
    DimensionMismatchError,
    EnumerationBudgetError,
    FiniteDist,
    FiniteProductPair,
    InvalidDistributionError,
    ProbVector,
    exact_tv_bernoulli,
    exact_tv_equal_marginals,
    exact_tv_general,
    mc_tv_estimate,
)
from .extremal import (
    LOWTHER_RATIO_BOUND,
    RademacherInstance,
    gap_instance,
    gap_ratio_exact,
    lowther_check,
)
from .reduce import scheffe_reduce
from .symmetrize import apply_channel_product

__all__ = ["main", "SCHEMA_VERSION", "EXIT_PARSE", "EXIT_BUDGET", "EXIT_DOMAIN"]

SCHEMA_VERSION = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DOMAIN = 4


class CliParseError(Exception):
    """Malformed command input: file contents, shapes, or ranges."""


@dataclass(frozen=True)
class Instance:
    kind: str  # "bernoulli" or "general"
    label: str | None
    pair: FiniteProductPair
    p: ProbVector | None = None
    q: ProbVector | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise CliParseError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliParseError(f"{path}: invalid JSON: {exc}")


def _parse_dist_rows(rows, name: str, source: str):
    if not isinstance(rows, list) or not rows:
        raise CliParseError(f"{source}: {name} must be a non-empty list of mass rows")
    dists = []
    for i, row in enumerate(rows):
        try:
            dists.append(FiniteDist(row))
        except (InvalidDistributionError, TypeError) as exc:
            raise CliParseError(f"{source}: {name}[{i}]: {exc}")
    return tuple(dists)


def _parse_instance(doc, source: str) -> Instance:
    if not isinstance(doc, dict):
        raise CliParseError(f"{source}: instance must be a JSON object")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise CliParseError(f"{source}: label must be a string")
    bernoulli_keys = {"p", "q"} & doc.keys()
    general_keys = {"P", "Q"} & doc.keys()
    if bool(bernoulli_keys) == bool(general_keys):
        raise CliParseError(
            f"{source}: provide exactly one instance shape, either p/q or P/Q"
        )
    if bernoulli_keys:
        if bernoulli_keys != {"p", "q"}:
            raise CliParseError(f"{source}: a Bernoulli instance needs both p and q")
        try:
            p = ProbVector(doc["p"])
            q = ProbVector(doc["q"])
            pair = FiniteProductPair.from_bernoulli(p, q)
        except (InvalidDistributionError, DimensionMismatchError, TypeError) as exc:
            raise CliParseError(f"{source}: {exc}")
        return Instance(kind="bernoulli", label=label, pair=pair, p=p, q=q)
    if general_keys != {"P", "Q"}:
        raise CliParseError(f"{source}: a general instance needs both P and Q")
    p_side = _parse_dist_rows(doc["P"], "P", source)
    q_side = _parse_dist_rows(doc["Q"], "Q", source)
    try:
        pair = FiniteProductPair(p_side, q_side)
    except (InvalidDistributionError, DimensionMismatchError) as exc:
        raise CliParseError(f"{source}: {exc}")
    return Instance(kind="general", label=label, pair=pair)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _print_text(doc) -> None:
    items = [(key, value) for key, value in doc.items()]
    width = max(len(key) for key, _ in items)
    for key, value in items:
        if isinstance(value, (list, dict)):
            rendered = json.dumps(value)
        else:
            rendered = _fmt(value)
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
        header = list(doc.keys())
        row = []
        for key in header:
            value = doc[key]
            if isinstance(value, (list, dict)):
                row.append(json.dumps(value, separators=(",", ":")).replace(",", ";"))
            else:
                row.append(value)
        _print_csv(header, [row])


def _base_doc(instance: Instance) -> dict:
    doc = {"schema_version": SCHEMA_VERSION}
    if instance.label is not None:
        doc["label"] = instance.label
    doc["kind"] = instance.kind
    doc["n"] = instance.pair.n
    return doc


def _exact_tv(instance: Instance, budget, workers: int) -> float:
    if instance.kind == "bernoulli":
        return exact_tv_bernoulli(instance.p, instance.q,
                                  budget_log2=budget, workers=workers)
    return exact_tv_general(instance.pair, budget_log2=budget, workers=workers)


def cmd_bounds(args) -> int:
    instance = _parse_instance(_load_json(args.instance), args.instance)
    report = bounds_report(instance.pair)
    doc = _base_doc(instance)
    doc["delta_linf"] = report.delta.linf
    doc["delta_l2"] = report.delta.l2
    doc["delta_l1"] = report.delta.l1
    doc["lower_trivial"] = report.lower_trivial
    doc["lower_l2"] = report.lower_l2
    doc["lower_hellinger"] = report.lower_hellinger
    doc["lower_kl"] = report.lower_kl
    doc["upper_trivial"] = report.upper_trivial
    doc["upper_hellinger"] = report.upper_hellinger
    doc["upper_pinsker"] = report.upper_pinsker
    doc["upper_symmetric"] = report.upper_symmetric
    doc["upper_affinity"] = report.upper_affinity
    doc["best_lower"] = report.best_lower
    doc["best_lower_source"] = report.best_lower_source
    doc["best_upper"] = report.best_upper
    doc["best_upper_source"] = report.best_upper_source
    doc["ratio"] = report.ratio
    warnings = []
    if args.exact:
        try:
            doc["exact_tv"] = _exact_tv(instance, args.budget, args.workers)
        except EnumerationBudgetError as exc:
            warnings.append(f"exact TV omitted: {exc}")
    if warnings:
        doc["warnings"] = warnings
    _emit_scalar_doc(doc, args.format)
    return 0


def cmd_exact(args) -> int:
    instance = _parse_instance(_load_json(args.instance), args.instance)
    doc = _base_doc(instance)
    doc["tv"] = _exact_tv(instance, args.budget, args.workers)
    _emit_scalar_doc(doc, args.format)
    return 0


def cmd_mc(args) -> int:
    instance = _parse_instance(_load_json(args.instance), args.instance)
    if instance.kind != "bernoulli":
        raise CliParseError("mc requires a Bernoulli instance (p/q shape)")
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
    instance = _parse_instance(_load_json(args.instance), args.instance)
    if instance.kind != "bernoulli":
        raise CliParseError("symmetrize requires a Bernoulli instance (p/q shape)")
    sym, channels = apply_channel_product(instance.p, instance.q)
    doc = _base_doc(instance)
    doc["gamma_hat"] = [float(x) for x in sym.gamma_hat]
    doc["p_hat"] = [float(x) for x in sym.p_hat.params]
    doc["q_hat"] = [float(x) for x in sym.q_hat.params]
    # Channel rows are ordered (input 1, input 0); columns (output 1, output 0).
    doc["channels"] = [[[float(v) for v in row] for row in ch.rows] for ch in channels]
    _emit_scalar_doc(doc, args.format)
    return 0


def cmd_reduce(args) -> int:
    instance = _parse_instance(_load_json(args.instance), args.instance)
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
        inst = gap_instance(n)
        rows.append((inst.n, inst.tv_pq, inst.tv_pq_prime_upper,
                     inst.ratio_lower, math.sqrt(inst.n)))
    if args.format == "csv":
        _print_csv(GAP_COLUMNS, rows)
    elif args.format == "json":
        _print_json({"schema_version": SCHEMA_VERSION,
                     "rows": [dict(zip(GAP_COLUMNS, row)) for row in rows]})
    else:
        for row in rows:
            _print_text(dict(zip(GAP_COLUMNS, row)))
    return 0


SWEEP_COLUMNS = ("n", "tv_pq", "tv_pq_prime_exact", "tv_pq_prime_upper",
                 "gap_ratio_exact", "ratio_lower", "gap_ratio_over_sqrt_n")


def cmd_sweep(args) -> int:
    rows = []
    for n in _parse_n_values(args):
        inst = gap_instance(n)
        ratio = gap_ratio_exact(n)
        tv_prime_exact = exact_tv_equal_marginals(
            n, float(inst.p_prime.params[0]), float(inst.q_prime.params[0])
        )
        rows.append((inst.n, inst.tv_pq, tv_prime_exact, inst.tv_pq_prime_upper,
                     ratio, inst.ratio_lower, ratio / math.sqrt(inst.n)))
    if args.format == "csv":
        _print_csv(SWEEP_COLUMNS, rows)
    elif args.format == "json":
        _print_json({"schema_version": SCHEMA_VERSION,
                     "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows]})
    else:
        for row in rows:
            _print_text(dict(zip(SWEEP_COLUMNS, row)))
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


def _add_format(parser, default: str) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default=default,
                        help=f"output format (default {default})")


def _add_instance(parser) -> None:
    parser.add_argument("instance", help="path to a JSON instance file, or - for stdin")


def _add_budget_workers(parser) -> None:
    parser.add_argument("--budget", type=int, default=None, metavar="LOG2",
                        help="largest joint support for exact TV, as log2 of its "
                             f"outcome count (default {DEFAULT_BUDGET_LOG2})")
    parser.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; does not change results")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodtv",
        description="Total-variation distances and bounds for product distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="all applicable TV bounds for an instance")
    _add_instance(p_bounds)
    p_bounds.add_argument("--exact", action="store_true",
                          help="also compute the exact TV when within budget")
    _add_budget_workers(p_bounds)
    _add_format(p_bounds, "json")
    p_bounds.set_defaults(handler=cmd_bounds)

    p_exact = sub.add_parser("exact", help="exact TV by meet-in-the-middle over the joint support")
    _add_instance(p_exact)
    _add_budget_workers(p_exact)
    _add_format(p_exact, "json")
    p_exact.set_defaults(handler=cmd_exact)

    p_mc = sub.add_parser("mc", help="Monte Carlo TV estimate with Hoeffding interval")
    _add_instance(p_mc)
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--confidence", type=float, default=0.95)
    p_mc.add_argument("--seed", type=int, default=0)
    _add_format(p_mc, "json")
    p_mc.set_defaults(handler=cmd_mc)

    p_sym = sub.add_parser("symmetrize",
                           help="symmetrized pair and per-coordinate channels")
    _add_instance(p_sym)
    _add_format(p_sym, "json")
    p_sym.set_defaults(handler=cmd_symmetrize)

    p_red = sub.add_parser("reduce", help="collapse an instance to a Bernoulli pair")
    _add_instance(p_red)
    _add_format(p_red, "json")
    p_red.set_defaults(handler=cmd_reduce)

    p_gap = sub.add_parser("gap", help="the sqrt(n)-gap construction at given sizes")
    p_gap.add_argument("--n", type=int, default=None)
    p_gap.add_argument("--n-range", default=None, metavar="RANGE",
                       help="A:B, A:B:STEP, or a comma list")
    _add_format(p_gap, "csv")
    p_gap.set_defaults(handler=cmd_gap)

    p_sweep = sub.add_parser("sweep",
                             help="exact gap ratios over a range of sizes (CSV)")
    p_sweep.add_argument("--n", type=int, default=None)
    p_sweep.add_argument("--n-range", default=None, metavar="RANGE",
                         help="A:B, A:B:STEP, or a comma list")
    _add_format(p_sweep, "csv")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_low = sub.add_parser("lowther",
                           help="concave sign-sum comparison for given weights")
    p_low.add_argument("--weights", required=True,
                       help="comma list of positive weights")
    p_low.add_argument("--threshold", type=float, required=True)
    _add_format(p_low, "json")
    p_low.set_defaults(handler=cmd_lowther)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except CliParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (InvalidDistributionError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EnumerationBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
