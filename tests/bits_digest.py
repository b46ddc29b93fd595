"""Print the bits of the library's deterministic answers, one value a line.

Every exact, closed-form and bounds value is printed with ``float.hex``, and
every CLI command other than ``mc`` is run in process with its stdout and
exit code printed as they are, over a fixed set of instances: random,
zero_one-style (every fifth coordinate at 0 or 1), edge-parameter,
identical, disjoint and general pairs with zero masses. Monte Carlo
estimates are printed at fixed seeds across the seed range, on shapes at the
edges of its batches and blocks. Run it in two checkouts and compare the
outputs to check that a change keeps these bits:

    PYTHONPATH=src python tests/bits_digest.py > before.txt   # first checkout
    PYTHONPATH=src python tests/bits_digest.py > after.txt    # second checkout
    cmp before.txt after.txt

Set NPY_DISABLE_CPU_FEATURES for a run with numpy's SIMD dispatch off.
"""

import contextlib
import dataclasses
import io
import json
import os
import tempfile

import numpy as np

import prodtv as tv
from prodtv import cli
from oracles import random_product_pair

EDGES = (0.0, 1.0, 5e-324, 1.0 - 1e-16)


def show(value) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return " ".join(float(x).hex() for x in value.ravel())
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(show(v) for v in value) + ")"
    return repr(value)


def answer(label, thunk) -> None:
    try:
        text = show(thunk())
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    print(label, text)


def bernoulli_pairs(rng):
    for n in (1, 2, 3, 5, 8, 12, 16, 20, 200, 5000):
        p, q = rng.random(n), rng.random(n)
        yield f"random-{n}", p, q
        zp, zq = p.copy(), np.clip(p + rng.normal(0.0, 0.3 / np.sqrt(n), n), 0.0, 1.0)
        edge = np.arange(0, n, 5)
        zp[edge] = rng.choice((0.0, 1.0), size=edge.size)
        zq[edge] = np.abs(zp[edge] - rng.uniform(0.0, 0.05, edge.size))
        zq[edge[::3]] = zp[edge[::3]]
        yield f"zero_one-{n}", zp, zq
        ep, eq = p.copy(), q.copy()
        for side in (ep, eq):
            mask = rng.random(n) < 0.3
            side[mask] = rng.choice(EDGES, int(mask.sum()))
        yield f"edges-{n}", ep, eq
        yield f"identical-{n}", p, p.copy()
        yield f"symmetric-{n}", p, 1.0 - p
    yield "disjoint", np.array([1.0, 0.0]), np.array([0.0, 1.0])
    yield "q-zero", np.array([0.5, 0.3]), np.array([0.0, 0.3])
    yield "underflow", np.array([0.5, 0.5]), np.array([1e-300, 1e-300])


def pair_answers(label, pair, exact: bool) -> None:
    answer(f"{label} marginal_tv", lambda: tv.marginal_tv(pair).deltas)
    answer(f"{label} hellinger", lambda: tv.hellinger_bracket(pair))
    answer(f"{label} kl", lambda: tv.kl_bracket(pair))
    red = tv.scheffe_reduce(pair)
    print(label, "reduce", show(red.p.params), show(red.q.params), red.witness_sets)

    def report():
        r = tv.bounds_report(pair)
        return [r.delta.deltas, r.ratio] + [getattr(r, f.name) for f in dataclasses.fields(r)
                                            if f.name not in ("delta", "reduction")]
    answer(f"{label} bounds_report", report)
    if exact:
        answer(f"{label} exact", lambda: tv.exact_tv_general(pair))


def cli_answers(rng, tmp) -> None:
    docs = {
        "bern": {"p": [0.0, 1.0, 0.3, 0.75, 0.0], "q": [0.2, 0.9, 0.6, 0.5, 0.0]},
        "general": {"P": [[0.25, 0.75], [0.2, 0.3, 0.5], [0.1, 0.2, 0.3, 0.4]],
                    "Q": [[0.5, 0.5], [0.0, 0.6, 0.4], [0.25, 0.25, 0.25, 0.25]]},
        "symmetric": {"p": [0.7, 0.4, 0.55, 0.3], "q": [0.3, 0.6, 0.45, 0.3]},
        "random": {"p": rng.random(14).tolist(), "q": rng.random(14).tolist()},
        "q-zero": {"p": [0.5, 0.3], "q": [0.0, 0.3]},
        "underflow": {"p": [0.5, 0.5], "q": [1e-300, 1e-300]},
    }
    runs = []
    for name, doc in docs.items():
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        for fmt in ("json", "csv", "text"):
            runs += [[command, path, *flags, "--format", fmt]
                     for command, flags in (("bounds", ()), ("bounds", ("--exact",)), ("exact", ()),
                                            ("reduce", ()), ("symmetrize", ()))]
    runs += [["gap", "--n", "4"], ["gap", "--n-range", "1000:91000:30000", "--format", "json"],
             ["sweep", "--n-range", "4:64:4"], ["sweep", "--n", "1000000000"],
             ["lowther", "--weights", "1,1", "--threshold", "1.41"],
             ["lowther", "--weights", "3,1,1,2", "--threshold", "0.5", "--format", "json"]]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print("cli", " ".join(a.replace(tmp, "") for a in argv), code)
        print(out.getvalue() + err.getvalue().replace(tmp, ""), end="")


def mc_pairs(rng):
    """(name, samples, p, q) for Monte Carlo at the edges of its batches, of
    the two sample ranges each batch is cut into, and of its blocks: one
    sample (the first range empty), two and three samples, an odd count, two
    batches (65537 samples, the second of one sample), one coordinate, and a
    block of one sample (n > 65536). These are near pairs with edge
    parameters at about 30% of the coordinates, where P and Q both put
    (almost) all mass on one state, so that no sample is impossible under Q;
    last come all 16 pairs of edge parameters, where the samples impossible
    under Q give exactly 1.0."""
    near_edges = np.array([(a, b) for a in EDGES for b in EDGES if abs(a - b) < 1e-15])
    for n, samples in [(5, 1), (4, 2), (7, 3), (20, 20001), (3, 65537), (1, 4099), (70000, 3)]:
        p = rng.random(n)
        q = np.clip(p + rng.normal(0.0, 0.5 / np.sqrt(n), n), 0.0, 1.0)
        edge = np.flatnonzero(rng.random(n) < 0.3)
        p[edge], q[edge] = near_edges[rng.integers(len(near_edges), size=edge.size)].T
        yield f"{n}x{samples}", samples, p, q
    yield "edges-16x999", 999, *np.array([(a, b) for a in EDGES for b in EDGES]).T


def mc_answers(rng) -> None:
    for name, samples, p, q in mc_pairs(rng):
        for seed in (0, 7, 2 ** 64 - 1, 2 ** 128 - 1):
            answer(f"mc-{name}-seed-{seed} mc",
                   lambda: tv.mc_tv_estimate(p, q, samples, seed=seed).value)


def main() -> None:
    rng = np.random.default_rng(2024)
    for label, p, q in bernoulli_pairs(rng):
        pair = tv.FiniteProductPair.from_bernoulli(p, q)
        pair_answers(label, pair, exact=p.size <= 20)
        if p.size <= 20:
            answer(f"{label} exact_bernoulli", lambda: tv.exact_tv_bernoulli(p, q))
    for i in range(40):
        pair = random_product_pair(rng, n_max=7, support_max=5, zero_prob=0.3)
        pair_answers(f"general-{i}", pair, exact=True)
    for n, p, q in ((1, 0.3, 0.5), (10, 0.3, 0.31), (1000, 0.3, 0.31), (10 ** 6, 0.5, 0.5005),
                    (10 ** 7, 0.3, 0.9), (64, 0.0, 1e-3), (64, 1.0, 0.999)):
        answer(f"equal_marginals {n} {p} {q}", lambda: tv.exact_tv_equal_marginals(n, p, q))
    for n in (1, 4, 64, 1000, 10 ** 6):
        answer(f"gap_ratio_exact {n}", lambda: tv.gap_ratio_exact(n))
    with tempfile.TemporaryDirectory() as tmp:
        cli_answers(rng, tmp)
    mc_answers(rng)


if __name__ == "__main__":
    main()
