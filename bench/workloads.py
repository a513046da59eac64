"""The benchmark's workloads: inputs made from a seed, one pass of operations, checks.

Each workload is built once per worker (its set-up) and then runs identical
passes. An operation is one call into a public entry point of nzcgraph; only
that call is timed. The benchmark checks every result with its own code
(see checks.py) after the clock stops.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import time
from pathlib import Path

import checks
import speed
import nzcgraph.cli as cli
import nzcgraph.distinguishing as dst
import nzcgraph.graph as gr
import nzcgraph.serialize as se
import nzcgraph.vectorspace as vs


class Recorder:
    """Times one call per operation and keeps its name, seconds and problems.

    The speed probe runs before the first operation and after each one, so
    every operation has a probe on both sides.
    """

    def __init__(self) -> None:
        self.ops: list[tuple[str, float, list[str]]] = []
        self.probes = [speed.probe()]

    def __call__(self, name, call, check):
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising operation is a failure; the run goes on
            seconds = time.perf_counter() - start
            self.probes.append(speed.probe())
            self.ops.append((name, seconds, [f"raised {type(exc).__name__}: {exc}"]))
            return None
        seconds = time.perf_counter() - start
        self.probes.append(speed.probe())
        self.ops.append((name, seconds, check(result)))
        return result


class Verify:
    """`nzc verify -n N -q Q --seed S --out FILE`, one in-process call per (N, Q)."""

    def __init__(self, cases, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.cases = [(n, q, rng.randrange(1, 2**31)) for q, ns in cases for n in ns]
        self.out = out_dir / f"verify-{seed}.json"
        self.rules = checks.load_expectations()
        self.sample = None

    def run_pass(self, rec: Recorder) -> None:
        for n, q, nzc_seed in self.cases:
            argv = ["verify", "-n", str(n), "-q", str(q), "--seed", str(nzc_seed),
                    "--out", str(self.out)]
            rec(f"verify n={n} q={q}", lambda: self._call(argv),
                lambda r: self._check(n, q, *r))

    def _call(self, argv):
        self.out.unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def _check(self, n, q, rc, stdout):
        try:
            report = json.loads(self.out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            report = None
        self.sample = (n, q, rc, stdout, report)
        return checks.verify_problems(self.rules, n, q, rc, stdout, report)

    def self_check(self) -> list[str]:
        """An altered expectation or report must be caught."""
        if self.sample is None or self.sample[4] is None:
            return ["no verify report to self-check against"]
        n, q, rc, stdout, report = self.sample
        flipped = copy.deepcopy(self.rules)
        for rule in flipped:
            rule["status"] = "anomaly" if rule["status"] == "pass" else "pass"
        extra = self.rules + [{"q": [q, q], "n": [n, n], "status": "pass",
                               "claims": ["no-such-claim"]}]
        failed = copy.deepcopy(report)
        failed["claims"][0]["status"] = "fail"
        tampered = {
            "flipped statuses": checks.verify_problems(flipped, n, q, rc, stdout, report),
            "missing claim": checks.verify_problems(extra, n, q, rc, stdout, report),
            "failed claim": checks.verify_problems(self.rules, n, q, rc, stdout, failed),
            "exit code": checks.verify_problems(self.rules, n, q, 1, stdout, report),
        }
        return [f"verdict check missed: {k}" for k, v in tampered.items() if not v]


class GraphScale:
    """Graph-level certificates and the JSON round trip on about 2,000 vertices.

    The inputs are fixed; the seed only names the run.
    """

    CASES = ((11, 2), (7, 3))

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.expected_edges = {c: checks.edge_count(*c) for c in self.CASES}

    def run_pass(self, rec: Recorder) -> None:
        for n, q in self.CASES:
            tag = f"n={n} q={q}"
            g = rec(f"build {tag}", lambda: gr.build(vs.SpaceParams(n, q)),
                    lambda g: self._check_build(g, n, q))
            if g is None:
                continue
            certs = ["check_adjacency_invariants", "check_twin_structure",
                     "check_degree_formula_general"]
            if q == 2:
                certs += ["check_degree_formula", "check_pair_counts"]
            for cert in certs:
                rec(f"{cert} {tag}", lambda: getattr(gr, cert)(g), status_is("pass"))
            if q == 2:
                rec(f"transposition_report {tag}",
                    lambda: dst.transposition_report(g, dst.constructive_labeling_q2(g)),
                    status_is("anomaly" if n >= 4 else "pass"))
            data = rec(f"graph_to_dict {tag}", lambda: se.graph_to_dict(g),
                       lambda d: self._check_dict(d, n, q))
            if data is None:
                continue
            back = rec(f"graph_from_dict {tag}", lambda: se.graph_from_dict(data),
                       lambda b: self._check_build(b, n, q))
            del data
            if back is not None:
                rec(f"graphs_equal {tag}", lambda: se.graphs_equal(g, back), is_true)

    @staticmethod
    def _check_build(g, n, q) -> list[str]:
        if g.vertices != checks.coefficient_tuples(n, q):
            return ["vertices are not the canonical coefficient tuples"]
        return []

    def _check_dict(self, d, n, q) -> list[str]:
        problems = []
        if len(d["vertices"]) != q**n - 1:
            problems.append(f"{len(d['vertices'])} vertices, expected {q**n - 1}")
        if len(d["edges"]) != self.expected_edges[(n, q)]:
            problems.append(f"{len(d['edges'])} edges, expected {self.expected_edges[(n, q)]}")
        return problems

    def self_check(self) -> list[str]:
        n, q = self.CASES[0]
        short = {"vertices": [None] * (q**n - 1), "edges": [None] * (self.expected_edges[(n, q)] - 1)}
        failed = type("Report", (), {"status": "fail"})()
        tampered = {
            "missing edge": self._check_dict(short, n, q),
            "unequal round trip": is_true(False),
            "failed certificate": status_is("pass")(failed),
        }
        return [f"graph check missed: {k}" for k, v in tampered.items() if not v]


class Labelings:
    """Distinguishing verdicts on a seeded stream of labelings.

    For each (n, q) and each coordinate-permutation cycle type, one labeling
    is the constructive labeling pulled back through a random sigma of that
    type (distinguishing), and one has random colours constant on the cycles
    of another such sigma (not distinguishing, sigma preserves it). For q = 2
    the basis cycles are coloured alternately by decreasing length, so the
    structural scan checks (a)!(n-a)! candidates for the same a on every seed.
    """

    CASES = ((9, 2), (6, 3))
    CYCLE_TYPES = ((2,), (2, 2), None)  # None: one n-cycle

    def __init__(self, seed: int, out_dir: Path) -> None:
        rng = random.Random(seed)
        self.items = []
        for n, q in self.CASES:
            g = gr.build(vs.SpaceParams(n, q))
            base = (dst.constructive_labeling_q2(g) if q == 2
                    else dst.constructive_labeling_q3(g))
            masks = checks.skeleton_masks(n, q)
            for ctype in self.CYCLE_TYPES:
                ctype = ctype or (n,)
                for kind in ("pulled", "constant"):
                    sigma = random_sigma(rng, n, ctype)
                    image = checks.coordinate_vertex_perm(n, q, sigma)
                    if kind == "pulled":
                        colors = tuple(base.colors[image[v]] for v in range(len(image)))
                    else:
                        colors = constant_on_cycles(rng, image, base.t, n if q == 2 else 0)
                    f = dst.Labeling(colors, base.t)
                    self.items.append((f"n={n} q={q} {kind} {ctype}", g, q, kind,
                                       tuple(sigma), f, masks))

    def run_pass(self, rec: Recorder) -> None:
        for name, g, q, kind, sigma, f, masks in self.items:
            rec(f"search {name}", lambda: dst.find_color_preserving(g, f),
                lambda w: search_problems(kind, masks, f.colors, w))
            if q == 2:
                rec(f"scan {name}", lambda: dst.structural_survivors(g, f),
                    lambda s: scan_problems(kind, g.params.n, f.colors, sigma, s))

    def self_check(self) -> list[str]:
        _, _, _, kind, _, f, masks = next(i for i in self.items if i[3] == "constant")
        nv = len(masks)
        col = f.colors
        same = next((u, v) for u in range(nv) for v in range(u + 1, nv)
                    if col[u] == col[v] and masks[u] != masks[v])
        other = next((u, v) for u in range(nv) for v in range(u + 1, nv) if col[u] != col[v])
        tampered = {
            "identity witness": search_problems(kind, masks, col, list(range(nv))),
            "colour-changing witness": search_problems(kind, masks, col, swap(nv, *other)),
            "adjacency-breaking witness": search_problems(kind, masks, col, swap(nv, *same)),
            "no witness on a constant labeling": search_problems(kind, masks, col, None),
            "witness on a pulled-back labeling": search_problems("pulled", masks, col, swap(nv, *same)),
            "identity survivor": scan_problems(kind, 3, [1] * 7, (0, 1, 2), [(0, 1, 2)]),
            "survivor on a pulled-back labeling": scan_problems("pulled", 3, [1] * 7, (1, 0, 2), [(1, 0, 2)]),
        }
        return [f"witness check missed: {k}" for k, v in tampered.items() if not v]


def status_is(want: str):
    return lambda report: [] if report.status == want else [f"status {report.status}, expected {want}"]


def is_true(ok) -> list[str]:
    return [] if ok is True else ["round trip does not compare equal"]


def swap(nv: int, u: int, v: int) -> list[int]:
    perm = list(range(nv))
    perm[u], perm[v] = v, u
    return perm


def random_sigma(rng: random.Random, n: int, ctype) -> list[int]:
    """A uniformly random permutation of range(n) with the given non-trivial cycles."""
    points = list(range(n))
    rng.shuffle(points)
    sigma = list(range(n))
    start = 0
    for length in ctype:
        cycle = points[start:start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
        start += length
    return sigma


def constant_on_cycles(rng: random.Random, image, t: int, n_basis: int) -> tuple[int, ...]:
    """Colours constant on the cycles of the vertex map `image`.

    When `n_basis` is set (q = 2), the cycles through the basis vertices
    (ids 2^i - 1) get colours 1, 2, 1, ... by decreasing length; every other
    cycle gets a random colour in 1..t.
    """
    colors = [0] * len(image)
    cycles = []
    for v in range(len(image)):
        if colors[v]:
            continue
        cycle = [v]
        colors[v] = -1
        w = image[v]
        while w != v:
            cycle.append(w)
            colors[w] = -1
            w = image[w]
        cycles.append(cycle)
    basis = {(1 << i) - 1 for i in range(n_basis)}
    on_basis = [c for c in cycles if c[0] in basis]
    rng.shuffle(on_basis)
    on_basis.sort(key=len, reverse=True)
    for k, cycle in enumerate(on_basis):
        for v in cycle:
            colors[v] = 1 + k % 2
    for cycle in cycles:
        if colors[cycle[0]] < 0:
            c = rng.randint(1, t)
            for v in cycle:
                colors[v] = c
    return tuple(colors)


def search_problems(kind: str, masks, colors, witness) -> list[str]:
    if kind == "pulled":
        return [] if witness is None else ["witness found for a distinguishing labeling"]
    return checks.witness_problems(masks, colors, witness)


def scan_problems(kind: str, n: int, colors, sigma, survivors) -> list[str]:
    if kind == "pulled":
        return [] if not survivors else [f"{len(survivors)} survivors for a distinguishing labeling"]
    problems = [] if sigma in survivors else ["sigma, which preserves the labeling, is not a survivor"]
    for s in survivors:
        problems += checks.basis_perm_problems(n, colors, s)
    return problems


WORKLOADS = {
    "verify-q2": lambda seed, out: Verify([(2, range(3, 11))], seed, out),
    "verify-q3plus": lambda seed, out: Verify(
        [(3, range(2, 7)), (4, range(2, 5)), (5, range(2, 5))], seed, out),
    "graph-scale": GraphScale,
    "labelings": Labelings,
}
