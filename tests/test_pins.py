"""Byte-for-byte pins of the certificate output and of failure reports.

The files under ``tests/data`` hold what the certificate suite printed and
wrote on the reference ranges and at n = 1, 2, what ``nzc build`` wrote in
each format on three small graphs, what the skeleton-reading checks report
on hand-corrupted inputs, and what the verify certificates report on
corrupted groups, labelings and verdicts, when the pins were taken. Any
change of a certificate, an output line or a failure string fails here.
Rewrite the files only for a deliberate, documented change of output, with
``PYTHONPATH=src python tests/test_pins.py``.
"""

import collections
import contextlib
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

import nzcgraph as nz
from nzcgraph import SpaceParams, cli
from nzcgraph import distinguishing as dst
from nzcgraph import verify as vfy
from nzcgraph.distinguishing import DistResult, Labeling, SchemeVerdict

DATA = Path(__file__).parent / "data"
RANGES = (("3..10", "2"), ("2..6", "3"), ("2..4", "4"), ("2..4", "5"), ("1..2", "2"),
          ("1", "3..5"), ("1", "6..8"))
BUILDS = [(n, q, fmt) for n, q in ((1, 2), (4, 2), (2, 3)) for fmt in ("json", "dot", "table")]


def _stem(n, q):
    return f"verify_n{n}_q{q}".replace("..", "-")


@pytest.mark.parametrize("n,q", RANGES)
def test_verify_output_is_pinned(n, q, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    out = tmp_path / "report.json"
    assert cli.main(["verify", "-n", n, "-q", q, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (DATA / f"{_stem(n, q)}.txt").read_text(encoding="utf-8")
    assert out.read_bytes() == (DATA / f"{_stem(n, q)}.json").read_bytes()


def test_verify_pins_hold_twice_over_in_one_process(capsys, tmp_path, monkeypatch):
    # cli.main builds its parser once a process; no call may leave state for the next
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    out = tmp_path / "report.json"
    for n, q in RANGES * 2:
        assert cli.main(["verify", "-n", n, "-q", q, "--out", str(out)]) == 0
        assert capsys.readouterr().out == (DATA / f"{_stem(n, q)}.txt").read_text(encoding="utf-8")
        assert out.read_bytes() == (DATA / f"{_stem(n, q)}.json").read_bytes()


def _build_args(n, q, fmt, out):
    return ["build", "-n", str(n), "-q", str(q), "--format", fmt, "--out", str(out)]


@pytest.mark.parametrize("n,q,fmt", BUILDS)
def test_build_output_is_pinned(n, q, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    out = tmp_path / f"graph.{fmt}"
    assert cli.main(_build_args(n, q, fmt, out)) == 0
    assert out.read_bytes() == (DATA / f"build_n{n}_q{q}.{fmt}").read_bytes()


def _graph(n, q):
    return nz.build(SpaceParams(n, q))


def _swapped(n, q, u, v):
    """The (n, q) graph with the skeletons of u and v exchanged, matrix kept."""
    g = _graph(n, q)
    s = [int(x) for x in g.skeletons]
    s[u], s[v] = s[v], s[u]
    return nz.NzcGraph(g.params, g.vertices, s, g.adjacency_matrix())


def _relabelled(n, q, u, v):
    """The (n, q) graph with vertex u given the skeleton of v, matrix kept."""
    g = _graph(n, q)
    s = [int(x) for x in g.skeletons]
    s[u] = s[v]
    return nz.NzcGraph(g.params, g.vertices, s, g.adjacency_matrix())


def _corrupt_rows(rows, count, seed):
    """`count` rows of `rows`, each with two seeded entries exchanged."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        row = np.array(rows[rng.randrange(len(rows))])
        a, b = rng.sample(range(len(row)), 2)
        row[[a, b]] = row[[b, a]]
        out.append(row)
    return out


def _structure(g, rows):
    return nz.check_automorphism_structure(g, nz.AutGroup(g, rows)).to_dict()


def _structure_3_2():
    g = _graph(3, 2)
    ident = np.arange(7)
    grp = nz.aut_group_structural(g).perms
    rows = [ident, grp[1]]
    bad = ident.copy()
    bad[[2, 4]] = 4, 2  # class-2 exchange, basis fixed: transport, moves-two
    rows.append(bad)
    bad = ident.copy()
    bad[[0, 1]] = 1, 0  # basis exchange alone: swap and transport
    rows.append(bad)
    bad = ident.copy()
    bad[[0, 2]] = 2, 0  # across classes: classes, basis family, leaves the basis
    rows.append(bad)
    bad = grp[3].copy()
    bad[[5, 6]] = bad[[6, 5]]  # a 3-cycle extension, broken across classes 2 and 3
    rows.append(bad)
    bad = grp[1].copy()
    bad[6] = bad[5]  # not a permutation
    rows.append(bad)
    return _structure(g, rows)


def _structure_4_2():
    g = _graph(4, 2)
    grp = nz.aut_group_structural(g).perms
    return _structure(g, [grp[0], *_corrupt_rows(grp, 9, 7), grp[5], grp[23]])


def _structure_2_3():
    g = _graph(2, 3)
    grp = nz.aut_group_oracle(g).perms
    rows = [grp[0], *_corrupt_rows(grp, 5, 11), grp[100]]
    bad = np.arange(8)
    bad[[0, 7]] = 7, 0  # a basis vertex onto the class-2 vertex with the same coefficients
    rows.append(bad)
    return _structure(g, rows)


def _raises(call):
    try:
        return call()
    except (ValueError, nz.UnsupportedFieldError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _graph_checks(g):
    out = {
        "skeletons": [int(x) for x in g.skeletons],
        "t_classes": g.t_classes(),
        "twin_sets": g.twin_sets(),
        "adjacency": nz.graph.check_adjacency_invariants(g).to_dict(),
        "degree_general": nz.check_degree_formula_general(g).to_dict(),
        "twins": nz.check_twin_structure(g).to_dict(),
    }
    if g.params.q == 2:
        out["degree"] = nz.check_degree_formula(g).to_dict()
        out["pairs"] = nz.check_pair_counts(g).to_dict()
        if g.params.n >= 3:
            f = dst.constructive_labeling_q2(g)
            out["labeling_q2"] = f.colors
            out["transpositions"] = _raises(lambda: dst.transposition_report(g, f).to_dict())
    return out


def check_swap_broken_by_pair(g, grp, f, u, v, l, m):
    """Differently-coloured class mates separating b_l from b_m break every
    automorphism that exchanges b_l and b_m: a lemma of the paper's 2-colour
    proof, checked on an explicit group.

    Preconditions (q = 2): u, v in the same class, b_l in S_u - S_v,
    b_m in S_v - S_u, and f(u) != f(v). Violations raise ValueError.
    """
    if g.params.q != 2:
        raise nz.UnsupportedFieldError("swap-breaking check requires q = 2")
    if g.sizes[u] != g.sizes[v]:
        raise ValueError("u and v must lie in the same skeleton-size class")
    su, sv = int(g.skeletons[u]), int(g.skeletons[v])
    lbit, mbit = 1 << (l - 1), 1 << (m - 1)
    if not (su & lbit and not sv & lbit):
        raise ValueError(f"b{l} must lie in S_u but not S_v")
    if not (sv & mbit and not su & mbit):
        raise ValueError(f"b{m} must lie in S_v but not S_u")
    if f.colors[u] == f.colors[v]:
        raise ValueError("u and v must have different colours")
    bl = (1 << (l - 1)) - 1
    bm = (1 << (m - 1)) - 1
    p, c = grp.perms, np.asarray(f.colors)
    swaps = (p[:, bl] == bm) & (p[:, bm] == bl)
    return not (swaps & (c[p] == c).all(1)).any()  # no swapping automorphism survives


def _swap_broken(g, grp, marked):
    """Outcome counts of the swap-breaking check over every (u, v, l, m),
    with colour 2 on the vertices whose ids satisfy `marked`."""
    n, nv = g.params.n, g.num_vertices
    f = Labeling(tuple(2 if marked(v) else 1 for v in range(nv)), 2)
    counts = collections.Counter(
        str(_raises(lambda: check_swap_broken_by_pair(g, grp, f, *args)))
        for args in itertools.product(range(nv), range(nv), range(1, n + 1), range(1, n + 1)))
    return sorted(counts.items())


def _swap_broken_corrupted():
    g = _swapped(4, 2, 2, 9)
    rows = np.array([np.arange(15)] * 3)
    rows[1, [0, 1]] = 1, 0  # the basis exchange b1 <-> b2 alone
    rows[2, [0, 3, 1, 2]] = 3, 0, 2, 1  # b1 <-> b3, colour-blind elsewhere
    return _swap_broken(g, nz.AutGroup(g, rows), lambda v: v == 9)


def _extend_swapped():
    g = _swapped(4, 2, 0, 6)
    return [_raises(lambda: nz.extend_basis_permutation(g, s).tolist())
            for s in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0))]


CASES = {
    "structure_3_2": _structure_3_2,
    "structure_4_2": _structure_4_2,
    "structure_2_3": _structure_2_3,
    "swapped_4_2": lambda: _graph_checks(_swapped(4, 2, 0, 6)),
    "swapped_5_2": lambda: _graph_checks(_swapped(5, 2, 2, 7)),
    "swapped_3_3": lambda: _graph_checks(_swapped(3, 3, 0, 25)),
    "intact_4_3": lambda: _graph_checks(_graph(4, 3)),
    "duplicate_4_2": lambda: _graph_checks(_relabelled(4, 2, 0, 2)),
    "duplicate_3_3": lambda: _graph_checks(_relabelled(3, 3, 2, 0)),
    "swap_broken_3_2": lambda: _swap_broken(_graph(3, 2), nz.aut_group_structural(_graph(3, 2)),
                                            lambda v: (v * 7 + v // 3) % 2),
    "swap_broken_4_2": lambda: _swap_broken(_graph(4, 2), nz.aut_group_structural(_graph(4, 2)),
                                            lambda v: (v * 7 + v // 3) % 2),
    "swap_broken_corrupted": _swap_broken_corrupted,
    "extend_swapped_4_2": _extend_swapped,
}


def _group_3_2():
    g = _graph(3, 2)
    return g, nz.aut_group_structural(g).perms


def _duplicate_row():
    g, rows = _group_3_2()
    rows = rows.copy()
    rows[5] = rows[4]
    return vfy._report_group_order(g, nz.AutGroup(g, rows)).to_dict()


def _top_vertex_moved():
    g, rows = _group_3_2()
    bad = np.arange(7)
    bad[[5, 6]] = 6, 5  # the class-n vertex onto a class-2 vertex
    grp = nz.AutGroup(g, [*rows, bad])
    doubled = _relabelled(3, 2, 0, 6)  # class n with two vertices
    return [vfy._report_orbits_match_classes(g, grp).to_dict(),
            vfy._report_top_class_fixed(g, grp).to_dict(),
            vfy._report_top_class_fixed(doubled, nz.AutGroup(doubled, rows)).to_dict()]


def _engines_disagree():
    g, rows = _group_3_2()
    return vfy._report_engines_agree(g, nz.AutGroup(g, rows), nz.AutGroup(g, rows[:3])).to_dict()


def _two_colour_preservers(engine):
    g = _graph(3, 2)
    scheme = SchemeVerdict(Labeling((1,) * g.num_vertices, 1), engine, 5)
    return vfy._report_two_labeling(g, scheme).to_dict()


def _dist_number_wrong():
    g2, g3 = _graph(3, 2), _graph(2, 3)
    f2 = dst.constructive_labeling_q2(g2)
    return [vfy._report_dist_number(g2, DistResult(3, 3, "exact", f2, None)).to_dict(),
            vfy._report_dist_number(g2, DistResult(2, 2, "exact", None, None)).to_dict(),
            vfy._report_dist_number(g3, DistResult(2, 5, "bounded", f2, None, "twins",
                                                   "scheme")).to_dict()]


def _short_palette(engine):
    g = _graph(2, 3)
    scheme = SchemeVerdict(Labeling((1, 2) * 4, 4), engine, 1)
    return vfy._report_constructive_q3(g, scheme).to_dict()


def _partial_group_2_3():
    g = _graph(2, 3)
    grp = nz.AutGroup(g, nz.aut_group_oracle(g).perms[:10])
    return vfy._report_observed_group_order(g, grp).to_dict()


# the failure branches of the verify certificates, in a file of their own
REPORT_CASES = {
    "aut_order_duplicate_row": _duplicate_row,
    "top_vertex_moved": _top_vertex_moved,
    "engines_disagree": _engines_disagree,
    "two_colour_scan_preservers": lambda: _two_colour_preservers("explicit-group-scan"),
    "two_colour_structural_preservers": lambda: _two_colour_preservers("structural-scan"),
    "dist_number_wrong": _dist_number_wrong,
    "twin_bound_relabelled_2_3": lambda: vfy._report_twin_bound(_relabelled(2, 3, 0, 3)).to_dict(),
    "short_palette_scan": lambda: _short_palette("explicit-group-scan"),
    "short_palette_search": lambda: _short_palette("colour-preserving-search"),
    "observed_order_partial_2_3": _partial_group_2_3,
}
PIN_FILES = {"failure_pins.json": CASES, "report_pins.json": REPORT_CASES}


def _result(cases, name):
    return json.loads(json.dumps(cases[name](), default=list))


def _pinned(file, name):
    return json.loads((DATA / file).read_text(encoding="utf-8"))[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_failure_reports_are_pinned(name):
    assert _result(CASES, name) == _pinned("failure_pins.json", name)


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_certificate_failures_are_pinned(name):
    assert _result(REPORT_CASES, name) == _pinned("report_pins.json", name)


if __name__ == "__main__":
    for n, q in RANGES:
        stem = DATA / _stem(n, q)
        with open(f"{stem}.txt", "w", encoding="utf-8") as fh:
            with contextlib.redirect_stdout(fh):
                cli.main(["verify", "-n", n, "-q", q, "--out", f"{stem}.json"])
    for n, q, fmt in BUILDS:
        cli.main(_build_args(n, q, fmt, DATA / f"build_n{n}_q{q}.{fmt}"))
    for file, cases in PIN_FILES.items():
        pins = {name: _result(cases, name) for name in sorted(cases)}
        (DATA / file).write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
