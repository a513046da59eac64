"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every tolerance is exact (integer equality) except the stated runtime
ceilings, which are asserted with the wall-clock bounds given alongside the
criteria. Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import time
from itertools import combinations, permutations
from math import comb, factorial

import nzcgraph as nz
from nzcgraph import SpaceParams
from nzcgraph import serialize
from nzcgraph import symmetry as sym
from nzcgraph.distinguishing import transposition_report


def report(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}{extra}")
    return ok


def test_criterion_1_degree_formula():
    ok = True
    worst = 0.0
    for n in range(2, 11):
        t0 = time.perf_counter()
        g = nz.build(SpaceParams(n, 2))
        rep = nz.check_degree_formula(g)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        ok &= rep.passed and rep.checked == 2**n - 1
        ok &= elapsed < 1.0
    assert report(1, "degree-formula-q2 n=2..10", ok, f" (worst {worst:.3f}s < 1s)")


def test_criterion_2_group_order_and_engines():
    ok = True
    for n in range(1, 9):
        g = nz.build(SpaceParams(n, 2))
        grp = nz.aut_group_structural(g)
        distinct = len({row.tobytes() for row in grp.perms})
        ok &= distinct == factorial(n)
    oracle_n4_time = 0.0
    for n in (2, 3, 4):
        g = nz.build(SpaceParams(n, 2))
        t0 = time.perf_counter()
        oracle = nz.aut_group_oracle(g)
        elapsed = time.perf_counter() - t0
        if n == 4:
            oracle_n4_time = elapsed
            ok &= elapsed < 10.0
        ok &= oracle.set_equal(nz.aut_group_structural(g))
    assert report(2, "aut-order n! and engine agreement", ok,
                  f" (oracle n=4: {oracle_n4_time:.3f}s < 10s)")


def test_criterion_3_extension_isomorphism(monkeypatch):
    monkeypatch.setattr(sym, "EXTENSION_PAIRS", 1000)
    ok = True
    for n in range(1, 5):
        g = nz.build(SpaceParams(n, 2))
        rep = nz.check_extension_isomorphism(g, nz.aut_group_structural(g),
                                             nz.aut_group_oracle(g))
        ok &= rep.passed and rep.details["mode"] == "exhaustive"
        ok &= rep.details["oracle_order"] == factorial(n)
    for n in range(5, 9):
        g = nz.build(SpaceParams(n, 2))
        oracle = nz.aut_group_oracle(g) if g.num_vertices <= 40 else None
        rep = nz.check_extension_isomorphism(g, nz.aut_group_structural(g), oracle, seed=0)
        ok &= rep.passed and rep.details["pairs_checked"] >= 1000
    assert report(3, "S_n iso Aut(G): homomorphism/bijectivity", ok)


def test_criterion_4_orbit_structure():
    ok = True
    for n in (3, 4):
        g = nz.build(SpaceParams(n, 2))
        grp = nz.aut_group_structural(g)
        got = sorted(tuple(sorted(o)) for o in grp.orbits())
        want = sorted(tuple(sorted(c)) for c in g.t_classes().values())
        ok &= got == want
        top = g.t_classes()[n][0]
        ok &= all(int(a) == top for a in grp.perms[:, top])
    assert report(4, "orbits are the classes; top vertex fixed", ok)


def test_criterion_5_separating_pair_counts():
    ok = True
    for n in range(3, 11):
        g = nz.build(SpaceParams(n, 2))
        for i in range(1, n):
            want = comb(n - 1, i - 1) - (comb(n - 2, i - 2) if i >= 2 else 0)
            for l in range(1, n + 1):
                for m in range(1, n + 1):
                    if l != m and nz.count_distinguishing_pairs(g, l, m, i) != want:
                        ok = False
    assert report(5, "separating-pair count formula n=3..10", ok)


def test_criterion_6_two_colour_distinguishing():
    ok = True
    # the 2-colour scheme beats the full group for every n in 3..10
    for n in range(3, 11):
        g = nz.build(SpaceParams(n, 2))
        f = nz.constructive_labeling_q2(g)
        if n <= 8:
            grp = nz.aut_group_structural(g)
            ok &= nz.is_distinguishing(g, grp, f)
        else:
            # the full n!-element group, scanned without materialising it
            ok &= not nz.structural_survivors(g, f)
    # exact search confirms the minimum is 2 where the search is feasible
    for n in (3, 4):
        g = nz.build(SpaceParams(n, 2))
        r = nz.dist_number(g, nz.explicit_group(g))
        ok &= (r.value, r.method, r.refuted) == (2, "exact", 1)
    # per-class tallies: the T1 form holds throughout; the literal class-(n-1)
    # rule selects no vertex, so its slot is 0 and the class-2 slot absorbs
    # the difference for every n >= 4; the certificate must name exactly
    # those n as anomalous while still covering all C(n,2) transpositions
    anomalous = []
    for n in range(3, 11):
        g = nz.build(SpaceParams(n, 2))
        f = nz.constructive_labeling_q2(g)
        rep = transposition_report(g, f)
        bd = rep.details
        ok &= bd["covers_all"]
        ok &= bd["tallies"]["T1"] == bd["expected"]["T1"]
        if n >= 4:
            half = n // 2
            ok &= bd["tallies"]["T(n-1)"] == 0
            ok &= bd["tallies"]["T2"] == comb(half, 2) + comb(n - half, 2)
        if rep.status == "anomaly":
            anomalous.append(n)
        elif not rep.passed:
            ok = False
    ok &= anomalous == list(range(4, 11))
    assert report(6, "2-colour scheme distinguishing; tallies certified", ok,
                  f" (closed-form anomaly reported for n={anomalous})")


def test_criterion_7_q3_distinguishing_numbers():
    t0 = time.perf_counter()
    ok = True
    for n, q in [(2, 3), (3, 3), (2, 4)]:
        g = nz.build(SpaceParams(n, q))
        want = (q - 1) ** n
        ok &= nz.twin_lower_bound(g) == want
        f = nz.constructive_labeling_q3(g)
        ok &= len(f.used_colors()) == want
        ok &= nz.find_color_preserving(g, f) is None
        result = nz.dist_number(g, nz.explicit_group(g))
        ok &= result.value == want
    # (2,3): the full 192-element group is enumerable, so scan it explicitly
    # and let the exact search refute (q-1)^n - 1 colours
    g = nz.build(SpaceParams(2, 3))
    grp = nz.aut_group_oracle(g)
    ok &= grp.order == 192
    ok &= nz.is_distinguishing(g, grp, nz.constructive_labeling_q3(g))
    ok &= nz.exists_distinguishing_labeling(g, grp, 3) is None
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert report(7, "(q-1)^n distinguishing numbers for q>=3", ok,
                  f" ({elapsed:.2f}s < 120s)")


def test_criterion_8_property_pack():
    ok = True
    q2_configs = [(n, 2) for n in range(2, 11)]
    q3_configs = [(2, 3), (3, 3), (2, 4)]
    for n, q in q2_configs + q3_configs:
        g = nz.build(SpaceParams(n, q))
        m = g.adjacency_matrix()
        ok &= bool((m == m.T).all()) and not m.diagonal().any()
        by_skel = sorted(g.twin_sets(), key=lambda ts: (len(ts), ts))
        ok &= by_skel == nz.twin_partition_by_neighborhood(g)
        data = serialize.graph_to_dict(g)
        ok &= serialize.graphs_equal(g, serialize.graph_from_dict(data))
    for n, q in [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (2, 3)]:
        g = nz.build(SpaceParams(n, q))
        grp = (nz.aut_group_structural(g) if q == 2 else nz.aut_group_oracle(g))
        ok &= nz.check_orbit_stabilizer(grp).passed
    assert report(8, "property pack: orbit-stabilizer, symmetry, twins, roundtrip", ok)
