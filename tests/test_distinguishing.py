"""Labelings, distinguishing engines, and the distinguishing-number search."""

import itertools
import json
import random
import sys

import numpy as np
import pytest

import nzcgraph as nz
from nzcgraph import CapExceededError, SpaceParams, UnsupportedFieldError
from nzcgraph import distinguishing as dst
from nzcgraph import symmetry as sym
from nzcgraph.distinguishing import all_distinct_labeling, transposition_report
from nzcgraph.symmetry import _extend_images_batch
from nzcgraph.vectorspace import basis_vector
from test_pins import check_swap_broken_by_pair


def vid(g, coeffs):
    return nz.vector_id(g.params, coeffs)


def test_all_distinct_is_distinguishing():
    for n, q in [(3, 2), (2, 3)]:
        g = nz.build(SpaceParams(n, q))
        grp = (nz.aut_group_structural(g) if q == 2 else nz.aut_group_oracle(g))
        assert nz.is_distinguishing(g, grp, all_distinct_labeling(g))


def test_constant_is_not_distinguishing():
    g = nz.build(SpaceParams(3, 2))
    grp = nz.aut_group_structural(g)
    assert not nz.is_distinguishing(g, grp, nz.Labeling((1,) * g.num_vertices, 1))


def test_two_colour_scheme_basis_colors_n4():
    g = nz.build(SpaceParams(4, 2))
    f = nz.constructive_labeling_q2(g)
    basis = [vid(g, basis_vector(g.params, i)) for i in range(1, 5)]
    assert [f.colors[v] for v in basis] == [1, 1, 2, 2]


def test_two_colour_scheme_consecutive_pairs_n6():
    g = nz.build(SpaceParams(6, 2))
    f = nz.constructive_labeling_q2(g)
    color1 = {g.skeletons[v] for v in g.t_classes()[2] if f.colors[v] == 1}
    want = {0b000011, 0b000110, 0b001100, 0b011000, 0b110000}
    assert color1 == want
    assert all(f.colors[v] == 2 for v in g.t_classes()[2]
               if g.skeletons[v] not in want)


def _two_colour_scheme_reference(n):
    """The scheme rule by rule, over skeleton masks (vertex id = mask - 1 at q = 2)."""
    half = n // 2
    named = {sum(1 << (i - 1) for i in range(2, half + 1)),
             sum(1 << (i - 1) for i in range(half + 2, n + 1))}
    colors = []
    for mask in range(1, 1 << n):
        size = bin(mask).count("1")
        low = mask & -mask
        one = ((size == 1 and mask < 1 << half)
               or (size == n - 1 and mask in named)
               or (size == 2 and mask == low | low << 1))
        colors.append(1 if one else 2)
    return tuple(colors)


@pytest.mark.parametrize("n", range(3, 13))
def test_two_colour_scheme_matches_the_rule_by_rule_reference(n):
    f = nz.constructive_labeling_q2(nz.build(SpaceParams(n, 2)))
    assert f.colors == _two_colour_scheme_reference(n) and f.t == 2


def test_two_colour_scheme_guards():
    with pytest.raises(UnsupportedFieldError):
        nz.constructive_labeling_q2(nz.build(SpaceParams(3, 3)))
    with pytest.raises(ValueError):
        nz.constructive_labeling_q2(nz.build(SpaceParams(2, 2)))


def test_two_colour_scheme_distinguishing_small():
    for n in (3, 4, 5, 6):
        g = nz.build(SpaceParams(n, 2))
        f = nz.constructive_labeling_q2(g)
        grp = nz.aut_group_structural(g)
        assert nz.is_distinguishing(g, grp, f)
        # cross-engine agreement
        assert not nz.structural_survivors(g, f)
        assert nz.find_color_preserving(g, f) is None


def test_transposition_tallies_n4():
    g = nz.build(SpaceParams(4, 2))
    rep = transposition_report(g, nz.constructive_labeling_q2(g))
    bd = rep.details
    assert bd["tallies"]["T1"] == 4  # n^2/4
    # the literal class-(n-1) rule selects nothing for n >= 4, so its slot
    # stays empty and the class-2 slot absorbs the stated n-2
    assert bd["tallies"]["T(n-1)"] == 0
    assert bd["tallies"]["T2"] == 2
    assert bd["expected"] == {"T1": 4, "T(n-1)": 2, "T2": 0}
    assert bd["covers_all"]
    assert rep.status == "anomaly"


def test_transposition_tallies_n5():
    g = nz.build(SpaceParams(5, 2))
    bd = transposition_report(g, nz.constructive_labeling_q2(g)).details
    assert bd["tallies"] == {"T1": 6, "T(n-1)": 0, "T2": 4}
    assert bd["expected"] == {"T1": 6, "T(n-1)": 3, "T2": 1}
    assert bd["covers_all"]


def test_transposition_tallies_n3_match():
    # for n = 3 the class-(n-1) slot and the class-2 slot share one class, so
    # the stated forms (2, 1, 0) come out exactly
    g = nz.build(SpaceParams(3, 2))
    rep = transposition_report(g, nz.constructive_labeling_q2(g))
    assert rep.status == "pass"


def test_transpositions_constant_labeling_breaks_nothing():
    g = nz.build(SpaceParams(3, 2))
    rep = transposition_report(g, nz.Labeling((1,) * g.num_vertices, 1))
    assert all(t == 0 for t in rep.details["tallies"].values())
    assert rep.failures[-1] == "uncovered transpositions: [(1, 2), (1, 3), (2, 3)]"


def test_transposition_report_checks_one_stack(monkeypatch):
    # two rows, (1 2) and the n-cycle, prove all C(n, 2), whatever n is
    calls = []
    check = sym._automorphism_rows
    monkeypatch.setattr(sym, "_automorphism_rows", lambda g, images: calls.append(
        len(images)) or check(g, images))
    for n in (6, 12):
        g = nz.build(SpaceParams(n, 2))
        calls.clear()
        assert transposition_report(g, nz.constructive_labeling_q2(g)).status == "anomaly"
        assert calls == [2]


def test_swap_broken_by_pair_n3():
    g = nz.build(SpaceParams(3, 2))
    grp = nz.aut_group_structural(g)
    f = nz.constructive_labeling_q2(g)
    u, v = vid(g, (1, 0, 1)), vid(g, (0, 1, 1))  # b1+b3 vs b2+b3
    assert f.colors[u] != f.colors[v]
    assert check_swap_broken_by_pair(g, grp, f, u, v, 1, 2)


def test_swap_broken_by_pair_n4_disjoint():
    g = nz.build(SpaceParams(4, 2))
    grp = nz.aut_group_structural(g)
    f = nz.constructive_labeling_q2(g)
    u, v = vid(g, (1, 0, 0, 1)), vid(g, (0, 1, 1, 0))  # {b1,b4} vs {b2,b3}
    assert f.colors[u] != f.colors[v]
    assert check_swap_broken_by_pair(g, grp, f, u, v, 1, 2)


def test_swap_broken_precondition_same_colors():
    g = nz.build(SpaceParams(3, 2))
    grp = nz.aut_group_structural(g)
    f = nz.Labeling((1,) * g.num_vertices, 1)
    u, v = vid(g, (1, 0, 1)), vid(g, (0, 1, 1))
    with pytest.raises(ValueError):
        check_swap_broken_by_pair(g, grp, f, u, v, 1, 2)


def test_dist_exact_q2():
    g = nz.build(SpaceParams(3, 2))
    r = nz.dist_number(g, nz.explicit_group(g))
    assert (r.lower, r.upper, r.method) == (2, 2, "exact")
    assert r.refuted == 1

    g = nz.build(SpaceParams(2, 2))  # the path on three vertices
    r = nz.dist_number(g, nz.explicit_group(g))
    assert (r.value, r.method) == (2, "exact")


def test_dist_single_vertex():
    g = nz.build(SpaceParams(1, 2))
    r = nz.dist_number(g, nz.explicit_group(g))
    assert r.value == 1


def test_dist_2_3_exact_four_with_refutation():
    g = nz.build(SpaceParams(2, 3))
    r = nz.dist_number(g, nz.explicit_group(g))
    assert (r.value, r.method) == (4, "exact")
    assert r.refuted == 3  # no 3-colour distinguishing labeling exists
    grp = nz.aut_group_oracle(g)
    assert nz.exists_distinguishing_labeling(g, grp, 3) is None
    assert nz.exists_distinguishing_labeling(g, grp, 4) is not None


def test_dist_3_3_bounds_meet_at_8():
    g = nz.build(SpaceParams(3, 3))
    r = nz.dist_number(g, nz.explicit_group(g))
    assert r.value == 8
    assert r.method == "bounded"  # squeeze: twin bound meets the validated scheme
    assert r.lower_source == "twin-sets"


def test_dist_bounded_mode_above_cap():
    g = nz.build(SpaceParams(5, 2))  # 31 vertices > default exact cap
    r = nz.dist_number(g, nz.explicit_group(g))
    assert r.method == "bounded"
    assert (r.lower, r.upper) == (2, 2)
    assert r.value == 2


def test_twin_lower_bound():
    assert nz.twin_lower_bound(nz.build(SpaceParams(3, 3))) == 8
    assert nz.twin_lower_bound(nz.build(SpaceParams(5, 2))) == 1
    # (q-1)^2 = 9, confirmed against the twin partition itself
    g = nz.build(SpaceParams(2, 4))
    assert nz.twin_lower_bound(g) == max(len(ts) for ts in g.twin_sets()) == 9


def test_twin_injective_scheme_2_3():
    g = nz.build(SpaceParams(2, 3))
    f = nz.constructive_labeling_q3(g)
    grp = nz.aut_group_oracle(g)
    assert nz.is_distinguishing(g, grp, f)
    assert nz.find_color_preserving(g, f) is None
    assert len(f.used_colors()) == 4
    # twin sets of equal size carry distinct colour sets; identical sets
    # would admit an automorphism exchanging whole twin sets
    sets = [frozenset(f.colors[v] for v in ts) for ts in g.twin_sets()]
    assert len(set(sets)) == len(sets)


def test_naive_equal_colour_sets_fail_2_3():
    # regression for the engine choice: per-twin-set colours 1..s are NOT
    # distinguishing, the colour-matched exchange of the two basis twin sets
    # survives
    g = nz.build(SpaceParams(2, 3))
    colors = [0] * g.num_vertices
    for ts in g.twin_sets():
        for k, v in enumerate(ts):
            colors[v] = k + 1
    naive = nz.Labeling(tuple(colors), 4)
    grp = nz.aut_group_oracle(g)
    assert not nz.is_distinguishing(g, grp, naive)
    witness = nz.find_color_preserving(g, naive)
    assert witness is not None and nz.is_automorphism(g, witness)


def test_twin_injective_scheme_3_3():
    g = nz.build(SpaceParams(3, 3))
    f = nz.constructive_labeling_q3(g)
    assert f.t == 8
    assert len(f.used_colors()) == 8
    assert nz.find_color_preserving(g, f) is None


def test_twin_injective_rejects_q2():
    with pytest.raises(UnsupportedFieldError):
        nz.constructive_labeling_q3(nz.build(SpaceParams(3, 2)))


def test_structural_survivors_find_preserving_perms():
    g = nz.build(SpaceParams(3, 2))
    # colour only by class: every basis permutation survives
    colors = tuple(g.sizes.tolist())
    f = nz.Labeling(colors, 3)
    assert len(nz.structural_survivors(g, f)) == 5  # all of S_3 minus identity
    assert nz.structural_survivors(g, f)


def brute_force_survivors(g, f):
    """Every non-identity basis permutation whose extension keeps each colour."""
    n = g.params.n
    sigmas = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    colors = np.asarray(f.colors)
    ok = (colors[_extend_images_batch(g, sigmas)] == colors).all(axis=1)
    return [tuple(int(x) for x in row) for row in sigmas[ok][1:]]


def test_structural_survivors_match_brute_force():
    # at n = 7 the 5,040 partial permutations of a constant labeling span two
    # blocks of the level scan and five of the survivor check
    rng = random.Random(11)
    for n in range(3, 8):
        g = nz.build(SpaceParams(n, 2))
        nv = g.num_vertices
        labelings = [nz.Labeling((1,) * nv, 1)]
        for t in (1, 2, 3):
            for _ in range(3):
                labelings.append(nz.Labeling(tuple(rng.randint(1, t) for _ in range(nv)), t))
        # colours constant on the vertex cycles of a random basis permutation
        image = nz.extend_basis_permutation(g, rng.sample(range(n), n))
        colors = [0] * nv
        for v in range(nv):
            if not colors[v]:
                c, w = rng.randint(1, 2), v
                while not colors[w]:
                    colors[w] = c
                    w = image[w]
        labelings.append(nz.Labeling(tuple(colors), 2))
        for f in labelings:
            assert nz.structural_survivors(g, f) == brute_force_survivors(g, f)


def test_structural_survivors_budget_bounds_partial_perms(monkeypatch):
    g = nz.build(SpaceParams(5, 2))
    f = nz.Labeling((1,) * g.num_vertices, 1)
    monkeypatch.setattr(dst, "PERM_BUDGET", 10)
    with pytest.raises(CapExceededError):
        nz.structural_survivors(g, f)
    monkeypatch.setattr(dst, "PERM_BUDGET", 120)
    assert len(nz.structural_survivors(g, f)) == 119


def test_two_colour_scheme_n11_scan_and_dist_number():
    g = nz.build(SpaceParams(11, 2))
    assert nz.structural_survivors(g, nz.constructive_labeling_q2(g)) == []
    result = nz.dist_number(g, nz.explicit_group(g))
    assert result.value == 2
    assert result.upper_source == "two-colour-scheme"


def test_group_scan_reads_every_row_block_n8():
    # colours constant on the vertex cycles of the last element, the
    # extension of the reversal, so it and the identity are the only
    # preservers: the scan must reach the last block of rows to see it
    g = nz.build(SpaceParams(8, 2))
    grp = nz.explicit_group(g)
    image = grp.perms[-1].tolist()
    colors = [min(v, image[v]) + 1 for v in range(g.num_vertices)]
    f = nz.Labeling(tuple(colors), g.num_vertices)
    assert nz.structural_survivors(g, f) == [tuple(range(7, -1, -1))]
    assert not nz.is_distinguishing(g, grp, f)
    assert nz.is_distinguishing(g, nz.AutGroup(g, grp.perms[:-1]), f)


def test_group_scan_finds_a_preserver_that_fixes_the_colour_prefix_n8():
    # row 1 extends the basis swap (7 8) and fixes ids 0 .. 62, the masks within
    # b1 .. b6, so it keeps the colours of every prefix column; the labeling is
    # constant on its cycles only, so it is the one preserver
    g = nz.build(SpaceParams(8, 2))
    grp = nz.aut_group_structural(g)
    swap = grp.perms[1].astype(np.int64)
    assert dst.COLOR_PREFIX <= 63 and np.array_equal(swap[:63], np.arange(63))
    cycle = np.unique(np.minimum(np.arange(g.num_vertices), swap), return_inverse=True)[1]
    f = nz.Labeling(tuple((cycle + 1).tolist()), int(cycle.max()) + 1)
    assert not nz.is_distinguishing(g, grp, f)
    assert nz.is_distinguishing(g, nz.AutGroup(g, np.delete(grp.perms, 1, 0)), f)
    # one cycle split past the prefix: the swap keeps the prefix colours, not the row's
    moved = int(np.flatnonzero(swap != np.arange(g.num_vertices))[0])
    split = list(f.colors)
    split[moved] = f.t + 1
    assert nz.is_distinguishing(g, grp, nz.Labeling(tuple(split), f.t + 1))


# a labeling of the (9,2) graph, one bit per vertex (colour - 1), most significant
# first: the colours are constant on the cycles of the extension of the 9-cycle
# SIGMA_9, and every basis vertex has colour 1 (the labelings workload at seed 11)
SIGMA_9 = (5, 6, 4, 0, 7, 1, 2, 8, 3)
COLORS_9 = ("2cd6d5a6d14b33f6f94788d51228ad44f385684fbc1015c52bfbaebae5a8e0e2"
            "db1d696fce385a670ca0c4755fd91857306048d43edd9947a7b0f0a31e1a9a2e")


def test_structural_scan_of_a_one_colour_basis_keeps_every_survivor_n9():
    # all 9! - 1 non-identity sigma reach the last level, which checks the ids
    # within b1 .. b5 before whole rows; the survivors are the powers of the cycle
    g = nz.build(SpaceParams(9, 2))
    bits = np.unpackbits(np.frombuffer(bytes.fromhex(COLORS_9), dtype=np.uint8))
    f = nz.Labeling(tuple((bits[:g.num_vertices] + 1).tolist()), 2)
    sigma = np.array(SIGMA_9)
    powers, p = [], sigma
    for _ in range(8):
        powers.append(tuple(p.tolist()))
        p = sigma[p]
    assert nz.structural_survivors(g, f) == sorted(powers)
    assert len(powers) == 8 and p.tolist() == list(range(9))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_structural_scan_prefix_fits_the_colour_prefix(n, monkeypatch):
    # the scan checks the ids within b1 .. bk first, k the largest with its
    # 2^k - 1 ids within the COLOR_PREFIX columns the group scan checks first;
    # one colour on the basis sends every sigma there, where k = 5 is the whole
    # row at n = 5 and a strict prefix past it
    k = dst.COLOR_PREFIX.bit_length() - 1
    assert k == 5 and (1 << k) - 1 <= dst.COLOR_PREFIX < (2 << k) - 1
    widths = set()

    def recorded(g, sigmas):
        widths.add(sigmas.shape[1])
        return _extend_images_batch(g, sigmas)

    monkeypatch.setattr(dst, "_extend_images_batch", recorded)
    g = nz.build(SpaceParams(n, 2))
    rng = random.Random(n)
    image = nz.extend_basis_permutation(g, rng.sample(range(n), n))
    colors = [0] * g.num_vertices
    for v in range(g.num_vertices):
        c, w = rng.randint(1, 2), v
        while not colors[w]:
            colors[w], w = c, image[w]
    colors = [1 if g.sizes[v] == 1 else c for v, c in enumerate(colors)]
    for f in [nz.Labeling(tuple(colors), 2), nz.Labeling((1,) * g.num_vertices, 1)]:
        assert nz.structural_survivors(g, f) == brute_force_survivors(g, f)
    assert widths == {k, n}


def test_engines_agree_on_random_labelings():
    import random

    rng = random.Random(5)
    for n, q in [(3, 2), (4, 2), (2, 3)]:
        g = nz.build(SpaceParams(n, q))
        grp = (nz.aut_group_structural(g) if q == 2 else nz.aut_group_oracle(g))
        for t in (2, 3):
            for _ in range(8):
                f = nz.Labeling(tuple(rng.randint(1, t) for _ in range(g.num_vertices)), t)
                expect = nz.is_distinguishing(g, grp, f)
                assert (nz.find_color_preserving(g, f) is None) == expect
                if q == 2:
                    assert (not nz.structural_survivors(g, f)) == expect


def test_labeling_rejects_colours_and_palettes_that_are_not_integers():
    # (1.5, 1, 1) at (2,2) was read as colour 1 by the group scan and the
    # structural scan, and as its own colour by the search, so they disagreed
    for colors, t, kind in [((1.5, 1, 1), 2, "float"), ((True, 2, 2), 2, "bool"),
                            (("1", 1, 1), 2, "str"), ((1, 1, None), 2, "NoneType")]:
        with pytest.raises(ValueError, match=f"^colour entry must be an integer, not {kind}$"):
            nz.Labeling(colors, t)
    for t, kind in [(2.0, "float"), (True, "bool"), ("2", "str")]:
        with pytest.raises(ValueError, match=f"^palette size must be an integer, not {kind}$"):
            nz.Labeling((1, 1, 1), t)
    f = nz.Labeling((np.int64(1), np.uint8(2), 1), np.int32(2))
    g = nz.build(SpaceParams(2, 2))
    assert nz.find_color_preserving(g, f) is None
    assert nz.is_distinguishing(g, nz.aut_group_structural(g), f)


def test_labeling_stores_a_tuple_of_ints_and_an_int():
    f = nz.Labeling([1, 2], 2)
    assert f.colors == (1, 2) and hash(f) == hash(nz.Labeling((1, 2), 2))
    assert f == nz.Labeling((1, 2), 2)
    g = nz.Labeling((np.int64(1), np.uint8(2)), np.int32(2))
    assert g == f and json.loads(json.dumps({"colors": g.colors, "t": g.t})) == {
        "colors": [1, 2], "t": 2}
    assert {type(c) for c in g.colors} == {int} and type(g.t) is int


def test_colour_preserving_search_past_the_recursion_limit():
    # one search level per vertex: 1,023 vertices used to raise RecursionError
    g = nz.build(SpaceParams(5, 4))
    assert g.num_vertices > sys.getrecursionlimit()
    f = nz.constructive_labeling_q3(g)
    assert nz.find_color_preserving(g, f) is None
    # two vertices of one twin set with the same colour can swap
    ts = next(ts for ts in g.twin_sets() if len(ts) >= 2)
    colors = list(f.colors)
    colors[ts[1]] = colors[ts[0]]
    witness = nz.find_color_preserving(g, nz.Labeling(tuple(colors), f.t))
    assert witness is not None and nz.is_automorphism(g, witness)
    assert witness != tuple(range(g.num_vertices))
    assert all(colors[w] == colors[v] for v, w in enumerate(witness))


def test_search_node_budgets(monkeypatch):
    # the path b1 - (b1+b2) - b2: the root, the centre, then two assignments
    # per end-point order, so the first non-identity leaf is node 6
    g = nz.build(SpaceParams(2, 2))
    f = nz.Labeling((1,) * g.num_vertices, 1)
    monkeypatch.setattr(sym, "NODE_BUDGET", 6)
    assert nz.find_color_preserving(g, f) == (1, 0, 2)
    assert nz.aut_group_oracle(g).order == 2
    monkeypatch.setattr(sym, "NODE_BUDGET", 5)
    with pytest.raises(CapExceededError, match="^colour-preserving search exceeded 5 nodes$"):
        nz.find_color_preserving(g, f)
    with pytest.raises(CapExceededError, match="^oracle search exceeded 5 nodes$"):
        nz.aut_group_oracle(g)


def test_exact_search_node_budget(monkeypatch):
    # (2,3), 3 colours: the search must exhaust its tree to refute them
    g = nz.build(SpaceParams(2, 3))
    grp = nz.aut_group_oracle(g)
    monkeypatch.setattr(sym, "NODE_BUDGET", 10)
    with pytest.raises(CapExceededError, match="^exact search exceeded 10 nodes$"):
        nz.exists_distinguishing_labeling(g, grp, 3)
    # dist_number falls back to the bounds when the exact search hits its cap
    r = nz.dist_number(g, grp)
    assert (r.value, r.method, r.refuted) == (4, "bounded", None)


@pytest.mark.parametrize("n, q", [(9, 2), (6, 3), (4, 5), (6, 4)])
def test_constructive_search_is_one_path_at_scale(n, q, monkeypatch):
    # the refined partition is discrete: the root plus one node per vertex
    g = nz.build(SpaceParams(n, q))
    f = nz.constructive_labeling_q2(g) if q == 2 else nz.constructive_labeling_q3(g)
    nv = g.num_vertices
    monkeypatch.setattr(sym, "NODE_BUDGET", nv + 1)
    assert nz.find_color_preserving(g, f) is None
    monkeypatch.setattr(sym, "NODE_BUDGET", nv)
    with pytest.raises(CapExceededError,
                       match=f"^colour-preserving search exceeded {nv} nodes$"):
        nz.find_color_preserving(g, f)


def _reference_exists(g, grp, t):
    """The exact search as it filtered a Python list of live group elements,
    one element at a time: (witness or None, nodes), with the same closing
    check. It counts every node and stops at none."""
    nv = g.num_vertices
    perms = grp.perms.tolist()
    invs = np.argsort(grp.perms, axis=1).tolist()
    ident = list(range(nv))
    colors = [0] * nv
    nodes = 0

    def dfs(k, live, max_used):
        nonlocal nodes
        nodes += 1
        if not live:
            return dst.Labeling(tuple(colors[:k]) + (1,) * (nv - k), t)
        if k == nv:
            return None
        for c in range(1, min(max_used + 1, t) + 1):
            colors[k] = c
            survivors = [gi for gi in live
                         if not (perms[gi][k] <= k and colors[perms[gi][k]] != c)
                         and not (invs[gi][k] <= k and colors[invs[gi][k]] != c)]
            hit = dfs(k + 1, survivors, max(max_used, c))
            if hit is not None:
                return hit
        colors[k] = 0
        return None

    found = dfs(0, [i for i, p in enumerate(perms) if p != ident], 0)
    if found is not None and not nz.is_distinguishing(g, grp, found):
        raise AssertionError("search returned a non-distinguishing witness")
    return found, nodes


def _outcome(call):
    try:
        return "returned", call()
    except AssertionError as exc:
        return "raised", str(exc)


def _search_tables():
    def group(n, q):
        g = nz.build(SpaceParams(n, q))
        return g, (nz.aut_group_structural(g) if q == 2 else nz.aut_group_oracle(g)).perms

    cases = {f"({n},{q})": group(n, q) for n, q in [(3, 2), (4, 2), (2, 3)]}
    cases.update({f"(1,{q})": group(1, q) for q in range(3, 9)})
    g, perms = group(2, 3)
    cases["(2,3) first rows"] = g, perms[:77]
    cases["(2,3) duplicated row"] = g, np.vstack([perms, perms[40:41]])
    broken = perms.copy()
    broken[33, 5] = broken[33, 6]  # two entries equal: not a permutation
    cases["(2,3) non-permutation row"] = g, broken
    return cases


SEARCH_TABLES = _search_tables()


@pytest.mark.parametrize("name", sorted(SEARCH_TABLES))
def test_bitset_search_matches_the_list_filter(name, monkeypatch):
    # same return value, the same closing check, and the same node count,
    # which the budget pins: exactly enough passes, one fewer raises
    g, perms = SEARCH_TABLES[name]
    for t in range(1, g.num_vertices + 1):
        grp = nz.AutGroup(g, perms)
        kind, ref = _outcome(lambda: _reference_exists(g, grp, t))
        if kind == "raised":
            assert _outcome(lambda: nz.exists_distinguishing_labeling(g, grp, t)) == (kind, ref)
            continue
        found, nodes = ref
        monkeypatch.setattr(sym, "NODE_BUDGET", nodes)
        assert nz.exists_distinguishing_labeling(g, grp, t) == found
        monkeypatch.setattr(sym, "NODE_BUDGET", nodes - 1)
        with pytest.raises(CapExceededError, match=f"^exact search exceeded {nodes - 1} nodes$"):
            nz.exists_distinguishing_labeling(g, grp, t)


def test_bitset_search_shares_its_column_masks_across_colour_counts():
    g = nz.build(SpaceParams(1, 6))
    grp = nz.aut_group_oracle(g)
    assert nz.exists_distinguishing_labeling(g, grp, 4) is None
    masks = {k: grp.column_masks(k) for k in range(g.num_vertices)}
    assert nz.exists_distinguishing_labeling(g, grp, 5) is not None
    assert all(grp.column_masks(k) is masks[k] for k in masks)
    # entry u < k: the rows that map k to u; entry k: those that map k to k or above
    fwd, inv = masks[2]
    rows = grp.perms[:, 2].tolist()
    assert fwd == tuple(sum(1 << i for i, x in enumerate(rows) if x == u) for u in (0, 1)) + (
        sum(1 << i for i, x in enumerate(rows) if x >= 2),)
    rows = np.argsort(grp.perms, axis=1)[:, 2].tolist()
    assert inv[0] == sum(1 << i for i, x in enumerate(rows) if x == 0)
