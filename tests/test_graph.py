"""Graph construction, degrees, twin sets, separating-pair counts."""

import json
import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest

import nzcgraph as nz
from nzcgraph import SpaceParams, UnsupportedFieldError
from nzcgraph import graph as gr
from nzcgraph import serialize
from nzcgraph import vectorspace as vs


def brute_adjacent(u, v):
    """Independent adjacency oracle straight from the coefficient tuples."""
    return u != v and any(a and b for a, b in zip(u, v))


def test_n2_q2_is_path():
    g = nz.build(SpaceParams(2, 2))
    # b1 - (b1+b2) - b2, with b1 not adjacent to b2
    assert g.num_vertices == 3
    assert g.adjacency_matrix()[2, 0] and g.adjacency_matrix()[2, 1]
    assert not g.adjacency_matrix()[1, 0]
    assert g.degree(2) == 2


def test_full_skeleton_vertex_adjacent_to_all():
    g = nz.build(SpaceParams(3, 2))
    assert g.num_vertices == 7
    top = g.t_classes()[3][0]
    assert g.degree(top) == 6


def test_adjacency_matches_brute_force():
    for n, q in [(3, 2), (4, 2), (2, 3), (3, 3)]:
        g = nz.build(SpaceParams(n, q))
        for u in range(g.num_vertices):
            for v in range(g.num_vertices):
                assert g.adjacency_matrix()[v, u] == brute_adjacent(g.vertices[u], g.vertices[v])


def test_edge_count_n3_q2():
    g = nz.build(SpaceParams(3, 2))
    brute = sum(1 for u, v in combinations(range(7), 2)
                if brute_adjacent(g.vertices[u], g.vertices[v]))
    assert brute == 15
    assert g.edge_count() == 15
    assert len(g.edges()) == 15


def test_degree_examples():
    g = nz.build(SpaceParams(4, 2))
    for v in g.t_classes()[3]:
        assert g.degree(v) == 13  # (2^3 - 1) * 2^(4-3) - 1

    g = nz.build(SpaceParams(2, 3))
    for v in g.t_classes()[1]:
        # brute-force count over all 8 vertices
        want = sum(1 for u in range(g.num_vertices)
                   if brute_adjacent(g.vertices[u], g.vertices[v]))
        assert want == 5
        assert g.degree(v) == 5


def test_degree_out_of_range():
    g = nz.build(SpaceParams(2, 2))
    with pytest.raises(IndexError):
        g.degree(3)
    with pytest.raises(IndexError):
        g.degree(-1)


@pytest.mark.parametrize("v, kind", [(True, "bool"), (False, "bool"), (1.0, "float"),
                                     ("1", "str"), (None, "NoneType")])
def test_degree_refuses_a_vertex_that_is_not_an_integer(v, kind):
    # a bool was read as the id 0 or 1, a float raised numpy's indexing error
    g = nz.build(SpaceParams(3, 2))
    with pytest.raises(ValueError, match=f"^vertex must be an integer, not {kind}$"):
        g.degree(v)


def test_degrees_count_the_matrix_once_and_are_read_only(monkeypatch):
    g = nz.build(SpaceParams(3, 2))
    calls = []
    count = gr._degree_counts
    monkeypatch.setattr(gr, "_degree_counts", lambda a: calls.append(1) or count(a))
    want = g.adjacency_matrix().sum(axis=1)
    assert g.degrees().dtype == np.int64 and np.array_equal(g.degrees(), want)
    assert [g.degree(v) for v in range(g.num_vertices)] == want.tolist()
    assert g.degree(np.int64(6)) == g.degree(np.uint8(6)) == 6
    assert nz.check_degree_formula(g).passed and nz.check_degree_formula_general(g).passed
    serialize.graph_to_table(g)
    assert len(calls) == 1
    with pytest.raises(ValueError):
        g.degrees()[0] = 0


def test_check_degree_formula():
    assert nz.check_degree_formula(nz.build(SpaceParams(3, 2))).passed
    assert nz.check_degree_formula(nz.build(SpaceParams(8, 2))).passed
    with pytest.raises(UnsupportedFieldError):
        nz.check_degree_formula(nz.build(SpaceParams(3, 3)))
    # the generalized form is exposed separately and works for any q
    rep = nz.check_degree_formula_general(nz.build(SpaceParams(3, 3)))
    assert rep.passed and rep.details["derived"]


def test_twin_sets_n2_q2_all_singletons():
    g = nz.build(SpaceParams(2, 2))
    assert all(len(ts) == 1 for ts in g.twin_sets())
    assert len(g.twin_sets()) == 3


def test_twin_sets_n2_q3():
    g = nz.build(SpaceParams(2, 3))
    sizes = sorted(len(ts) for ts in g.twin_sets())
    assert sizes == [2, 2, 4]


def test_twin_sets_n3_q3():
    g = nz.build(SpaceParams(3, 3))
    sizes = sorted(len(ts) for ts in g.twin_sets())
    assert sizes == [2, 2, 2, 4, 4, 4, 8]
    assert len(g.twin_sets()) == comb(3, 1) + comb(3, 2) + comb(3, 3)


def test_twin_partition_matches_neighborhood_oracle():
    for n, q in [(2, 2), (4, 2), (2, 3), (3, 3), (2, 4)]:
        g = nz.build(SpaceParams(n, q))
        by_skel = sorted(g.twin_sets(), key=lambda ts: (len(ts), ts))
        assert by_skel == nz.twin_partition_by_neighborhood(g)
        assert nz.check_twin_structure(g).passed


def test_pair_count_examples():
    g = nz.build(SpaceParams(4, 2))
    assert nz.count_distinguishing_pairs(g, 1, 2, 2) == 2  # C(3,1) - C(2,0)

    g = nz.build(SpaceParams(3, 2))
    assert nz.count_distinguishing_pairs(g, 1, 2, 1) == 1  # only b_l itself

    # independent oracle: enumerate all C(5,3) = 10 skeletons directly
    g = nz.build(SpaceParams(5, 2))
    brute = sum(1 for s in combinations(range(1, 6), 3) if 2 in s and 4 not in s)
    assert brute == 3
    assert nz.count_distinguishing_pairs(g, 2, 4, 3) == 3


def test_pair_count_preconditions():
    g = nz.build(SpaceParams(4, 2))
    with pytest.raises(ValueError):
        nz.count_distinguishing_pairs(g, 1, 1, 2)
    with pytest.raises(ValueError):
        nz.count_distinguishing_pairs(g, 1, 2, 4)  # i must be <= n-1
    with pytest.raises(UnsupportedFieldError):
        nz.count_distinguishing_pairs(nz.build(SpaceParams(3, 3)), 1, 2, 1)


def test_pair_count_formula_sweep():
    for n in range(3, 11):
        assert nz.check_pair_counts(nz.build(SpaceParams(n, 2))).passed


def test_vertices_in_canonical_order():
    g = nz.build(SpaceParams(3, 3))
    assert g.vertices == [vs.vector_from_id(g.params, v) for v in range(g.num_vertices)]


def test_edges_match_skeleton_reference_in_order():
    for n, q in [(3, 2), (4, 2), (5, 2), (6, 2), (2, 3), (3, 3), (4, 3)]:
        g = nz.build(SpaceParams(n, q))
        want = [[v, u] for v, u in combinations(range(g.num_vertices), 2)
                if g.skeletons[v] & g.skeletons[u]]
        got = g.edges()
        assert got.tolist() == want
        assert got.shape == (len(want), 2) and got.dtype == gr._vertex_dtype(g.num_vertices)
    # the row-block kernel against the dense reference: one block at (1,2) and
    # (2,2), 32 blocks of 64 rows at (11,2), 38 of 59 rows at (7,3)
    for n, q in [(1, 2), (2, 2), (7, 3)]:
        _assert_edges_are_the_dense_reference(nz.build(SpaceParams(n, q)))
    g = nz.build(SpaceParams(11, 2))
    assert gr._row_step(g.num_vertices) == 64
    _assert_edges_are_the_dense_reference(g)
    # on corrupted matrices too, each flip in or next to block 1 (rows 64..127):
    # a non-edge set only below the diagonal, a diagonal entry, an edge
    # cleared only above the diagonal just across the block boundary, and
    # one cleared only below it
    assert not g.adjacency_matrix()[127, 64] and g.adjacency_matrix()[64, 63]
    for flips in [((127, 64),), ((64, 64),), ((63, 64),), ((64, 63),)]:
        _assert_edges_are_the_dense_reference(_corrupted(g, flips))


def _assert_edges_are_the_dense_reference(g):
    got = g.edges()
    assert np.array_equal(got, np.argwhere(np.triu(g.adjacency_matrix(), 1)))
    assert got.dtype == gr._vertex_dtype(g.num_vertices) and got.flags.c_contiguous


def test_skeleton_intersections_across_row_blocks():
    # 2,047 vertices take 32 row blocks of 64 rows; each tampered row is past the first
    g = nz.build(SpaceParams(11, 2))
    assert gr._row_step(g.num_vertices) == 64
    assert gr._skeleton_mismatch(g.adjacency_matrix(), g.skeletons) is None
    assert gr.check_adjacency_invariants(g).passed
    s = g.skeletons
    v = 200
    u = int(np.flatnonzero(s & s[v] == 0)[-1])  # a non-neighbour of v in a later block
    assert u > v + 64 and not g.adjacency_matrix()[v, u]
    cases = {
        ((v, u), (u, v)): [f"row {v} does not match skeleton intersections"],
        ((u, v),): ["adjacency matrix is not symmetric",
                    f"row {u} does not match skeleton intersections"],
        ((v, v),): [f"vertex {v} adjacent to itself",
                    f"row {v} does not match skeleton intersections"],
    }
    for flips, failures in cases.items():
        assert gr.check_adjacency_invariants(_corrupted(g, flips)).failures == failures
    # the re-import compares block by block too: one edge swapped for a non-edge
    data = serialize.graph_to_dict(g)
    edges = data["edges"].copy()
    k = int(np.flatnonzero(edges[:, 0] == v)[0])
    edges[k] = v, u
    data["edges"] = edges
    with pytest.raises(ValueError, match="^edge list is not the skeleton-intersection graph"):
        serialize.graph_from_dict(data)


def _mismatch_int64(m, skeletons):
    """The row-block comparison of _skeleton_mismatch on int64 masks: the
    reference for its narrow-dtype kernel."""
    s = np.asarray(skeletons, dtype=np.int64)
    step = gr._row_step(len(s))
    for lo in range(0, len(s), step):
        want = (s[lo:lo + step, None] & s) != 0
        want[np.arange(len(want)), np.arange(lo, lo + len(want))] = False
        bad = (m[lo:lo + step] != want).any(axis=1)
        if bad.any():
            return lo + int(bad.argmax())
    return None


def test_skeleton_mismatch_in_narrow_masks_is_the_int64_reference():
    rng = np.random.default_rng(7)
    cases = []
    for n, q in [(11, 2), (7, 3)]:
        g = nz.build(SpaceParams(n, q))
        cases.append((g.adjacency_matrix(), g.skeletons))
    # 600 masks of 16 bits, each with bit 15 and a seeded lower part, so
    # every pair meets in bit 15 alone or also below it
    s = (1 << 15) | rng.integers(0, 1 << 15, 600)
    s[::7] = 1 << 15
    want = (s[:, None] & s) != 0
    np.fill_diagonal(want, False)
    cases.append((want, s))
    for m, s in cases:
        assert gr._skeleton_mismatch(m, s) is None
        for _ in range(6):
            bad = m.copy()
            for v, u in rng.integers(len(m) // 3, len(m), (int(rng.integers(1, 4)), 2)):
                bad[v, u] = not bad[v, u]
            assert gr._skeleton_mismatch(bad, s) == _mismatch_int64(bad, s) is not None
        for v, u in rng.integers(0, len(s), (6, 2)):  # two masks exchanged instead
            swapped = s.copy()
            swapped[[v, u]] = swapped[[u, v]]
            assert gr._skeleton_mismatch(m, swapped) == _mismatch_int64(m, swapped)


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated, as tracemalloc saw them."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_adjacency_checks_make_no_second_matrix():
    # (11,2): |V|^2 is 4 MiB; the re-import holds its own matrix plus blocks
    g = nz.build(SpaceParams(11, 2))
    cells = g.num_vertices ** 2
    report, peak = _traced_peak(gr.check_adjacency_invariants, g)
    # 64-row blocks of uint16 masks: the block's & is 0.25 MiB, where int64 took 1 MiB
    assert report.passed and peak < 0.75 * 2**20
    data = serialize.graph_to_dict(g)
    back, peak = _traced_peak(serialize.graph_from_dict, data)
    assert serialize.graphs_equal(g, back) and peak < 3 * cells


def test_edge_array_is_the_only_per_edge_allocation():
    # (11,2): 2,007,555 edges, 4 bytes each as uint16 pairs
    g = nz.build(SpaceParams(11, 2))
    edges, peak = _traced_peak(g.edges)
    assert len(edges) == g.edge_count() == 2_007_555 and edges.dtype == np.uint16
    assert peak <= 4 * len(edges) + 2**20


@pytest.mark.parametrize("n, q", [(8, 2), (1, 257), (1, 258)])
def test_edges_at_the_vertex_dtype_boundaries(n, q):
    # 255, 256 and 257 vertices: uint8 ids, the last uint8 id 255, then uint16;
    # a flat index v * nv + u taken in the edge dtype would wrap at each of them
    g = nz.build(SpaceParams(n, q))
    edges = g.edges()
    assert edges.dtype == gr._vertex_dtype(g.num_vertices)
    assert edges.dtype == (np.uint8 if g.num_vertices <= 256 else np.uint16)
    assert np.array_equal(edges, np.argwhere(np.triu(g.adjacency_matrix(), 1)))
    data = serialize.graph_to_dict(g)
    assert serialize.graphs_equal(g, serialize.graph_from_dict(data))
    data["edges"] = data["edges"].tolist()
    assert serialize.graph_to_json(g) == json.dumps(data, indent=2) + "\n"


def _corrupted(g, flips):
    """Copy of g with the listed adjacency entries (v, u) of row v flipped."""
    m = g.adjacency_matrix().copy()
    for v, u in flips:
        m[v, u] = not m[v, u]
    return nz.NzcGraph(g.params, g.vertices, g.skeletons, m)


def test_adjacency_invariants_report_corruptions():
    g = nz.build(SpaceParams(4, 2))
    assert gr.check_adjacency_invariants(g).passed
    assert not g.adjacency_matrix()[7, 6] and g.adjacency_matrix()[14, 13]
    cases = {
        ((9, 9),): ["vertex 9 adjacent to itself",
                    "row 9 does not match skeleton intersections"],
        ((3, 3), (12, 12)): ["vertex 3 adjacent to itself", "vertex 12 adjacent to itself",
                             "row 3 does not match skeleton intersections"],
        ((6, 7),): ["adjacency matrix is not symmetric",
                    "row 6 does not match skeleton intersections"],
        ((13, 14), (14, 13)): ["row 13 does not match skeleton intersections"],
    }
    for flips, failures in cases.items():
        rep = gr.check_adjacency_invariants(_corrupted(g, flips))
        assert rep.status == "fail"
        assert rep.failures == failures


def test_graph_rejects_a_matrix_that_is_not_square_on_the_vertices():
    g = nz.build(SpaceParams(4, 2))
    m = g.adjacency_matrix()
    for bad in (np.zeros((15, 16), dtype=bool), np.zeros((16, 15), dtype=bool),
                np.zeros((16, 16), dtype=bool), m[:, 0], m[None]):
        with pytest.raises(ValueError, match=r"^adjacency matrix has shape \(.*\), "
                                             r"expected \(15, 15\)$"):
            nz.NzcGraph(g.params, g.vertices, g.skeletons, bad)
    copy = nz.NzcGraph(g.params, g.vertices, g.skeletons, m.astype(np.uint8))
    assert copy.adjacency_matrix().dtype == bool and not copy.adjacency_matrix().flags.writeable
    assert (copy.adjacency_matrix() == m).all()


def test_graph_owns_read_only_skeleton_and_size_arrays():
    g = nz.build(SpaceParams(3, 3))
    assert g.skeletons.dtype == np.int64 and g.sizes.dtype == np.int64
    assert not g.skeletons.flags.writeable and not g.sizes.flags.writeable
    masks = [nz.skeleton(v) for v in g.vertices]
    assert g.skeletons.tolist() == masks
    assert g.sizes.tolist() == [bin(s).count("1") for s in masks]
    for bad in (g.skeletons[:-1], g.skeletons[None], [masks[0]] * 27):
        with pytest.raises(ValueError, match=r"^skeleton array has shape \(.*\), "
                                             r"expected \(26,\)$"):
            nz.NzcGraph(g.params, g.vertices, bad, g.adjacency_matrix())
    mine = np.array(masks)
    copy = nz.NzcGraph(g.params, g.vertices, mine, g.adjacency_matrix())
    mine[0] = 7  # the graph keeps its own masks, so its sizes stay in step
    assert copy.skeletons.tolist() == masks and not copy.skeletons.flags.writeable
    assert copy.t_classes() == g.t_classes() and copy.twin_sets() == g.twin_sets()


def test_check_report_of_puts_n_and_q_first_and_passes_iff_no_failures():
    g = nz.build(SpaceParams(2, 3))
    report = nz.CheckReport.of(g, "claim", "statement", 4, [], order=6, mode="x")
    assert list(report.params.items()) == [("n", 2), ("q", 3), ("order", 6), ("mode", "x")]
    assert report.status == "pass" and report.passed
    assert "details" not in report.to_dict()
    failed = nz.CheckReport.of(g, "claim", "statement", 4, ["wrong"], {"k": 1})
    assert failed.status == "fail" and not failed.passed
    assert failed.params == {"n": 2, "q": 3}
    assert failed.to_dict()["details"] == {"k": 1}
