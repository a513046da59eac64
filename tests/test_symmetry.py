"""Automorphism engines, group machinery, and the structural property checks."""

import itertools
import random
import re
import tracemalloc
from math import comb, factorial

import numpy as np
import pytest

import nzcgraph as nz
from nzcgraph import SpaceParams, UnsupportedFieldError
from nzcgraph.errors import CapExceededError
from nzcgraph import graph as gr
from nzcgraph import symmetry as sym
from nzcgraph.graph import _refinement_basis, mask_bits
from nzcgraph.symmetry import _refine_by_neighbors, _sample_permutations
from nzcgraph.vectorspace import basis_vector


def vid(g, coeffs):
    return nz.vector_id(g.params, coeffs)


def test_extend_identity():
    g = nz.build(SpaceParams(3, 2))
    a = nz.extend_basis_permutation(g, (0, 1, 2))
    assert isinstance(a, np.ndarray) and a.dtype == np.int64
    assert (a == np.arange(g.num_vertices)).all()


def test_extend_swap_n3():
    g = nz.build(SpaceParams(3, 2))
    a = nz.extend_basis_permutation(g, (1, 0, 2))  # swap b1, b2
    assert a[vid(g, (1, 0, 1))] == vid(g, (0, 1, 1))  # b1+b3 -> b2+b3
    assert a[vid(g, (0, 0, 1))] == vid(g, (0, 0, 1))  # b3 fixed
    assert a[vid(g, (1, 1, 1))] == vid(g, (1, 1, 1))  # full skeleton fixed


def test_extend_rejects_q3():
    g = nz.build(SpaceParams(2, 3))
    with pytest.raises(UnsupportedFieldError):
        nz.extend_basis_permutation(g, (1, 0))


def test_six_distinct_extensions_n3():
    g = nz.build(SpaceParams(3, 2))
    images = {nz.extend_basis_permutation(g, s).tobytes()
              for s in itertools.permutations(range(3))}
    assert len(images) == 6


def test_restrict_round_trip_n4():
    g = nz.build(SpaceParams(4, 2))
    for s in itertools.permutations(range(4)):
        assert sym.restrict_to_basis(nz.extend_basis_permutation(g, s), g) == s


def test_restrict_of_oracle_automorphisms():
    g = nz.build(SpaceParams(3, 2))
    oracle = nz.aut_group_oracle(g)
    sigmas = {sym.restrict_to_basis(a, g) for a in oracle.perms}
    assert sigmas == set(itertools.permutations(range(3)))


def test_structural_group_orders():
    for n in (1, 3, 4):
        g = nz.build(SpaceParams(n, 2))
        grp = nz.aut_group_structural(g)
        assert grp.order == factorial(n)
        assert grp.check_group_axioms().passed


def test_structural_rejects_q3():
    with pytest.raises(UnsupportedFieldError):
        nz.aut_group_structural(nz.build(SpaceParams(3, 3)))


def test_oracle_p3():
    g = nz.build(SpaceParams(2, 2))
    oracle = nz.aut_group_oracle(g)
    assert oracle.order == 2  # the path on 3 vertices has a single flip


def test_oracle_equals_structural():
    for n in (2, 3, 4):
        g = nz.build(SpaceParams(n, 2))
        assert nz.aut_group_structural(g).set_equal(nz.aut_group_oracle(g))


def test_oracle_192_for_2_3():
    g = nz.build(SpaceParams(2, 3))
    oracle = nz.aut_group_oracle(g)
    assert oracle.order == 192  # 2! * (2!)^2 * 4!
    assert oracle.check_group_axioms().passed
    # every element is genuinely an automorphism
    assert all(nz.is_automorphism(g, a) for a in oracle.perms)


def test_oracle_vertex_cap(monkeypatch):
    g = nz.build(SpaceParams(3, 3))
    monkeypatch.setattr(sym, "ORACLE_VERTEX_CAP", 10)
    with pytest.raises(CapExceededError, match="^oracle supports up to 10 vertices, got 26$"):
        nz.aut_group_oracle(g)


def test_oracle_group_budget_guard(monkeypatch):
    # (2,4) has >= 9! automorphisms from its 9-vertex twin set alone
    g = nz.build(SpaceParams(2, 4))
    with pytest.raises(CapExceededError, match="group order is at least 13063680, enumeration budget is 40320"):
        nz.aut_group_oracle(g)
    # (2,3): the twin floor 2! * 2! * 4! = 96 passes a budget of 100, the
    # enumeration of all 192 elements does not
    monkeypatch.setattr(sym, "GROUP_BUDGET", 100)
    with pytest.raises(CapExceededError, match="^oracle found more than 100 automorphisms$"):
        nz.aut_group_oracle(nz.build(SpaceParams(2, 3)))


# the oracle's groups on every input it admits: (1..5,2), (2,3) and (1,3..9)
ORACLE_ORDERS = {(1, 2): 1, (2, 2): 2, (3, 2): 6, (4, 2): 24, (5, 2): 120, (2, 3): 192,
                 (1, 3): 2, (1, 4): 6, (1, 5): 24, (1, 6): 120, (1, 7): 720, (1, 8): 5040,
                 (1, 9): 40320}


def test_oracle_traffic_fits_the_group_and_node_budgets(monkeypatch):
    # the 49 inputs within the oracle's vertex cap: 13 groups, the largest at
    # exactly GROUP_BUDGET, and 36 refusals at a twin floor of at least 9!, so
    # no admitted input tells the oracle's own element count from the budget
    admitted = [(n, q) for q in range(2, sym.ORACLE_VERTEX_CAP + 2) for n in range(1, 6)
                if q**n - 1 <= sym.ORACLE_VERTEX_CAP]
    assert len(admitted) == 49 and set(ORACLE_ORDERS) <= set(admitted)
    assert ORACLE_ORDERS[1, 9] == sym.GROUP_BUDGET
    graphs = {key: nz.build(SpaceParams(*key)) for key in admitted}
    refusal = f"^group order is at least ([0-9]+), enumeration budget is {sym.GROUP_BUDGET}$"
    for key, g in graphs.items():
        if key in ORACLE_ORDERS:
            assert nz.aut_group_oracle(g).order == ORACLE_ORDERS[key]
            continue
        with pytest.raises(CapExceededError, match=refusal) as err:
            nz.aut_group_oracle(g)
        assert int(re.match(refusal, str(err.value))[1]) >= factorial(9)
    # the largest run, (1,9), takes about 110,000 nodes: a tenth of the budget still fits
    monkeypatch.setattr(sym, "NODE_BUDGET", sym.NODE_BUDGET // 10)
    for key, order in ORACLE_ORDERS.items():
        assert nz.aut_group_oracle(graphs[key]).order == order


@pytest.mark.parametrize("n, q, order", [(1, 2, 1), (3, 2, 6), (8, 2, 40320), (9, 2, None),
                                         (10, 2, None), (2, 3, 192), (3, 3, None),
                                         (2, 4, None), (2, 5, None)])
def test_explicit_group_policy(n, q, order):
    # q = 2: the structural group up to 8! elements; q >= 3: the oracle group
    # where its vertex cap and twin floor allow, which is only (2,3)
    g = nz.build(SpaceParams(n, q))
    grp = nz.explicit_group(g)
    assert (None if grp is None else grp.order) == order
    if grp is not None:
        assert grp.source == ("structural" if q == 2 else "oracle")


def test_explicit_group_caps(monkeypatch):
    g = nz.build(SpaceParams(2, 3))
    monkeypatch.setattr(sym, "ORACLE_VERTEX_CAP", 8)
    assert nz.explicit_group(g).order == 192
    monkeypatch.setattr(sym, "ORACLE_VERTEX_CAP", 7)
    assert nz.explicit_group(g) is None
    g = nz.build(SpaceParams(3, 2))
    monkeypatch.setattr(sym, "GROUP_BUDGET", 5)  # 3! = 6 elements
    assert nz.explicit_group(g) is None
    with pytest.raises(CapExceededError, match="^structural group has 6 elements, budget is 5$"):
        nz.aut_group_structural(g)


def test_extension_isomorphism_exhaustive_n3():
    g = nz.build(SpaceParams(3, 2))
    rep = nz.check_extension_isomorphism(g, nz.aut_group_structural(g), nz.aut_group_oracle(g))
    assert rep.passed
    assert rep.details["mode"] == "exhaustive"
    assert rep.details["pairs_checked"] == 36


def test_extension_isomorphism_sampled_n5():
    g = nz.build(SpaceParams(5, 2))
    rep = nz.check_extension_isomorphism(g, nz.aut_group_structural(g), nz.aut_group_oracle(g),
                                         seed=11)
    assert rep.passed
    assert rep.details["pairs_checked"] == 1000


def test_extension_isomorphism_samples_are_seeded_permutations(monkeypatch):
    g = nz.build(SpaceParams(6, 2))
    grp = nz.aut_group_structural(g)
    monkeypatch.setattr(sym, "EXTENSION_PAIRS", 50)
    reports = [nz.check_extension_isomorphism(g, grp, None, seed=seed).to_dict()
               for seed in (4, 4, 5)]
    assert reports[0] == reports[1] == reports[2]
    assert (reports[0]["checked"], reports[0]["details"]) == (
        50, {"mode": "sampled", "pairs_checked": 50, "distinct_extensions": 720,
             "oracle_order": None})
    drawn = _sample_permutations(6, 100, 4)
    assert drawn.shape == (100, 6)
    assert all(nz.symmetry.is_permutation(row, 6) for row in drawn)
    assert (drawn == _sample_permutations(6, 100, 4)).all()
    assert not (drawn == _sample_permutations(6, 100, 5)).all()


def test_composition_convention():
    g = nz.build(SpaceParams(3, 2))
    h1, h2 = (1, 0, 2), (0, 2, 1)
    assert tuple(np.take(h1, h2)) == (1, 2, 0)  # h1 o h2 = h1[h2]: apply h2 first
    lhs = nz.extend_basis_permutation(g, np.take(h1, h2))
    rhs = nz.extend_basis_permutation(g, h1)[nz.extend_basis_permutation(g, h2)]
    assert (lhs == rhs).all()


def test_orbits_are_classes_n3():
    g = nz.build(SpaceParams(3, 2))
    grp = nz.aut_group_structural(g)
    got = sorted(tuple(sorted(o)) for o in grp.orbits())
    want = sorted(tuple(sorted(c)) for c in g.t_classes().values())
    assert got == want
    # orbit of b1 is the basis class; the full-skeleton vertex is alone
    assert set(grp.orbit_of(0)) == set(g.t_classes()[1])
    assert grp.orbit_of(6) == (6,)


def test_trivial_group_has_empty_moved_set():
    g = nz.build(SpaceParams(2, 2))
    trivial = nz.AutGroup(g, np.arange(3).reshape(1, 3))
    assert trivial.moved_set() == ()
    assert (trivial.orbit_sizes() - 1).sum() == 0  # no same-orbit ordered pairs
    assert all(len(o) == 1 for o in trivial.orbits())


def test_stabilizer_and_orbit_stabilizer_identity():
    g = nz.build(SpaceParams(4, 2))
    grp = nz.aut_group_structural(g)
    for v in range(g.num_vertices):
        stab = grp.stabilizer(v)
        assert (stab.perms[:, v] == v).all()
        assert len(grp.orbit_of(v)) * stab.order == grp.order
    assert nz.check_orbit_stabilizer(grp).passed


def test_moved_set_and_pairs_n3():
    g = nz.build(SpaceParams(3, 2))
    grp = nz.aut_group_structural(g)
    assert grp.moved_set() == (0, 1, 2, 3, 4, 5)  # all but the top vertex
    # same-orbit ordered pairs u != v: sum of |o|(|o| - 1), i.e. |o| - 1 per vertex
    assert (grp.orbit_sizes() - 1).sum() == 12  # two orbits of size 3, ordered pairs


def test_structure_property_checks():
    for n in (3, 4):
        g = nz.build(SpaceParams(n, 2))
        grp = nz.aut_group_structural(g)
        assert nz.check_automorphism_structure(g, grp).passed
    g = nz.build(SpaceParams(2, 3))
    assert nz.check_automorphism_structure(g, nz.aut_group_oracle(g)).passed


def _structure_failures(g, row):
    """Failures of the structure check on the group {identity, row}."""
    ident = np.arange(g.num_vertices)
    return nz.check_automorphism_structure(g, nz.AutGroup(g, [ident, row])).failures


def test_structure_check_reports_transport_and_moves_two_failures():
    # (3,2): exchange {b1,b2} (id 2) and {b1,b3} (id 4) with the basis fixed
    g = nz.build(SpaceParams(3, 2))
    row = np.arange(g.num_vertices)
    row[[2, 4]] = 4, 2
    assert _structure_failures(g, row) == [
        "element 1: b2 in S_u - S_v but image not in S_v - S_u",
        "element 1: b3 in S_u - S_v but image not in S_v - S_u",
        "element 1: non-identity but moves 0 basis vertices",
    ]


def test_structure_check_reports_maps_across_classes():
    # (3,2): exchange b1 (id 0, class 1) and {b1,b2} (id 2, class 2)
    g = nz.build(SpaceParams(3, 2))
    row = np.arange(g.num_vertices)
    row[[0, 2]] = 2, 0
    assert _structure_failures(g, row) == [
        "element 1 maps across skeleton-size classes",
        "element 1: basis twin set image is not a basis twin set",
        "element 1: basis vertex leaves the basis class",
    ]


def test_nonidentity_moves_two_basis_vertices_n4():
    g = nz.build(SpaceParams(4, 2))
    basis_ids = [vid(g, basis_vector(g.params, i)) for i in range(1, 5)]
    for a in nz.aut_group_structural(g).perms:
        if (a != np.arange(g.num_vertices)).any():
            assert sum(1 for b in basis_ids if a[b] != b) >= 2


def test_extension_rejects_non_automorphisms():
    g = nz.build(SpaceParams(2, 2))
    assert not nz.is_automorphism(g, (0, 0, 1))  # not a bijection
    assert not nz.is_automorphism(g, (2, 1, 0))  # degree-1 vertex onto the centre
    assert g.adjacency_matrix().tolist() == [[False, False, True], [False, False, True],
                                             [True, True, False]]
    no_12 = [[False, False, True], [False, False, False], [True, False, False]]
    dropped = nz.NzcGraph(g.params, g.vertices, g.skeletons, no_12)  # edge 1-2 gone
    with pytest.raises(ValueError, match="^image is not an adjacency-preserving "
                                         "permutation of the vertex ids$"):
        nz.extend_basis_permutation(dropped, (1, 0))


def test_extension_rejects_maps_across_skeleton_classes():
    g = nz.build(SpaceParams(2, 2))
    assert g.skeletons.tolist() == [1, 2, 3]
    swapped = nz.NzcGraph(g.params, g.vertices, [1, 3, 2],
                          g.adjacency_matrix())  # b2 and b1+b2 mislabelled
    with pytest.raises(ValueError, match="^vertex 0 mapped across skeleton-size classes to 1$"):
        nz.extend_basis_permutation(swapped, (1, 0))


def _transpositions(n):
    """The C(n, 2) basis transpositions (l m), l < m, in np.triu_indices order."""
    l, m = np.triu_indices(n, 1)
    sigmas = np.tile(np.arange(n), (len(l), 1))
    sigmas[np.arange(len(l)), l], sigmas[np.arange(len(l)), m] = m, l
    return sigmas


def _outcome(call):
    try:
        return call().tolist()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _narrowest(n):
    """The dtype of the (n, 2) image rows: one byte per entry up to 255 vertices."""
    return np.uint8 if n <= 8 else np.uint16


@pytest.mark.parametrize("n", range(1, 13))
def test_transposition_extensions_are_the_extensions_row_for_row(n):
    g = nz.build(SpaceParams(n, 2))
    rows = sym.transposition_extensions(g)
    assert rows.dtype == _narrowest(n) and rows.shape == (comb(n, 2), g.num_vertices)
    assert np.array_equal(rows, nz.extend_basis_permutation(g, _transpositions(n)))


def _corrupted(n, flips=(), swap=()):
    """The (n, 2) graph with each vertex pair of `flips` flipped in the matrix
    and the skeletons of the vertices `swap` exchanged."""
    g = nz.build(SpaceParams(n, 2))
    a, s = g.adjacency_matrix().copy(), g.skeletons.copy()
    for u, v in flips:
        a[u, v] = a[v, u] = not a[u, v]
    s[list(swap)] = s[list(swap)[::-1]]
    return nz.NzcGraph(g.params, g.vertices, s, a)


# ids are masks - 1: 3 is b3, 30 is b1 + .. + b5, 31 is b6 and 62 holds every b_i
CORRUPTED = {
    "dropped_2": lambda: _corrupted(2, flips=[(1, 2)]),
    "dropped_4": lambda: _corrupted(4, flips=[(0, 2)]),
    "dropped_6_late": lambda: _corrupted(6, flips=[(47, 55)]),
    "added_5": lambda: _corrupted(5, flips=[(0, 1)]),
    "swapped_2": lambda: _corrupted(2, swap=(1, 2)),
    "swapped_4": lambda: _corrupted(4, swap=(0, 6)),
    "swapped_5": lambda: _corrupted(5, swap=(2, 7)),
    "swapped_6_late": lambda: _corrupted(6, swap=(31, 62)),
    # (1 3) maps b1 across classes; (1 6), a later row, breaks adjacency
    "classes_then_adjacency": lambda: _corrupted(6, flips=[(30, 31)], swap=(3, 62)),
    # (1 6) is the first row to fail, on both counts
    "adjacency_and_classes": lambda: _corrupted(6, flips=[(30, 31)], swap=(31, 62)),
}


@pytest.mark.parametrize("name", CORRUPTED)
def test_transposition_extensions_refuse_as_the_matrix_check_does(name):
    g = CORRUPTED[name]()
    want = _outcome(lambda: nz.extend_basis_permutation(g, _transpositions(g.params.n)))
    assert want.startswith("ValueError: ")
    assert _outcome(lambda: sym.transposition_extensions(g)) == want


def _identity(row):
    row[:] = np.arange(len(row))  # an automorphism, but not the derived one


def _exchange(row):
    row[[0, 2]] = row[[2, 0]]  # the images of b1 and b1 + b2: not an automorphism


@pytest.mark.parametrize("edit", [_identity, _exchange])
@pytest.mark.parametrize("sigma", [(1, 0, 2, 3, 4), (0, 2, 1, 3, 4), (0, 1, 2, 4, 3),
                                   (3, 1, 2, 0, 4), (0, 4, 2, 3, 1), (1, 2, 3, 4, 0)],
                         ids=["checked", "adjacent", "last-adjacent", "derived",
                              "last-derived", "cycle"])
def test_a_row_unlike_its_derivation_gets_the_matrix_check(monkeypatch, sigma, edit):
    g = nz.build(SpaceParams(5, 2))
    extend = sym._extend_images_batch

    def corrupted(graph, sigmas):
        images = extend(graph, sigmas)
        for k in np.flatnonzero((np.asarray(sigmas) == sigma).all(axis=1)):
            edit(images[k])
        return images

    monkeypatch.setattr(sym, "_extend_images_batch", corrupted)
    row = sym._extend_images_batch(g, np.array([sigma]))
    got = _outcome(lambda: sym.transposition_extensions(g))
    assert got == _outcome(lambda: nz.extend_basis_permutation(g, _transpositions(5)))
    if sigma == (1, 2, 3, 4, 0):  # the cycle proves rows but is not one of them
        assert got == extend(g, _transpositions(5)).tolist()
    else:
        assert isinstance(got, str) != bool(sym._automorphism_rows(g, row)[0])


def test_the_structural_group_checks_two_rows_against_the_matrix(monkeypatch):
    calls = []
    check = sym._automorphism_rows
    monkeypatch.setattr(sym, "_automorphism_rows", lambda g, images: calls.append(
        len(images)) or check(g, images))
    assert nz.aut_group_structural(nz.build(SpaceParams(8, 2))).order == factorial(8)
    assert calls == [2]


def _kernel_verdicts(monkeypatch, call):
    """Run `call`, and return per call of the conjugation kernel its row count,
    its verdicts and the matrix check's verdicts on the same rows."""
    seen, prove = [], sym._conjugation_proofs

    def spy(graph, rows, plan):
        ok = prove(graph, rows, plan)
        seen.append((len(rows), ok.tolist(), sym._automorphism_rows(graph, rows).tolist()))
        return ok

    monkeypatch.setattr(sym, "_conjugation_proofs", spy)
    try:
        call()
    except ValueError:
        pass
    monkeypatch.undo()
    return seen


KERNEL_GRAPHS = {**CORRUPTED, **{f"intact_{n}": lambda n=n: nz.build(SpaceParams(n, 2))
                                  for n in range(1, 9)}}


@pytest.mark.parametrize("name", KERNEL_GRAPHS)
def test_the_conjugation_kernel_is_exact_row_by_row(name, monkeypatch):
    g = KERNEL_GRAPHS[name]()
    n = g.params.n
    # the C(n, 2) transpositions plus the cycle, and the n - 1 adjacent ones plus the cycle
    for call, size in [(lambda: sym.transposition_extensions(g), comb(n, 2) + 1),
                       (lambda: sym.aut_group_structural(g), n)]:
        (rows, got, want), = _kernel_verdicts(monkeypatch, call)
        assert rows == size and got == want


def test_the_conjugation_kernel_needs_both_sources_proven():
    # a conjugate k = s r s^-1 of a non-automorphism by an automorphism, or
    # of an automorphism by a non-automorphism, satisfies k o s = s o r too
    g = nz.build(SpaceParams(4, 2))
    t, adjacent, cycle = sym._extend_images_batch(
        g, np.array([[1, 0, 2, 3], [0, 2, 1, 3], [1, 2, 3, 0]]))
    bad = adjacent.copy()
    bad[[0, 2]] = bad[[2, 0]]  # a permutation, but not an automorphism

    def conjugate(s, r):
        return s[r[np.argsort(s)]]

    rows = np.stack([t, bad, conjugate(cycle, bad), conjugate(bad, t), cycle])
    ok = sym._conjugation_proofs(g, rows, [(2, 1, 4), (3, 0, 1)])
    assert ok.tolist() == sym._automorphism_rows(g, rows).tolist() == [
        True, False, False, False, True]


def test_the_transposition_extensions_check_two_rows_against_the_matrix(monkeypatch):
    g = nz.build(SpaceParams(10, 2))
    calls = []
    check = sym._automorphism_rows
    monkeypatch.setattr(sym, "_automorphism_rows", lambda g, images: calls.append(
        len(images)) or check(g, images))
    assert len(sym.transposition_extensions(g)) == comb(10, 2)
    assert calls == [2]


# rows 24, 6, 2 and 1 extend (0 1) .. (3 4) and row 33 the 5-cycle; the
# identity is an automorphism, so the row named is the first whose composition
# check fails
@pytest.mark.parametrize("row, named", [(24, 25), (6, 7), (2, 3), (1, 3), (33, 33)])
def test_a_generator_row_replaced_by_the_identity_is_refused(row, named, monkeypatch):
    g = nz.build(SpaceParams(5, 2))
    extend = sym._extend_images_batch

    def corrupted(graph, sigmas):
        images = extend(graph, sigmas)
        images[row] = np.arange(images.shape[1])  # an automorphism, but not the extension
        return images

    monkeypatch.setattr(sym, "_extend_images_batch", corrupted)
    with pytest.raises(ValueError, match=rf"^structural engine produced a non-automorphism "
                                         rf"\(row {named}\)$"):
        nz.aut_group_structural(g)


def test_restrict_rejects_corrupted_map():
    g = nz.build(SpaceParams(2, 2))
    with pytest.raises(ValueError):
        sym.restrict_to_basis((2, 1, 0), g)


def test_sampled_extension_isomorphism_memory_n10():
    g = nz.build(SpaceParams(10, 2))
    tracemalloc.start()
    try:
        report = nz.check_extension_isomorphism(g, None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.details["mode"] == "sampled"
    assert peak < 100 * 2**20


def test_sampled_extension_isomorphism_memory_does_not_grow_with_samples(monkeypatch):
    # the pairs are extended in blocks; all at once they take about 650 MB here
    g = nz.build(SpaceParams(10, 2))
    monkeypatch.setattr(sym, "EXTENSION_PAIRS", 20000)
    tracemalloc.start()
    try:
        report = nz.check_extension_isomorphism(g, None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.details["pairs_checked"] == report.checked == 20000
    assert peak < 100 * 2**20


def _preserves_adjacency(g, image):
    nv, a = g.num_vertices, g.adjacency_matrix()
    return all(a[image[v], image[u]] == a[v, u] for u in range(nv) for v in range(nv))


def _candidate_images(g, rng):
    """The automorphisms of g, then 200 random permutations and 40 shuffles."""
    n, nv = g.params.n, g.num_vertices
    if g.params.q == 2:
        autos = [nz.extend_basis_permutation(g, s) for s in itertools.permutations(range(n))]
    else:
        autos = list(nz.aut_group_oracle(g).perms)
    randoms = [tuple(rng.sample(range(nv), nv)) for _ in range(200)]
    # shuffles inside twin sets are automorphisms; inside skeleton classes, mostly not
    shuffles = []
    for blocks in (g.twin_sets(), g.t_classes().values()):
        for _ in range(20):
            image = list(range(nv))
            for block in blocks:
                moved = rng.sample(block, len(block))
                for v, w in zip(block, moved):
                    image[v] = w
            shuffles.append(tuple(image))
    return autos, randoms + shuffles


def test_is_automorphism_matches_pairwise_definition():
    rng = random.Random(7)
    for n, q in [(4, 2), (2, 3)]:
        g = nz.build(SpaceParams(n, q))
        autos, others = _candidate_images(g, rng)
        verdicts = []
        for image in autos + others:
            want = _preserves_adjacency(g, image)
            assert nz.is_automorphism(g, image) == want
            assert nz.is_automorphism(g, np.asarray(image, dtype=np.uint16)) == want
            verdicts.append(want)
        assert all(verdicts[:len(autos)]) and not all(verdicts)


def test_stacked_check_matches_pairwise_definition():
    rng = random.Random(7)
    for n, q in [(4, 2), (2, 3)]:
        g = nz.build(SpaceParams(n, q))
        nv = g.num_vertices
        autos, others = _candidate_images(g, rng)
        images = [tuple(int(x) for x in image) for image in autos + others]
        want = [_preserves_adjacency(g, image) for image in images]
        ident = list(range(nv))
        bad = [[0] * nv, ident[:-1] + [nv], [-1] + ident[1:], ident[1:] + [1]]  # no permutations
        mixed = list(zip(images, want)) + [(tuple(row), False) for row in bad]
        rng.shuffle(mixed)
        stack = np.array([image for image, _ in mixed], dtype=np.int64)
        assert sym._automorphism_rows(g, stack).tolist() == [ok for _, ok in mixed]
        assert all(want[:len(autos)]) and not all(want)


def test_extension_stack_raises_its_first_failing_row():
    g = nz.build(SpaceParams(4, 2))
    stack = [(0, 1, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0), (1, 0, 2, 3)]
    assert nz.extend_basis_permutation(g, stack).tolist() == [
        nz.extend_basis_permutation(g, s).tolist() for s in stack]
    s = g.skeletons.tolist()
    s[0], s[6] = s[6], s[0]
    swapped = nz.NzcGraph(g.params, g.vertices, s, g.adjacency_matrix())
    # rows 2 and 3 map across classes; row 2 comes first
    with pytest.raises(ValueError, match="^vertex 0 mapped across skeleton-size classes to 7$"):
        nz.extend_basis_permutation(swapped, stack)
    with pytest.raises(ValueError, match="^sigma must be a permutation of range\\(4\\)$"):
        nz.extend_basis_permutation(g, [(0, 1, 2, 3), (0, 0, 2, 3)])
    # (2,2) with edge 1-2 gone and b2, b1+b2 mislabelled: the swap of b1 and
    # b2 breaks adjacency and classes alike, and adjacency is named
    g = nz.build(SpaceParams(2, 2))
    no_12 = [[False, False, True], [False, False, False], [True, False, False]]
    both = nz.NzcGraph(g.params, g.vertices, [1, 3, 2], no_12)
    with pytest.raises(ValueError, match="^image is not an adjacency-preserving "):
        nz.extend_basis_permutation(both, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="^vertex 0 mapped across skeleton-size classes to 1$"):
        nz.extend_basis_permutation(nz.NzcGraph(g.params, g.vertices, [1, 3, 2],
                                                g.adjacency_matrix()), [(0, 1), (1, 0)])


def test_orbit_sizes_count_each_column():
    g = nz.build(SpaceParams(8, 2))
    grp = nz.aut_group_structural(g)
    perms = grp.perms
    assert grp.orbit_sizes().tolist() == [len(np.unique(perms[:, v])) for v in range(255)]
    assert _traced_peak(grp.orbit_sizes) < 8 * 2**20
    # a non-closed set of rows: every fourth element, one with a reversed row
    rows = np.vstack([perms[::4], perms[-1][::-1]])
    part = nz.AutGroup(g, rows)
    want = [len(np.unique(rows[:, v])) for v in range(255)]
    stab = [int((rows[:, v] == v).sum()) for v in range(255)]
    assert part.orbit_sizes().tolist() == want
    assert part.moved_set() == tuple(v for v in range(255) if want[v] >= 2)
    assert nz.check_orbit_stabilizer(part).failures == [
        f"vertex {v}: |orbit| {want[v]} * |stab| {stab[v]} != {part.order}"
        for v in range(255) if want[v] * stab[v] != part.order]


def test_sampled_extension_isomorphism_memory_n6_many_samples(monkeypatch):
    # the pairs are drawn block by block; all 400,000 keys at once took 38 MB
    g = nz.build(SpaceParams(6, 2))
    monkeypatch.setattr(sym, "EXTENSION_PAIRS", 200000)
    tracemalloc.start()
    try:
        report = nz.check_extension_isomorphism(g, None, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.details["pairs_checked"] == report.checked == 200000
    assert peak < 10 * 2**20


def test_is_automorphism_rejects_non_permutations():
    g = nz.build(SpaceParams(2, 2))
    for image in [(0, 1), (0, 1, 2, 3), (0, 0, 1), (0, 1, 3), (-1, 0, 1),
                  (0.0, 1.0, 2.0), [[0, 1, 2]], ()]:
        assert not nz.is_automorphism(g, image)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_group_kernels_make_no_int64_copy_of_the_group_n8():
    # the group is 40,320 x 255; one int64 copy of it is 82 MB
    g = nz.build(SpaceParams(8, 2))
    grp = nz.aut_group_structural(g)
    f = nz.constructive_labeling_q2(g)
    assert grp.check_group_axioms().passed  # builds the cached row set untraced
    assert _traced_peak(grp.check_group_axioms) < 40 * 2**20
    assert _traced_peak(lambda: nz.is_distinguishing(g, grp, f)) < 80 * 2**20
    assert _traced_peak(lambda: nz.aut_group_structural(g)) < 128 * 2**20


def test_row_set_keeps_the_stored_dtype_n8():
    # 40,320 rows of 255 vertices: 20.6 MB as uint16, 82 MB as int64
    g = nz.build(SpaceParams(8, 2))
    grp = nz.aut_group_structural(g)
    tracemalloc.start()
    try:
        rows = sym._row_keys(grp._ascending())
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == grp.order
    assert held < 40 * 2**20


def test_engine_ordered_table_is_its_own_row_set_n8():
    # both engines emit ascending rows, so the lookups read the table itself,
    # not a sorted 20.6 MB copy of it
    g = nz.build(SpaceParams(8, 2))
    grp = nz.aut_group_structural(g)
    tracemalloc.start()
    try:
        rows = sym._row_keys(grp._ascending())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.shares_memory(rows, grp.perms) and grp.distinct_rows() == grp.order


@pytest.mark.parametrize("n", [6, 8])
def test_a_shuffled_table_is_the_same_group(n):
    # a table that does not ascend takes the sorted copy; the answers are those
    # of the engine-ordered table
    g = nz.build(SpaceParams(n, 2))
    grp = nz.aut_group_structural(g)
    perms = grp.perms
    order = list(range(len(perms)))
    random.Random(n).shuffle(order)
    shuffled = nz.AutGroup(g, perms[order])
    assert shuffled._ascending() is not shuffled.perms
    exchanged = perms[1::7].copy()
    exchanged[:, [0, 1]] = exchanged[:, [1, 0]]
    probes = np.vstack([perms[::11], perms[::13, ::-1], exchanged])
    assert np.array_equal(shuffled._lookup(probes)[0], grp._lookup(probes)[0])
    assert shuffled.distinct_rows() == grp.distinct_rows() == factorial(n)
    assert shuffled.set_equal(grp) and grp.set_equal(shuffled)
    assert shuffled.check_group_axioms(seed=n).failures == grp.check_group_axioms(seed=n).failures
    assert grp.check_group_axioms(seed=n).passed
    # the identity left out and a row doubled, in engine order and shuffled
    part = np.vstack([perms[1:], perms[5:6]])
    kept, mixed = nz.AutGroup(g, part), nz.AutGroup(g, part[::-1])
    assert kept.distinct_rows() == mixed.distinct_rows() == factorial(n) - 1
    assert np.array_equal(kept._lookup(probes)[0], mixed._lookup(probes)[0])
    assert kept.set_equal(mixed) and not kept.set_equal(grp)
    for part_grp in (kept, mixed):
        assert part_grp.check_group_axioms(seed=n).failures[0] == "identity not in group"


@pytest.mark.parametrize("n, entry", [(8, 256), (8, 300), (8, -1), (3, 7)])
def test_group_refuses_entries_that_are_not_vertex_ids(n, entry):
    # cast to one byte, 256 would wrap to vertex 0 and -1 to vertex 255
    g = nz.build(SpaceParams(n, 2))
    rows = nz.aut_group_structural(g).perms[:3].astype(np.int64)
    rows[1, 0] = entry
    with pytest.raises(ValueError, match=r"^perms must hold vertex ids in range\(num_vertices\)$"):
        nz.AutGroup(g, rows)
    with pytest.raises(ValueError, match="vertex ids"):
        nz.AutGroup(g, rows.tolist())


def test_group_refuses_rows_that_are_not_integers():
    # a cast once stored [0, 1.9, 2.0] as [0, 1, 2] and [True, False, True] as
    # [1, 0, 1], and string rows raised numpy's UFuncTypeError from min()
    g = nz.build(SpaceParams(2, 2))
    for rows in [[[0, 1.9, 2.0]], [[True, False, True]], [["0", "1", "2"]]]:
        with pytest.raises(ValueError, match="^perms must be an integer array, not "):
            nz.AutGroup(g, rows)
    assert nz.AutGroup(g, [[0, 1, 2], [1, 0, 2]]).check_group_axioms().passed
    g4 = nz.build(SpaceParams(4, 2))
    table = nz.aut_group_structural(g4).perms
    assert table.dtype == np.uint8
    assert nz.AutGroup(g4, table).set_equal(nz.aut_group_oracle(g4))


@pytest.mark.parametrize("n, edit, failures", [
    (4, lambda p: p[1:], ["identity not in group", "product of elements 0, 0 not in group"]),
    (4, lambda p: np.delete(p, 12, 0),
     ["inverse of element 8 missing", "product of elements 1, 17 not in group"]),
    (4, lambda p: np.vstack([p, p[:1]]), []),
    (6, lambda p: p[:-1], ["product of elements 240, 715 not in group"]),
    (6, lambda p: np.vstack([p[:-1], p[-1][::-1]]),
     ["inverse of element 719 missing", "product of elements 719, 383 not in group"]),
])
def test_group_axioms_name_the_first_missing_element(n, edit, failures):
    # exhaustive closure at n = 4, sampled at n = 6; the strings are those of
    # the earlier per-row set lookups
    g = nz.build(SpaceParams(n, 2))
    perms = nz.aut_group_structural(g).perms
    assert nz.AutGroup(g, edit(perms)).check_group_axioms(seed=n).failures == failures


@pytest.mark.parametrize("edit, failures", [
    (lambda p: np.delete(p, 30000, 0), ["inverse of element 17725 missing"]),
    (lambda p: np.vstack([p[:-1], p[-1][::-1]]), ["inverse of element 40319 missing"]),
])
def test_group_axioms_name_the_first_missing_inverse_past_the_first_block_n8(edit, failures):
    # the inverses are checked 514 rows at a time; both elements lie in later blocks
    g = nz.build(SpaceParams(8, 2))
    perms = nz.aut_group_structural(g).perms
    assert nz.AutGroup(g, edit(perms)).check_group_axioms(seed=8).failures == failures


def test_distinct_rows_and_set_equal_compare_whole_rows():
    g = nz.build(SpaceParams(4, 2))
    perms = nz.aut_group_structural(g).perms
    grp = nz.AutGroup(g, perms)
    assert grp.distinct_rows() == 24
    assert nz.AutGroup(g, np.vstack([perms, perms[:3]])).distinct_rows() == 24
    assert grp.set_equal(nz.AutGroup(g, perms[::-1]))
    assert not grp.set_equal(nz.AutGroup(g, np.vstack([perms[:-1], perms[-1][::-1]])))


def _reference_refinement(a, colors):
    """Sorted-tuple signature refinement over neighbour lists, to a fixpoint."""
    neighbours = [np.flatnonzero(row).tolist() for row in a]
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in neighbours[v])))
                for v in range(len(a))]
        remap = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [remap[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _degree_label_seed(a, labels):
    """The seed of the shared search: ranks of (degree, label)."""
    keys = list(zip(np.count_nonzero(a, axis=1).tolist(), labels))
    remap = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [remap[key] for key in keys]


def _seed_labelings(nv, rng):
    """Constant, random 2-colour and random 5-colour labels."""
    return [(1,) * nv, tuple(rng.randint(1, 2) for _ in range(nv)),
            tuple(rng.randint(1, 5) for _ in range(nv))]


@pytest.mark.parametrize("n, q", [(n, 2) for n in range(1, 10)] + [(n, 3) for n in range(1, 7)]
                         + [(n, q) for q in (4, 5) for n in range(2, 5)])
def test_counting_refinement_matches_sorted_signatures(n, q):
    # at the benchmark's sizes, (9,2) and (6,3), labelings constant on the
    # cycles of one transposition, two and an n-cycle, and the scheme
    g = nz.build(SpaceParams(n, q))
    a = g.adjacency_matrix()
    nv = g.num_vertices
    rng = random.Random(100 * n + q)
    if (n, q) in [(9, 2), (6, 3)]:
        labelings = [_sigma_constant_labeling(g, rng, _cycle_sigma(n, lengths, rng))
                     for lengths in [(2,), (2, 2), (n,)]]
    else:
        labelings = _seed_labelings(nv, rng)
    if q >= 3:
        labelings.append(nz.constructive_labeling_q3(g).colors)
    elif n >= 3:
        labelings.append(nz.constructive_labeling_q2(g).colors)
    for labels in labelings:
        seed = _degree_label_seed(a, labels)
        assert _refine_by_neighbors(_refinement_basis(a), seed) == _reference_refinement(a, seed)


@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_counting_refinement_matches_sorted_signatures_on_random_graphs(density):
    # below density 0.5 the non-neighbour list is the larger side
    rng = np.random.default_rng(int(10 * density))
    labels_rng = random.Random(int(10 * density))
    for nv in (1, 2, 9, 40, 130):
        upper = np.triu(rng.random((nv, nv)) < density, 1)
        a = upper | upper.T
        for labels in _seed_labelings(nv, labels_rng):
            seed = _degree_label_seed(a, labels)
            assert _refine_by_neighbors(_refinement_basis(a), seed) == _reference_refinement(a, seed)


@pytest.mark.parametrize("n, q", [(3, 2), (4, 2), (2, 3)])
def test_counting_refinement_matches_sorted_signatures_on_tampered_matrices(n, q):
    # 1-3 off-diagonal entries flipped one-sidedly: each row is counted as a
    # vertex's own neighbour list, not as its column (the counts read closed
    # rows, which hide a loop, so the diagonal stays clear)
    g = nz.build(SpaceParams(n, q))
    nv, rng = g.num_vertices, random.Random(100 * n + q)
    for trial in range(24):
        m = g.adjacency_matrix().copy()
        for _ in range(trial % 3 + 1):
            v, u = rng.sample(range(nv), 2)
            m[v, u] = not m[v, u]
        for labels in _seed_labelings(nv, rng):
            seed = _degree_label_seed(m, labels)
            assert _refine_by_neighbors(_refinement_basis(m), seed) == _reference_refinement(m, seed)


def _reference_search(g, labels):
    """The colour-preserving search as a plain backtrack over every vertex,
    fixed points included, on the reference refinement. Yields (image,
    nodes so far) at each leaf, then (None, total nodes)."""
    nv, a = g.num_vertices, g.adjacency_matrix()
    keys = list(zip(a.sum(axis=1).tolist(), labels))
    remap = {key: i for i, key in enumerate(sorted(set(keys)))}
    colors = _reference_refinement(a, [remap[key] for key in keys])
    rows = [r.tobytes() for r in a]
    cells = {}
    for v in range(nv):
        cells.setdefault(colors[v], []).append(v)
    order = sorted(range(nv), key=lambda v: (len(cells[colors[v]]), colors[v], v))
    image, used, nodes = [-1] * nv, [False] * nv, 1
    stack = [iter(cells[colors[order[0]]])]
    while stack:
        depth = len(stack) - 1
        v = order[depth]
        if image[v] >= 0:
            used[image[v]] = False
            image[v] = -1
        for u in stack[-1]:
            if not used[u] and all(rows[v][w] == rows[u][image[w]] for w in order[:depth]):
                break
        else:
            stack.pop()
            continue
        image[v], used[u] = u, True
        nodes += 1
        if depth + 1 == nv:
            yield tuple(image), nodes
        else:
            stack.append(iter(cells[colors[order[depth + 1]]]))
    yield None, nodes


def _cycle_sigma(n, lengths, rng):
    """A random coordinate permutation with one cycle of each of `lengths`,
    on randomly chosen coordinates, fixing the rest."""
    coords, sigma, start = rng.sample(range(n), n), list(range(n)), 0
    for k in lengths:
        cycle = coords[start:start + k]
        for i, x in enumerate(cycle):
            sigma[x] = cycle[(i + 1) % k]
        start += k
    return sigma


def _sigma_constant_labeling(g, rng, sigma=None):
    """Random colours constant on the cycles of a coordinate permutation,
    `sigma` or a random one."""
    n = g.params.n
    if sigma is None:
        sigma = list(range(n))
        rng.shuffle(sigma)
    image = [vid(g, tuple(c[sigma[i]] for i in range(n))) for c in g.vertices]
    colors = [0] * g.num_vertices
    for v in range(g.num_vertices):
        if not colors[v]:
            c, w = rng.randint(1, 3), v
            while not colors[w]:
                colors[w], w = c, image[w]
    return tuple(colors)


@pytest.mark.parametrize("n, q", [(n, 2) for n in (3, 4, 5)] + [(n, 3) for n in (2, 3, 4)]
                         + [(2, 4), (3, 4), (1, 5), (7, 2), (9, 2), (6, 3)])
def test_search_matches_reference_images_and_nodes(n, q, monkeypatch):
    # the same images in the same order, and the same node count at the
    # last image compared or at the end of the search, read from the cap
    # message; at the benchmark's sizes, (9,2) and (6,3), the first 3 images
    # of labelings constant on the cycles of one transposition, two and an
    # n-cycle
    g = nz.build(SpaceParams(n, q))
    nv, rng = g.num_vertices, random.Random(10 * n + q)
    if (n, q) in [(9, 2), (6, 3)]:
        count = 3
        labelings = [_sigma_constant_labeling(g, rng, _cycle_sigma(n, lengths, rng))
                     for lengths in [(2,), (2, 2), (n,)]]
    else:
        count = 20
        constructive = (nz.constructive_labeling_q2(g) if q == 2
                        else nz.constructive_labeling_q3(g))
        labelings = [(1,) * nv, tuple(rng.randint(1, 2) for _ in range(nv)),
                     _sigma_constant_labeling(g, rng), constructive.colors]
    for labels in labelings:
        want = []
        for image, nodes in _reference_search(g, labels):
            if image is None:
                break
            want.append(image)
            if len(want) == count:
                break
        monkeypatch.setattr(sym, "NODE_BUDGET", nodes)
        search = sym._color_preserving_images(g, labels, "search")
        assert list(itertools.islice(search, count)) == want
        monkeypatch.setattr(sym, "NODE_BUDGET", nodes - 1)
        with pytest.raises(CapExceededError, match=f"^search exceeded {nodes - 1} nodes$"):
            list(itertools.islice(sym._color_preserving_images(g, labels, "search"), count))


@pytest.mark.parametrize("n, q", [(4, 2), (2, 3)])
def test_search_state_is_built_once_per_graph(n, q, monkeypatch):
    # the oracle and four searches on one graph pack its closed rows and
    # count its degrees once, and find what they find on a fresh graph each
    params = SpaceParams(n, q)
    g = nz.build(params)
    nv, rng = g.num_vertices, random.Random(10 * n + q)
    constructive = (nz.constructive_labeling_q2 if q == 2 else nz.constructive_labeling_q3)(g)
    labelings = [nz.Labeling((1,) * nv, 1), constructive,
                 nz.Labeling(_sigma_constant_labeling(g, rng), 3),
                 nz.Labeling(tuple(rng.randint(1, 2) for _ in range(nv)), 2)]
    want_group = nz.aut_group_oracle(nz.build(params)).perms
    want = [nz.find_color_preserving(nz.build(params), f) for f in labelings]
    calls = {"_packed_closed_rows": 0, "_degree_counts": 0}
    for name in calls:
        def counted(a, real=getattr(gr, name), name=name):
            calls[name] += 1
            return real(a)
        monkeypatch.setattr(gr, name, counted)
    assert np.array_equal(nz.aut_group_oracle(g).perms, want_group)
    assert [nz.find_color_preserving(g, f) for f in labelings] == want
    assert want[0] is not None and want[1] is None
    assert calls == {"_packed_closed_rows": 1, "_degree_counts": 1}


def test_search_state_is_read_only_in_the_vertex_id_dtype():
    for n, q, dtype in [(3, 2, np.uint8), (9, 2, np.uint16), (6, 3, np.uint16)]:
        g = nz.build(SpaceParams(n, q))
        basis = g.refinement_basis()
        assert basis is g.refinement_basis() and g.degrees() is g.degrees()
        assert basis.cols.dtype == dtype
        assert basis.classes.dtype == basis.starts.dtype == np.intp
        for arr in (g.degrees(), *basis):
            assert not arr.flags.writeable
        if q == 2:  # the 3^n - 2^(n+1) + 1 ordered pairs with disjoint skeletons
            assert basis.starts[-1] == len(basis.cols) == 3**n - 2 ** (n + 1) + 1


@pytest.mark.parametrize("n, q", [(1, 2), (3, 2), (2, 3), (1, 5)])
def test_search_reaches_the_identity_in_one_step(n, q, monkeypatch):
    # the identity path costs the root and one node a vertex, for a discrete
    # partition and for the constant one alike
    g = nz.build(SpaceParams(n, q))
    nv = g.num_vertices
    for labels in [tuple(range(nv)), (1,) * nv]:
        monkeypatch.setattr(sym, "NODE_BUDGET", 1 + nv)
        assert next(sym._color_preserving_images(g, labels, "search")) == tuple(range(nv))
        monkeypatch.setattr(sym, "NODE_BUDGET", nv)
        with pytest.raises(CapExceededError, match=f"^search exceeded {nv} nodes$"):
            next(sym._color_preserving_images(g, labels, "search"))


def _reference_images(graph, labels, node_budget, what):
    """The colour-preserving search with the per-candidate loop that the byte
    comparison replaced: each candidate checked against every assigned free
    vertex, one byte at a time."""
    nv = graph.num_vertices
    a = graph.adjacency_matrix()
    keys = list(zip(np.count_nonzero(a, axis=1).tolist(), labels))
    remap = {key: i for i, key in enumerate(sorted(set(keys)))}
    colors = np.array(_refine_by_neighbors(_refinement_basis(a), [remap[key] for key in keys]))
    cell_size = np.bincount(colors)[colors]
    cell = cell_size * nv + colors
    order = np.argsort(cell, kind="stable")
    fixed = int(np.count_nonzero(cell_size == 1))
    nodes = 1 + fixed
    if nodes > node_budget:
        raise CapExceededError(f"{what} exceeded {node_budget} nodes")
    full = list(range(nv))
    free = order[fixed:]
    if not len(free):
        yield tuple(full)
        return
    rows = [r.tobytes() for r in a[np.ix_(free, free)]]
    lo = np.searchsorted(cell[free], cell[free])
    lo, hi = lo.tolist(), (lo + cell_size[free]).tolist()
    free = free.tolist()
    image = [-1] * len(free)
    used = [False] * len(free)
    stack = [iter(range(lo[0], hi[0]))]
    while stack:
        depth = len(stack) - 1
        if image[depth] >= 0:
            used[image[depth]] = False
            image[depth] = -1
        row_v = rows[depth]
        for u in stack[-1]:
            if used[u]:
                continue
            row_u = rows[u]
            for w in range(depth):
                if row_v[w] != row_u[image[w]]:
                    break
            else:
                break
        else:
            stack.pop()
            continue
        image[depth] = u
        used[u] = True
        nodes += 1
        if nodes > node_budget:
            raise CapExceededError(f"{what} exceeded {node_budget} nodes")
        if depth + 1 == len(free):
            for v, u in zip(free, image):
                full[v] = free[u]
            yield tuple(full)
        else:
            stack.append(iter(range(lo[depth + 1], hi[depth + 1])))


def _images_or_cap(search):
    """Every image of a search, or the message of the cap error it raised."""
    try:
        return list(search)
    except CapExceededError as err:
        return str(err)


@pytest.mark.parametrize("n, q", [(3, 2), (4, 2), (2, 3)])
def test_search_matches_the_per_candidate_loop_on_tampered_matrices(n, q, monkeypatch):
    # 1-3 entries flipped one-sidedly, so most matrices are asymmetric and
    # the comparison must read each candidate's row, not its column
    g = nz.build(SpaceParams(n, q))
    nv, rng = g.num_vertices, random.Random(100 * n + q)
    for trial in range(24):
        m = g.adjacency_matrix().copy()
        for _ in range(trial % 3 + 1):
            v, u = rng.randrange(nv), rng.randrange(nv)
            m[v, u] = not m[v, u]
        tampered = nz.NzcGraph(g.params, g.vertices, g.skeletons, m)
        for labels in [(1,) * nv, tuple(rng.randint(1, 3) for _ in range(nv))]:
            for budget in (5, 50, 10**6):
                monkeypatch.setattr(sym, "NODE_BUDGET", budget)
                got = _images_or_cap(sym._color_preserving_images(tampered, labels, "s"))
                assert got == _images_or_cap(_reference_images(tampered, labels, budget, "s"))


def test_search_memory_stays_two_square_byte_blocks():
    # at (7,3) the constant labeling leaves 2,186 free vertices: the free
    # block and the block of assigned columns are 4.6 MiB each
    g = nz.build(SpaceParams(7, 3))
    f = nz.Labeling((1,) * g.num_vertices, 1)
    tracemalloc.start()
    try:
        witness = nz.find_color_preserving(g, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert witness is not None
    assert peak <= 10.5 * 2**20


def test_refinement_memory_counts_in_row_blocks_n11():
    # the last pass has 897 cells: the (2047 x 897) big-endian count array
    # is 3.5 MiB, and one int64 bincount over all of it would be 14 MiB; the
    # row blocks trace 17.8 MiB, that bincount 21.7 MiB
    g = nz.build(SpaceParams(11, 2))
    a = g.adjacency_matrix()
    seed = _degree_label_seed(a, nz.constructive_labeling_q2(g).colors)
    assert _traced_peak(lambda: _refine_by_neighbors(_refinement_basis(a), seed)) < 20 * 2**20


def test_refinement_rank_step_holds_one_copy_of_the_counts_n12():
    # the rank step sorts one copy of the (4095 x cells) count rows; the three
    # copies of np.unique traced 59.3 MiB here, one copy 33.8 MiB
    g = nz.build(SpaceParams(12, 2))
    a = g.adjacency_matrix()
    seed = _degree_label_seed(a, nz.constructive_labeling_q2(g).colors)
    assert _traced_peak(lambda: _refine_by_neighbors(_refinement_basis(a), seed)) < 45 * 2**20


@pytest.mark.parametrize("dtype", ["u1", ">u2", "<u2", "i8"])
def test_row_ranks_match_the_index_and_inverse_of_unique(dtype):
    rng = np.random.default_rng(len(dtype))
    for rows, cols in [(1, 1), (1, 4), (7, 1), (300, 3)]:
        m = rng.integers(0, 3, (rows, cols)).astype(dtype)
        _, *want = np.unique(sym._row_keys(m), return_index=True, return_inverse=True)
        assert all(map(np.array_equal, sym._row_ranks(m), want))


def _reference_extend(g, sigmas):
    """The bit-matrix / power-weight product the extension kernel replaced:
    int64 images, one row per sigma."""
    n = g.params.n
    bits = mask_bits(np.arange(1, 1 << n), np.arange(n))  # rows for masks 1 .. 2^n - 1
    images = bits @ (1 << np.asarray(sigmas, dtype=np.int64)).T - 1
    return images.T


@pytest.mark.parametrize("n", range(1, 14))
def test_subset_doubling_extension_matches_the_matrix_product(n):
    g = nz.build(SpaceParams(n, 2))
    sigmas = (np.array(list(itertools.permutations(range(n)))) if n <= 6
              else _sample_permutations(n, 200, seed=n))
    images = sym._extend_images_batch(g, sigmas)
    assert images.dtype == _narrowest(n) and images.flags.c_contiguous
    assert images.shape == (len(sigmas), g.num_vertices)
    assert np.array_equal(images, _reference_extend(g, sigmas))


@pytest.mark.parametrize("n", range(9))
def test_symmetric_group_is_itertools_order(n):
    perms = sym._symmetric_group(n)
    assert perms.tolist() == [list(p) for p in itertools.permutations(range(n))]


def test_structural_group_n8_is_the_reference_row_for_row():
    g = nz.build(SpaceParams(8, 2))
    perms = nz.aut_group_structural(g).perms
    assert perms.dtype == _narrowest(8) and perms.flags.c_contiguous
    want = _reference_extend(g, np.array(list(itertools.permutations(range(8)))))
    assert np.array_equal(perms, want)


def _corrupt_row(monkeypatch, row):
    """Have the structural engine build its table with entries 0 and 2 of
    `row` exchanged: the images of b1 and b1 + b2."""
    extend = sym._extend_images_batch

    def corrupted(graph, sigmas):
        images = extend(graph, sigmas)
        images[row, [0, 2]] = images[row, [2, 0]]
        return images

    monkeypatch.setattr(sym, "_extend_images_batch", corrupted)


def test_structural_group_rejects_a_corrupted_row_n8(monkeypatch):
    # every row is checked, not a sample of them
    g = nz.build(SpaceParams(8, 2))
    _corrupt_row(monkeypatch, 30001)
    with pytest.raises(ValueError, match=r"^structural engine produced a non-automorphism "
                                         r"\(row 30001\)$"):
        nz.aut_group_structural(g)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_structural_group_names_each_corrupted_row(n, monkeypatch):
    # the last sub-blocks hold 1 to 6 rows, fewer than a row block
    g = nz.build(SpaceParams(n, 2))
    for row in range(factorial(n)):
        _corrupt_row(monkeypatch, row)
        with pytest.raises(ValueError, match=rf"\(row {row}\)$"):
            nz.aut_group_structural(g)
        monkeypatch.undo()


def test_structural_group_rejects_a_tampered_matrix():
    g = nz.build(SpaceParams(4, 2))
    m = g.adjacency_matrix().copy()
    assert m[0, 2]
    m[0, 2] = m[2, 0] = False  # b1 ~ b1 + b2 dropped
    tampered = nz.NzcGraph(g.params, g.vertices, g.skeletons, m)
    # sigma = (2 3), row 1, fixes b1 and b1 + b2; sigma = (1 2), row 2, maps
    # them to b1 and b1 + b3, an edge
    with pytest.raises(ValueError, match=r"^structural engine produced a non-automorphism "
                                         r"\(row 2\)$"):
        nz.aut_group_structural(tampered)


def test_group_rejects_no_rows():
    # a group holds the identity, so it has a row
    g = nz.build(SpaceParams(3, 2))
    with pytest.raises(ValueError, match="m >= 1"):
        nz.AutGroup(g, np.empty((0, 7), int))


@pytest.mark.parametrize("n, q", [(8, 2), (2, 3)])
def test_orbits_and_stabilizers_come_from_one_count(n, q):
    g = nz.build(SpaceParams(n, q))
    grp = nz.explicit_group(g)
    perms, nv = grp.perms, g.num_vertices
    columns = [np.unique(perms[:, v]) for v in range(nv)]
    assert grp.orbit_sizes().tolist() == [len(c) for c in columns]
    assert grp.stabilizer_sizes().tolist() == [int((perms[:, v] == v).sum()) for v in range(nv)]
    want, seen = [], set()
    for v in range(nv):
        if v not in seen:
            seen.update(columns[v].tolist())
            want.append(tuple(columns[v].tolist()))
    assert grp.orbits() == want
    assert [grp.orbit_of(v) for v in range(nv)] == [tuple(c.tolist()) for c in columns]


def test_group_kernels_read_the_group_in_row_blocks_n8():
    # the group is 40,320 x 255 uint16, 20.6 MB; the kernels before the row
    # blocks traced 100.7, 49.0 and 21.7 MB
    g = nz.build(SpaceParams(8, 2))
    assert _traced_peak(lambda: nz.aut_group_structural(g)) < 48 * 2**20
    grp = nz.aut_group_structural(g)
    f = nz.constructive_labeling_q2(g)
    assert _traced_peak(lambda: nz.is_distinguishing(g, grp, f)) < 8 * 2**20
    assert grp.check_group_axioms().passed  # builds the cached row set untraced
    assert _traced_peak(grp.check_group_axioms) < 10 * 2**20


def _reference_group_axioms(grp, seed=0):
    """check_group_axioms as it was before the whole-block takes: every
    inverse looked up, and the closure's pairs by one 2-d fancy index a block
    of pairs at a time; membership from a set of row bytes. Returns
    (failures, checked)."""
    rows = {r.tobytes() for r in grp.perms}

    def contains(block):
        return np.array([r.tobytes() in rows for r in block], dtype=bool)

    failures = []
    nv = grp.graph.num_vertices
    ident = np.arange(nv, dtype=grp.perms.dtype)
    if not contains(ident[None, :])[0]:
        failures.append("identity not in group")
    step = sym._row_step(nv)
    starts, idents = np.arange(0, step * nv, nv)[:, None], np.tile(ident, step)
    for lo in range(0, grp.order, step):
        block = grp.perms[lo:lo + step]
        invs = np.zeros_like(block)
        invs.reshape(-1)[(block + starts[:len(block)]).ravel()] = idents[:block.size]
        missing = np.flatnonzero(~contains(invs))
        if missing.size:
            failures.append(f"inverse of element {lo + missing[0]} missing")
            break
    m = grp.order
    if m * m <= sym.AXIOM_PAIR_BUDGET:
        left, right = np.divmod(np.arange(m * m), m)
    else:
        rng = random.Random(seed)
        draws = np.array([rng.randrange(m) for _ in range(2 * sym.CLOSURE_PAIRS)])
        left, right = draws[0::2], draws[1::2]
    for lo in range(0, len(left), step):
        i, j = left[lo:lo + step], right[lo:lo + step]
        bad = np.flatnonzero(~contains(grp.perms[i[:, None], grp.perms[j]]))
        if bad.size:
            failures.append(f"product of elements {i[bad[0]]}, {j[bad[0]]} not in group")
            break
    return failures, len(left) + m + 1


def _late_inverse(p):
    """Row 1's inverse moved to the end, so it sits only in the last block,
    and a later row reversed, so that its inverse is missing."""
    inverse = np.argsort(p[1]).astype(p.dtype)
    at = np.flatnonzero((p == inverse).all(axis=1))[0]
    out = np.vstack([np.delete(p, at, 0), inverse[None]])
    out[len(out) * 2 // 3] = out[len(out) * 2 // 3][::-1]
    return out


def _shuffled(p, seed):
    order = list(range(len(p)))
    random.Random(seed).shuffle(order)
    return p[order]


AXIOM_EDITS = {
    "deleted": lambda p: np.delete(p, len(p) // 3, 0),
    "replaced": lambda p: np.vstack([p[:len(p) // 2], p[len(p) // 2][None, ::-1],
                                     p[len(p) // 2 + 1:]]),
    "duplicated": lambda p: np.vstack([p, p[len(p) // 4:len(p) // 4 + 1]]),
    "shuffled": lambda p: _shuffled(p, 5),
    "shuffled, one deleted": lambda p: _shuffled(np.delete(p, len(p) // 2, 0), 6),
    "shuffled, one replaced": lambda p: _shuffled(np.vstack([p[:-1], p[-1][None, ::-1]]), 7),
    "inverse only in a later block": _late_inverse,
}


@pytest.mark.parametrize("n, q", [(4, 2), (5, 2), (2, 3), (8, 2)])
@pytest.mark.parametrize("edit", sorted(AXIOM_EDITS))
def test_group_axioms_match_the_per_pair_reference(n, q, edit):
    g = nz.build(SpaceParams(n, q))
    perms = AXIOM_EDITS[edit](nz.explicit_group(g).perms)
    report = nz.AutGroup(g, perms).check_group_axioms(seed=n)
    assert (report.failures, report.checked) == _reference_group_axioms(
        nz.AutGroup(g, perms), seed=n)
