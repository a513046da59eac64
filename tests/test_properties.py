"""Property-based invariants over randomly drawn parameters and labelings."""

from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nzcgraph as nz
from nzcgraph import SpaceParams
from nzcgraph.symmetry import restrict_to_basis

# parameter pools small enough that every draw builds and enumerates quickly
SMALL_PARAMS = [(n, q) for n in range(1, 6) for q in (2, 3, 4)
                if q**n - 1 <= 40]
Q2_PARAMS = [(n, 2) for n in range(2, 7)]

params_st = st.sampled_from(SMALL_PARAMS)
q2_params_st = st.sampled_from(Q2_PARAMS)


@given(params_st)
def test_adjacency_symmetric_irreflexive(nq):
    g = nz.build(SpaceParams(*nq))
    m = g.adjacency_matrix()
    assert not m.diagonal().any()
    assert (m == m.T).all()


@given(params_st)
def test_class_sizes(nq):
    n, q = nq
    g = nz.build(SpaceParams(n, q))
    classes = g.t_classes()
    for i in range(1, n + 1):
        assert len(classes.get(i, ())) == comb(n, i) * (q - 1) ** i


@given(params_st)
def test_twin_partition_oracle_agreement(nq):
    g = nz.build(SpaceParams(*nq))
    by_skel = sorted(g.twin_sets(), key=lambda ts: (len(ts), ts))
    assert by_skel == nz.twin_partition_by_neighborhood(g)


@given(params_st)
def test_degree_via_popcount_equals_matrix(nq):
    g = nz.build(SpaceParams(*nq))
    m = g.adjacency_matrix()
    for v in range(g.num_vertices):
        assert g.degree(v) == int(m[v].sum())


@given(q2_params_st, st.randoms(use_true_random=False))
def test_extension_compose_roundtrip(nq, rng):
    n, _ = nq
    g = nz.build(SpaceParams(n, 2))
    h1 = tuple(rng.sample(range(n), n))
    h2 = tuple(rng.sample(range(n), n))
    h = tuple(np.take(h1, h2).tolist())  # h1 o h2: apply h2 first
    lhs = nz.extend_basis_permutation(g, h)
    rhs = nz.extend_basis_permutation(g, h1)[nz.extend_basis_permutation(g, h2)]
    assert (lhs == rhs).all()
    assert restrict_to_basis(lhs, g) == h


@settings(deadline=None)
@given(st.sampled_from([(n, 2) for n in range(2, 6)]), st.randoms(use_true_random=False))
def test_orbit_stabilizer_identity(nq, rng):
    g = nz.build(SpaceParams(nq[0], 2))
    grp = nz.aut_group_structural(g)
    v = rng.randrange(g.num_vertices)
    assert len(grp.orbit_of(v)) * grp.stabilizer(v).order == grp.order


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3)]),
       st.integers(min_value=1, max_value=3),
       st.randoms(use_true_random=False))
def test_distinguishing_engines_agree(nq, t, rng):
    n, q = nq
    g = nz.build(SpaceParams(n, q))
    grp = nz.aut_group_structural(g) if q == 2 else nz.aut_group_oracle(g)
    f = nz.Labeling(tuple(rng.randint(1, t) for _ in range(g.num_vertices)), t)
    expect = nz.is_distinguishing(g, grp, f)
    assert (nz.find_color_preserving(g, f) is None) == expect
    if q == 2:
        assert (not nz.structural_survivors(g, f)) == expect


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3)]),
       st.integers(min_value=2, max_value=4))
def test_search_witness_is_minimal_monotone(nq, t):
    # if some t-labeling distinguishes, the search never reports a value above t
    n, q = nq
    g = nz.build(SpaceParams(n, q))
    grp = nz.aut_group_structural(g) if q == 2 else nz.aut_group_oracle(g)
    witness = nz.exists_distinguishing_labeling(g, grp, t)
    result = nz.dist_number(g, grp)
    if witness is not None:
        assert nz.is_distinguishing(g, grp, witness)
        assert result.value <= t
    else:
        assert result.value > t


@given(params_st)
def test_vector_id_bijection(nq):
    params = SpaceParams(*nq)
    vecs = nz.enumerate_vectors(params)
    assert len(set(vecs)) == params.num_vertices
    for vid, v in enumerate(vecs):
        assert nz.vector_id(params, v) == vid


@given(st.sampled_from(SMALL_PARAMS))
def test_group_rows_are_automorphisms(nq):
    n, q = nq
    g = nz.build(SpaceParams(n, q))
    if q == 2:
        grp = nz.aut_group_structural(g)
    else:
        try:
            grp = nz.aut_group_oracle(g)
        except nz.CapExceededError:
            return
    arr = grp.perms.astype(np.int64)
    a = g.adjacency_matrix()
    for row in arr[:: max(1, len(arr) // 16)]:
        assert (a[np.ix_(row, row)] == a).all()
