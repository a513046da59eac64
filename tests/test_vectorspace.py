"""Vector enumeration, skeletons, and canonical ordering."""

import time
from math import comb

import numpy as np
import pytest

from nzcgraph import CapExceededError, SpaceParams, build
from nzcgraph import vectorspace as vs


def test_enumerate_n2_q2():
    params = SpaceParams(2, 2)
    vecs = vs.enumerate_vectors(params)
    assert vecs == [(1, 0), (0, 1), (1, 1)]  # b1, b2, b1+b2


def test_coefficient_array_is_the_per_vertex_definition():
    for n, q in [(1, 2), (3, 2), (2, 3), (4, 3), (1, 257), (2, 100)]:
        params = SpaceParams(n, q)
        digits = vs.coefficient_array(params)
        assert digits.dtype == np.int64
        assert digits.tolist() == [list(vs.vector_from_id(params, v))
                                   for v in range(params.num_vertices)]
        if params.num_vertices <= 256:
            g = build(params)
            assert g.vertices == vs.enumerate_vectors(params)
            assert g.skeletons.tolist() == [vs.skeleton(c) for c in g.vertices]
    # the largest admitted spaces, with no graph built
    assert vs.coefficient_array(SpaceParams(16, 2)).shape == (65535, 16)
    assert vs.coefficient_array(SpaceParams(2, 256)).shape == (65535, 2)


def test_enumerate_counts():
    for n, q in [(1, 3), (3, 2), (2, 4), (4, 2), (3, 3)]:
        params = SpaceParams(n, q)
        vecs = vs.enumerate_vectors(params)
        assert len(vecs) == q**n - 1
        assert (0,) * n not in vecs
        assert len(set(vecs)) == len(vecs)


def test_n4_q2_has_four_class3_vectors():
    # the four vectors with three non-zero coordinates out of 15
    params = SpaceParams(4, 2)
    vecs = vs.enumerate_vectors(params)
    class3 = [v for v in vecs if vs.skeleton_class(v) == 3]
    assert len(class3) == 4
    assert set(class3) == {(1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1)}


def test_class_counts_formula():
    for n, q in [(4, 2), (3, 3), (2, 4), (5, 2)]:
        params = SpaceParams(n, q)
        vecs = vs.enumerate_vectors(params)
        for i in range(1, n + 1):
            count = sum(1 for v in vecs if vs.skeleton_class(v) == i)
            assert count == comb(n, i) * (q - 1) ** i


def test_skeleton_reads_nonzero_positions():
    assert vs.skeleton_indices(vs.skeleton((1, 0, 1, 0))) == (1, 3)
    assert vs.skeleton_indices(vs.skeleton((0, 1))) == (2,)
    assert vs.skeleton_indices(vs.skeleton((1, 2, 0))) == (1, 2)
    assert vs.skeleton_class((1, 1, 1, 0)) == 3
    assert vs.skeleton_class((1, 0, 0)) == 1
    assert vs.skeleton_class((1, 1, 1)) == 3


def test_skeleton_ignores_which_nonzero_symbol():
    # replacing a non-zero coefficient by another non-zero one changes nothing
    assert vs.skeleton((1, 2, 0)) == vs.skeleton((2, 1, 0)) == vs.skeleton((1, 1, 0))


def test_skeleton_rejects_zero_vector():
    with pytest.raises(ValueError):
        vs.skeleton((0, 0, 0))


def test_vector_id_roundtrip():
    params = SpaceParams(3, 3)
    for vid in range(params.num_vertices):
        assert vs.vector_id(params, vs.vector_from_id(params, vid)) == vid


def test_q2_id_equals_mask_minus_one():
    params = SpaceParams(5, 2)
    for vid in range(params.num_vertices):
        assert vs.skeleton(vs.vector_from_id(params, vid)) == vid + 1


def test_vertex_cap():
    with pytest.raises(CapExceededError, match=r"^q\*\*n - 1 = 131071 vertices exceeds cap 65535$"):
        SpaceParams(17, 2)  # 2**17 - 1 > 65535
    SpaceParams(16, 2)  # 65535 exactly fits
    with pytest.raises(CapExceededError):
        SpaceParams(4, 2, vertex_cap=10)


@pytest.mark.parametrize("n,q", [(20000, 2), (10**10, 2), (2, 10**5000)],
                         ids=["n=20000", "n=10**10", "q=10**5000"])
def test_cap_is_decided_without_computing_q_to_the_n(n, q):
    # q**n takes seconds and gigabytes at n = 10**10, and past 4,300 digits
    # it cannot even be printed
    start = time.perf_counter()
    with pytest.raises(CapExceededError) as exc:
        SpaceParams(n, q)
    assert time.perf_counter() - start < 0.01
    assert str(exc.value) == "q**n - 1 exceeds cap 65535"


def test_param_validation():
    with pytest.raises(ValueError):
        SpaceParams(0, 2)
    with pytest.raises(ValueError):
        SpaceParams(3, 1)


def test_params_take_python_and_numpy_integers_only():
    # numpy integers are stored as int; a float or a bool once reached
    # bit_length or range deep inside, or built the 1-vertex graph
    params = SpaceParams(np.int64(2), np.int64(3), np.uint32(100))
    assert params == SpaceParams(2, 3, 100) == SpaceParams(2, np.int64(3), 100)
    assert {type(params.n), type(params.q), type(params.vertex_cap)} == {int}
    assert params.num_vertices == 8
    for args, field in [((2, 2.0), "q"), ((2.0, 2), "n"), ((True, 2), "n"), ((2, "3"), "q"),
                        ((2, 3, 100.0), "vertex_cap"), ((2, 3, False), "vertex_cap")]:
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not "):
            SpaceParams(*args)


def test_basis_vector_and_format():
    params = SpaceParams(4, 3)
    assert vs.basis_vector(params, 2) == (0, 1, 0, 0)
    assert vs.format_vector((1, 0, 1, 0)) == "b1+b3"
    assert vs.format_vector((2, 1, 0, 0)) == "2b1+b2"
