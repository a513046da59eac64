"""CLI behaviour: formats, exit codes, config file, verify certificates."""

import collections
import json
import re
import sys
import tracemalloc
from itertools import combinations
from math import factorial

import numpy as np
import pytest

import nzcgraph as nz
from nzcgraph import SpaceParams
from nzcgraph import cli, serialize
from nzcgraph.cli import main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_build_dot_path(capsys):
    rc, out, _ = run(capsys, "build", "-n", "2", "-q", "2", "--format", "dot")
    assert rc == 0
    assert out.count(" -- ") == 2  # the 3-vertex path has two edges
    assert 'label="b1+b2"' in out


def test_build_json_n3_q2(capsys):
    rc, out, _ = run(capsys, "build", "-n", "3", "-q", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 7
    # independent edge-count oracle from the coefficient tuples
    vecs = [tuple(e["coeffs"]) for e in sorted(data["vertices"], key=lambda e: e["id"])]
    brute = sum(1 for u, v in combinations(vecs, 2)
                if any(a and b for a, b in zip(u, v)))
    assert len(data["edges"]) == brute == 15


def test_build_cap_exit_3(capsys):
    rc, _, err = run(capsys, "build", "-n", "17", "-q", "2")
    assert rc == 3
    assert "cap" in err


@pytest.mark.parametrize("n", ["20000", "17..1000000000000"])
def test_verify_far_past_the_cap_exits_3_in_one_short_line(capsys, n):
    rc, _, err = run(capsys, "verify", "-n", n, "-q", "2")
    assert rc == 3
    assert err.startswith("error: q**n - 1 ") and len(err) < 100


def test_build_under_default_cap(capsys):
    rc, out, _ = run(capsys, "build", "-n", "12", "-q", "2", "--format", "table")
    assert rc == 0
    assert "4095 vertices" in out


def test_invalid_params_exit_2(capsys):
    rc, _, err = run(capsys, "build", "-n", "0", "-q", "2")
    assert rc == 2
    assert "dimension" in err


def test_aut_both_engines_agree(capsys):
    rc, out, _ = run(capsys, "aut", "-n", "3", "-q", "2", "--engine", "both")
    assert rc == 0
    assert "|Aut| = 6" in out
    assert "engines set-equal: True" in out


def test_aut_oracle_2_3(capsys):
    rc, out, _ = run(capsys, "aut", "-n", "2", "-q", "3", "--engine", "oracle")
    assert rc == 0
    assert "|Aut| = 192" in out


def test_aut_defaults_to_the_oracle_at_q3(capsys):
    # the same default as orbits: structural at q = 2, the oracle at q >= 3
    rc, out, _ = run(capsys, "aut", "-n", "2", "-q", "3")
    assert rc == 0
    assert out.startswith("oracle engine: |Aut| = 192\n")


def test_aut_defaults_to_the_structural_engine_at_q2(capsys):
    assert run(capsys, "aut", "-n", "3", "-q", "2") == (
        0, "structural engine: |Aut| = 6\norbits: [0, 1, 3] [2, 4, 5] [6]\n", "")


def test_aut_structural_q3_exit_4(capsys):
    rc, _, err = run(capsys, "aut", "-n", "3", "-q", "3", "--engine", "structural")
    assert rc == 4
    assert "q = 2" in err


def test_dist_output(capsys):
    rc, out, _ = run(capsys, "dist", "-n", "3", "-q", "2")
    assert rc == 0
    assert "exact 2" in out

    rc, out, _ = run(capsys, "dist", "-n", "3", "-q", "3")
    assert rc == 0
    assert out.startswith("8 (lower=twin-sets 8, upper=twin-injective-scheme 8)")


def test_dist_past_the_recursion_limit(capsys):
    # 1,023 vertices: the colour-preserving search used to raise RecursionError
    rc, out, err = run(capsys, "dist", "-n", "5", "-q", "4")
    assert rc == 0 and not err
    assert out.startswith("243 (lower=twin-sets 243, upper=twin-injective-scheme 243)")


def test_labeling_json(capsys):
    rc, out, _ = run(capsys, "labeling", "-n", "4", "-q", "2")
    assert rc == 0
    data = json.loads(out)
    assert data["t"] == 2
    g = nz.build(SpaceParams(4, 2))
    assert tuple(data["colors"]) == nz.constructive_labeling_q2(g).colors


@pytest.mark.parametrize("n", ["1", "2"])
def test_labeling_below_the_scheme_exits_4(capsys, n):
    # valid input that no 2-colour scheme covers: engine not applicable, not a usage error
    rc, out, err = run(capsys, "labeling", "-n", n, "-q", "2")
    assert (rc, out, err) == (4, "", "error: the 2-colour scheme requires n >= 3\n")


def test_twins_output(capsys):
    rc, out, _ = run(capsys, "twins", "-n", "2", "-q", "3")
    assert rc == 0
    assert "3 twin sets" in out
    assert "size 4" in out


def test_orbits_output(capsys):
    rc, out, _ = run(capsys, "orbits", "-n", "3", "-q", "2")
    assert rc == 0
    assert "order 6" in out
    assert "orbit size 1: b1+b2+b3" in out


def test_verify_range_exit_0_with_anomalies(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    rc, out, _ = run(capsys, "verify", "-n", "3..4", "-q", "2", "--out", str(cert))
    assert rc == 0  # anomalies are reported but do not fail the run
    assert "0 fail" in out
    payload = json.loads(cert.read_text())
    by_claim = {}
    for c in payload["claims"]:
        by_claim.setdefault(c["claim"], []).append(c)
    assert all(c["status"] == "pass" for c in by_claim["degree-formula-q2"])
    tallies = {c["params"]["n"]: c["status"] for c in by_claim["transposition-tallies"]}
    assert tallies == {3: "pass", 4: "anomaly"}


def test_json_roundtrip_identical():
    for n, q in [(3, 2), (2, 3), (3, 3)]:
        g = nz.build(SpaceParams(n, q))
        data = json.loads(serialize.graph_to_json(g))
        back = serialize.graph_from_dict(data)
        assert serialize.graphs_equal(g, back) is True
        m = g.adjacency_matrix().copy()
        m[0, -1] = m[-1, 0] = not m[0, -1]
        other = nz.NzcGraph(g.params, g.vertices, g.skeletons, m)
        assert serialize.graphs_equal(g, other) is False


@pytest.mark.parametrize("n, q", [(n, 2) for n in range(1, 10)] + [(n, 3) for n in (2, 3, 4)])
def test_block_json_writer_is_the_encoder_text(n, q):
    # (9,2) has 2^16 + 55,439 edges, so its edges span two blocks
    g = nz.build(SpaceParams(n, q))
    want = json.dumps(serialize.graph_to_dict(g), indent=2, default=np.ndarray.tolist) + "\n"
    assert serialize.graph_to_json(g) == want


def test_roundtrip_rejects_tampered_edges():
    g = nz.build(SpaceParams(2, 2))
    data = serialize.graph_to_dict(g)
    data["edges"] = np.append(data["edges"], [[0, 0]], axis=0)
    with pytest.raises(ValueError):
        serialize.graph_from_dict(data)


def test_roundtrip_accepts_tuple_and_list_pairs():
    # (9,2) has 2^16 + 55,439 edges, so the scatter takes two blocks of pairs
    rng = np.random.default_rng(0)
    for n, q in [(4, 2), (2, 3), (9, 2)]:
        g = nz.build(SpaceParams(n, q))
        data = serialize.graph_to_dict(g)
        assert serialize.graphs_equal(g, serialize.graph_from_dict(data))
        loaded = json.loads(serialize.graph_to_json(g))
        assert loaded["edges"] == data["edges"].tolist()
        assert serialize.graphs_equal(g, serialize.graph_from_dict(loaded))
        tuples = {**loaded, "edges": [tuple(e) for e in loaded["edges"]]}
        assert serialize.graphs_equal(g, serialize.graph_from_dict(tuples))
        # the same pairs reversed (u > v), shuffled, or in another integer dtype
        edges = data["edges"]
        for same in (edges[:, ::-1], rng.permutation(edges), edges.astype(np.int64),
                     edges.astype(np.uint16), rng.permutation(edges[:, ::-1]).tolist()):
            assert serialize.graphs_equal(g, serialize.graph_from_dict({**data, "edges": same}))
        # a duplicate, plain or reversed, in the last scatter block still raises
        for dup in (edges[3], edges[3][::-1]):
            bad = edges.copy()
            bad[-1] = dup
            with pytest.raises(ValueError, match=NOT_THE_GRAPH):
                serialize.graph_from_dict({**data, "edges": bad})


def test_roundtrip_of_a_graph_without_edges():
    g = nz.build(SpaceParams(1, 2))
    assert g.edges().shape == (0, 2)
    for data in (serialize.graph_to_dict(g), json.loads(serialize.graph_to_json(g))):
        assert serialize.graphs_equal(g, serialize.graph_from_dict(data))


def _tampered(edit):
    g = nz.build(SpaceParams(4, 2))
    data = json.loads(serialize.graph_to_json(g))
    edit(data["edges"], g.num_vertices)
    return data


NOT_THE_GRAPH = "not the skeleton-intersection graph, each edge once"


# apart from "missing" and "extra", each edit keeps the edge count (4,2) has
@pytest.mark.parametrize("edit, reason", [
    (lambda es, nv: es.pop(7), "edge list has 79 entries, the graph has 80 edges"),
    (lambda es, nv: es.append(list(es[3])), "edge list has 81 entries"),
    (lambda es, nv: es.__setitem__(7, list(es[3])), NOT_THE_GRAPH),
    (lambda es, nv: es.__setitem__(7, es[3][::-1]), NOT_THE_GRAPH),
    (lambda es, nv: es.__setitem__(7, [6, 7]), NOT_THE_GRAPH),
    (lambda es, nv: es.__setitem__(0, [es[0][0], nv]), "outside 0..14"),
    (lambda es, nv: es.__setitem__(0, [-1, es[0][1]]), "outside 0..14"),
    (lambda es, nv: es.__setitem__(0, es[0] + [0]), "not a pair"),
    (lambda es, nv: es.__setitem__(0, [es[0][0]] * 2), NOT_THE_GRAPH),
    (lambda es, nv: es.__setitem__(0, [es[0][0], float(es[0][1])]), "pairs of vertex ids"),
    (lambda es, nv: es.__setitem__(0, [es[0][0], 2**70]), "pairs of vertex ids"),
    (lambda es, nv: es.__setitem__(0, [es[0][0], None]), "pairs of vertex ids"),
    (lambda es, nv: es.__setitem__(0, [es[0][0], "3"]), "pairs of vertex ids"),
    (lambda es, nv: es.__setitem__(slice(None), [[bool(v), bool(u)] for v, u in es]),
     "pairs of vertex ids"),
    # es[0] is [0, 2], so [False, 2] is the same edge if the bool is read as 0
    (lambda es, nv: es.__setitem__(0, [False, es[0][1]]), "^edge entries must be pairs of "
                                                          "vertex ids, not bool$"),
    (lambda es, nv: es.__setitem__(0, (np.False_, es[0][1])), "^edge entries must be pairs "
                                                              "of vertex ids, not bool$"),
], ids=["missing", "extra", "duplicate", "duplicate-reversed", "non-edge", "out-of-range",
        "negative", "triple", "self-loop", "float", "huge", "null", "string", "all-bool",
        "one-bool", "one-numpy-bool"])
def test_graph_from_dict_rejects_bad_edges(edit, reason):
    with pytest.raises(ValueError, match=reason):
        serialize.graph_from_dict(_tampered(edit))


def test_graph_from_dict_rejects_short_edge_list_before_dense_matrices():
    # at (11,2) each 2,047 x 2,047 bool matrix is 4.2 MB
    g = nz.build(SpaceParams(11, 2))
    data = serialize.graph_to_dict(g)
    for edges in ([], data["edges"][:-1]):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="entries, the graph has 2007555 edges"):
                serialize.graph_from_dict({**data, "edges": edges})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def _set(path, value):
    """An edit that sets data[path[0]]...[path[-1]] to `value`, or deletes it."""
    def edit(data):
        *parents, key = path
        inner = data
        for k in parents:
            inner = inner[k]
        if value is KeyError:
            del inner[key]
        else:
            inner[key] = value
        return data
    return edit


@pytest.mark.parametrize("edit, reason", [
    (_set(["vertices"], KeyError), "graph has no 'vertices' field"),
    (_set(["edges"], KeyError), "graph has no 'edges' field"),
    (_set(["n"], KeyError), "graph has no 'n' field"),
    (_set(["vertices", 0, "coeffs"], KeyError), "vertex 0 has no 'coeffs' field"),
    (_set(["vertices", 0, "id"], "0"), "vertex id must be an integer, not str"),
    (_set(["vertices", 0, "id"], True), "vertex id must be an integer, not bool"),
    (_set(["vertices", 0, "coeffs"], None), "vertex 0 coeffs must be a list of integers"),
    (_set(["vertices", 0, "coeffs", 0], 1.5), "vertex 0 coeffs entry must be an integer, not float"),
    (_set(["vertices", 0, "skeleton"], "1"), "vertex 0 skeleton must be a list of integers"),
    (_set(["vertices", 0, "skeleton", 0], 1.0), "vertex 0 skeleton entry must be an integer"),
    (_set(["vertices", 0, "class"], True), "vertex 0 class must be an integer, not bool"),
    (_set(["vertices", 0], [1, 0]), "vertex is a list, not a dict"),
    (_set(["vertices"], 5), "vertices must be a list, not int"),
    (_set(["edges"], None), "edges must be a list of pairs, not NoneType"),
    (_set(["n"], 2.7), "n must be an integer, not float"),
    (_set(["n"], "2"), "n must be an integer, not str"),
    (_set(["q"], 3.0), "q must be an integer, not float"),
    (lambda data: list(data.items()), "graph is a list, not a dict"),
], ids=["no-vertices", "no-edges", "no-n", "no-coeffs", "id-str", "id-bool", "coeffs-null",
        "coeff-float", "skeleton-str", "skeleton-float", "class-bool", "vertex-list",
        "vertices-int", "edges-null", "n-float", "n-str", "q-float", "graph-list"])
def test_graph_from_dict_rejects_malformed_fields(edit, reason):
    data = edit(json.loads(serialize.graph_to_json(nz.build(SpaceParams(2, 3)))))
    with pytest.raises(ValueError, match=reason):
        serialize.graph_from_dict(data)


def test_graph_from_dict_refuses_a_q_of_5000_digits_at_the_cap():
    with pytest.raises(nz.CapExceededError, match="^q\\*\\*n - 1 exceeds cap 65535$"):
        serialize.graph_from_dict({"n": 2, "q": 10**5000, "vertices": [], "edges": []})


def test_graph_from_dict_accepts_numpy_integers():
    g = nz.build(SpaceParams(2, 3))
    data = serialize.graph_to_dict(g)
    data.update(n=np.int64(2), q=np.uint8(3))
    data["vertices"][0].update(id=np.int32(0), coeffs=list(np.array([1, 0])), skeleton=[np.int8(1)])
    assert serialize.graphs_equal(g, serialize.graph_from_dict(data))


def _reference_vertices(params, entries):
    """The vertex checks of graph_from_dict as one loop per record: the
    reference that the array screen must never be more lenient than."""
    from nzcgraph.serialize import _field
    from nzcgraph.vectorspace import _integer, _integers, mask_from_indices

    entries = sorted(entries, key=lambda e: _integer(_field(e, "id", "vertex"), "vertex id"))
    if [e["id"] for e in entries] != list(range(params.num_vertices)):
        raise ValueError("vertex ids are not the contiguous canonical range")
    vertices = []
    skeletons = []
    for e in entries:
        where = f"vertex {e['id']}"
        coeffs = _integers(_field(e, "coeffs", where), f"{where} coeffs")
        if nz.vector_id(params, coeffs) != e["id"]:
            raise ValueError(f"{where} is out of canonical order")
        mask = nz.skeleton(coeffs)
        indices = _integers(_field(e, "skeleton", where), f"{where} skeleton")
        if mask_from_indices(indices) != mask:
            raise ValueError(f"{where}: skeleton does not match coefficients")
        if _integer(_field(e, "class", where), f"{where} class") != mask.bit_count():
            raise ValueError(f"{where}: class does not match skeleton size")
        vertices.append(coeffs)
        skeletons.append(mask)
    return vertices, skeletons


def _reference_id_order(params, entries):
    """The id check with a full sort of every list: the reference for
    graph_from_dict's in-order shortcut."""
    from nzcgraph.serialize import _field
    from nzcgraph.vectorspace import _integer

    entries = sorted(entries, key=lambda e: _integer(_field(e, "id", "vertex"), "vertex id"))
    if [e["id"] for e in entries] != list(range(params.num_vertices)):
        raise ValueError("vertex ids are not the contiguous canonical range")
    return entries


# each edit maps the list of vertex records and a seeded random.Random to a
# new list; the records' ids are the only fields changed
ID_EDITS = {
    "in-order": lambda es, r: es,
    "shuffled": lambda es, r: r.sample(es, len(es)),
    "swapped": lambda es, r: [es[1], es[0], *es[2:]],
    "numpy": lambda es, r: _nudged(es, r, lambda e: {**e, "id": np.int64(e["id"])}),
    "numpy-shuffled": lambda es, r: r.sample([{**e, "id": np.int16(e["id"])} for e in es], len(es)),
    "bool": lambda es, r: _nudged(es, r, lambda e: {**e, "id": bool(e["id"])}),
    "str": lambda es, r: _nudged(es, r, lambda e: {**e, "id": str(e["id"])}),
    "float": lambda es, r: _nudged(es, r, lambda e: {**e, "id": float(e["id"])}),
    "missing": lambda es, r: _nudged(es, r, lambda e: {k: v for k, v in e.items() if k != "id"}),
    "str-then-bool": lambda es, r: _nudged(_nudged(es, r, lambda e: {**e, "id": str(e["id"])}),
                                           r, lambda e: {**e, "id": bool(e["id"])}),
    "shuffled-str": lambda es, r: _nudged(r.sample(es, len(es)), r,
                                          lambda e: {**e, "id": str(e["id"])}),
    "duplicate": lambda es, r: _nudged(es, r, lambda e: {**e, "id": (e["id"] + 1) % len(es)}),
    "past-the-end": lambda es, r: _nudged(es, r, lambda e: {**e, "id": len(es)}),
    "negative": lambda es, r: _nudged(es, r, lambda e: {**e, "id": -1}),
    "one-short": lambda es, r: es[:-1],
}


@pytest.mark.parametrize("n, q", [(3, 2), (2, 3)])
def test_id_order_shortcut_matches_the_full_sort(n, q):
    import random

    g = nz.build(SpaceParams(n, q))
    for name, edit in ID_EDITS.items():
        for seed in range(6):
            data = json.loads(serialize.graph_to_json(g))
            data["vertices"] = edit(data["vertices"], random.Random(f"{name} {n} {q} {seed}"))
            try:
                want = _reference_id_order(g.params, data["vertices"])
            except ValueError as exc:
                with pytest.raises(ValueError) as caught:
                    serialize.graph_from_dict(data)
                assert str(caught.value) == str(exc), (name, seed)
            else:
                assert [e["id"] for e in want] == list(range(g.num_vertices))
                assert serialize.graphs_equal(g, serialize.graph_from_dict(data)), (name, seed)


def _nudged(xs, rng, f):
    """A copy of the list `xs` with one seeded entry x replaced by f(x)."""
    xs = list(xs)
    k = rng.randrange(len(xs))
    xs[k] = f(xs[k])
    return xs


def _forged_coeffs(e, rng, n, q):
    """Coefficients with the same radix value, one of them moved out of
    0..q-1 by a carry or a borrow between positions i - 1 and i, and the
    skeleton and class made to match them."""
    c = list(e["coeffs"])
    i = rng.randrange(1, n)
    step = q if c[i] else -q
    c[i - 1] += step
    c[i] -= step // q
    skeleton = [k + 1 for k in range(n) if c[k]]
    return {**e, "coeffs": c, "skeleton": skeleton, "class": len(skeleton)}


def _forged_skeleton(e, rng, n, q):
    """A skeleton whose bits, as int64 shifts, still sum to the mask: index i
    replaced by [i - 1, i - 1], 0 added in front or 65 at the end (numpy
    shifts 1 by -1 or 64 to 0), with the class raised by one."""
    idx = list(e["skeleton"])
    forgeries = [[0] + idx, idx + [65]]
    k = next((k for k, i in enumerate(idx) if i >= 2), None)
    if k is not None:
        forgeries.append(idx[:k] + [idx[k] - 1] * 2 + idx[k + 1:])
    return {**e, "skeleton": rng.choice(forgeries), "class": e["class"] + 1}


# each edit maps one vertex record, a dict, a seeded random.Random, n and q
# to the tampered record; the two forged ones keep the fields consistent
RECORD_EDITS = {
    "coeffs-forged": _forged_coeffs,
    "skeleton-forged": _forged_skeleton,
    "coeff-plus-one": lambda e, r, n, q: {**e, "coeffs": _nudged(e["coeffs"], r, lambda c: c + 1)},
    "coeff-minus-one": lambda e, r, n, q: {**e, "coeffs": _nudged(e["coeffs"], r, lambda c: c - 1)},
    "coeff-q": lambda e, r, n, q: {**e, "coeffs": _nudged(e["coeffs"], r, lambda c: q)},
    "coeff-huge": lambda e, r, n, q: {**e, "coeffs": _nudged(e["coeffs"], r, lambda c: 2**70)},
    "coeffs-long": lambda e, r, n, q: {**e, "coeffs": e["coeffs"] + [0]},
    "coeffs-short": lambda e, r, n, q: {**e, "coeffs": e["coeffs"][:-1]},
    "coeff-bool": lambda e, r, n, q: {**e, "coeffs": _nudged(e["coeffs"], r, bool)},
    "coeff-float": lambda e, r, n, q: {**e, "coeffs": _nudged(e["coeffs"], r, float)},
    "coeff-null": lambda e, r, n, q: {**e, "coeffs": _nudged(e["coeffs"], r, lambda c: None)},
    "coeffs-str": lambda e, r, n, q: {**e, "coeffs": "".join(map(str, e["coeffs"]))},
    "coeffs-int": lambda e, r, n, q: {**e, "coeffs": e["coeffs"][0]},
    "skeleton-empty": lambda e, r, n, q: {**e, "skeleton": []},
    "skeleton-zero": lambda e, r, n, q: {**e, "skeleton": _nudged(e["skeleton"], r, lambda i: 0)},
    "skeleton-past-n": lambda e, r, n, q: {**e, "skeleton": _nudged(e["skeleton"], r,
                                                                    lambda i: n + 1)},
    "skeleton-shifted": lambda e, r, n, q: {**e, "skeleton": _nudged(e["skeleton"], r,
                                                                     lambda i: i % n + 1)},
    "skeleton-unsorted": lambda e, r, n, q: {**e, "skeleton": e["skeleton"][::-1]},
    "skeleton-repeated": lambda e, r, n, q: {**e, "skeleton": e["skeleton"] + e["skeleton"][-1:]},
    "skeleton-bool": lambda e, r, n, q: {**e, "skeleton": _nudged(e["skeleton"], r, bool)},
    "skeleton-float": lambda e, r, n, q: {**e, "skeleton": _nudged(e["skeleton"], r, float)},
    "skeleton-null": lambda e, r, n, q: {**e, "skeleton": _nudged(e["skeleton"], r,
                                                                  lambda i: None)},
    "class-plus-one": lambda e, r, n, q: {**e, "class": e["class"] + 1},
    "class-minus-one": lambda e, r, n, q: {**e, "class": e["class"] - 1},
    "class-bool": lambda e, r, n, q: {**e, "class": bool(e["class"])},
    "no-coeffs": lambda e, r, n, q: {k: v for k, v in e.items() if k != "coeffs"},
    "no-skeleton": lambda e, r, n, q: {k: v for k, v in e.items() if k != "skeleton"},
    "no-class": lambda e, r, n, q: {k: v for k, v in e.items() if k != "class"},
    "numpy-ints": lambda e, r, n, q: {**e, "coeffs": list(np.array(e["coeffs"])),
                                      "skeleton": list(np.array(e["skeleton"], dtype=np.uint8)),
                                      "class": np.int16(e["class"])},
    "tuples": lambda e, r, n, q: {**e, "coeffs": tuple(e["coeffs"]),
                                  "skeleton": tuple(e["skeleton"])},
}


@pytest.mark.parametrize("n, q", [(3, 2), (2, 3), (4, 3)])
def test_vertex_screen_never_accepts_what_the_loop_rejects(n, q):
    import random

    g = nz.build(SpaceParams(n, q))
    plain = json.loads(serialize.graph_to_json(g))
    for data in (plain, serialize.graph_to_dict(g)):  # the screen takes the usual records
        screened = serialize._screen_vertices(g.params, data["vertices"])
        assert screened is not None
        assert screened[0] == g.vertices and screened[1].tolist() == g.skeletons.tolist()
    for name, edit in RECORD_EDITS.items():
        for seed in range(6):
            rng = random.Random(f"{name} {n} {q} {seed}")
            data = json.loads(serialize.graph_to_json(g))
            v = rng.randrange(g.num_vertices)
            data["vertices"][v] = edit(data["vertices"][v], rng, n, q)
            try:
                want = _reference_vertices(g.params, data["vertices"])
            except ValueError as exc:
                want = str(exc)
            screened = serialize._screen_vertices(g.params, data["vertices"])
            if screened is not None:
                assert not isinstance(want, str), (name, seed, want)
                assert screened[0] == want[0] and screened[1].tolist() == want[1]
            if isinstance(want, str):
                with pytest.raises(ValueError) as caught:
                    serialize.graph_from_dict(data)
                assert str(caught.value) == want, (name, seed)
            else:
                assert serialize.graphs_equal(g, serialize.graph_from_dict(data)), (name, seed)
    # records whose ids are not the canonical range in order are left to the
    # loop, whose import or message test_id_order_shortcut_matches_the_full_sort
    # checks on the same edits
    for name, edit in ID_EDITS.items():
        for seed in range(6):
            entries = json.loads(serialize.graph_to_json(g))["vertices"]
            entries = edit(entries, random.Random(f"{name} {n} {q} {seed}"))
            screened = serialize._screen_vertices(g.params, entries)
            assert (screened is None) == (name != "in-order"), (name, seed)
    # valid but unusual records take the loop and import, at a vertex with
    # two skeleton indices so that reversing them unsorts them; a record
    # that is a tuple of its fields is no dict, and the loop names it
    v = next(v for v in range(g.num_vertices) if g.sizes[v] >= 2)
    for name in ("numpy-ints", "tuples", "skeleton-unsorted", "skeleton-repeated"):
        data = json.loads(serialize.graph_to_json(g))
        data["vertices"][v] = RECORD_EDITS[name](data["vertices"][v], None, n, q)
        assert serialize._screen_vertices(g.params, data["vertices"]) is None, name
        assert serialize.graphs_equal(g, serialize.graph_from_dict(data)), name
    data = json.loads(serialize.graph_to_json(g))
    data["vertices"][v] = tuple(data["vertices"][v].items())
    assert serialize._screen_vertices(g.params, data["vertices"]) is None
    with pytest.raises(ValueError, match="^vertex is a tuple, not a dict$"):
        serialize.graph_from_dict(data)


def test_canonical_records_import_with_no_python_call_per_record():
    g = nz.build(SpaceParams(9, 2))  # 511 records
    for data in (serialize.graph_to_dict(g), json.loads(serialize.graph_to_json(g))):
        calls = collections.Counter()

        def count(frame, event, arg):
            if event == "call":
                calls[frame.f_code.co_name] += 1

        sys.setprofile(count)
        try:
            back = serialize.graph_from_dict(data)
        finally:
            sys.setprofile(None)
        assert serialize.graphs_equal(g, back)
        assert calls["_field"] == 4 and "_check_vertices" not in calls  # n, q, vertices, edges
        assert sum(calls.values()) < 128, calls.most_common(5)


def test_graph_to_dict_records_are_the_per_vertex_construction():
    for n, q in [(n, 2) for n in range(1, 10)] + [(2, 3), (3, 3), (4, 3)]:
        g = nz.build(SpaceParams(n, q))
        want = [{"id": v, "coeffs": list(g.vertices[v]),
                 "skeleton": list(nz.skeleton_indices(int(g.skeletons[v]))),
                 "class": int(g.sizes[v])} for v in range(g.num_vertices)]
        got = serialize.graph_to_dict(g)["vertices"]
        assert got == want
        assert {type(x) for e in got for x in (e["id"], e["class"], *e["coeffs"], *e["skeleton"])} \
            == {int}
    # (2,3): ids 0 and 1 are b1 and 2b1, twins with skeleton [1]; each record has its own list
    g = nz.build(SpaceParams(2, 3))
    records = serialize.graph_to_dict(g)["vertices"]
    assert records[0]["skeleton"] == records[1]["skeleton"] == [1]
    records[0]["skeleton"].append(2)
    assert records[1]["skeleton"] == [1] and records[0]["skeleton"] == [1, 2]
    assert serialize.graph_to_dict(g)["vertices"][0]["skeleton"] == [1]


def test_roundtrip_report_builds_no_object_per_edge():
    # (11,2) has 2,007,555 edges: one (E, 2) int64 array is 32 MB, a Python
    # list of pairs several times that
    from nzcgraph import verify

    g = nz.build(SpaceParams(11, 2))
    tracemalloc.start()
    try:
        rep = verify._report_json_roundtrip(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.status == "pass"
    assert peak < 120 * 2**20
    # the uint16 edge array (8 MB) and the re-imported matrix (4 MB), with
    # the dict freed before the comparison
    assert peak < 16 * 2**20


def test_roundtrip_report_fails_on_rejected_json(monkeypatch):
    from nzcgraph import verify

    g = nz.build(SpaceParams(3, 2))
    emit = serialize.graph_to_dict

    def drop_an_edge(graph):
        data = emit(graph)
        data["edges"] = data["edges"][:-1]
        return data

    monkeypatch.setattr(serialize, "graph_to_dict", drop_an_edge)
    rep = verify._report_json_roundtrip(g)
    assert rep.status == "fail"
    assert rep.failures == ["emitted JSON does not re-import: "
                            "edge list has 14 entries, the graph has 15 edges"]


def test_config_env_supplies_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "nzc.json"
    cfg.write_text(json.dumps({"format": "dot", "vertex_cap": 10}))
    monkeypatch.setenv("NZC_CONFIG", str(cfg))
    rc, out, _ = run(capsys, "build", "-n", "2", "-q", "2")
    assert rc == 0
    assert out.startswith("graph nzc {")  # format picked up from the config
    rc, _, _ = run(capsys, "build", "-n", "4", "-q", "2")
    assert rc == 3  # vertex_cap from the config applies
    # explicit flags win over the config
    rc, out, _ = run(capsys, "build", "-n", "4", "-q", "2", "--vertex-cap", "100",
                     "--format", "json")
    assert rc == 0


def test_config_cannot_set_an_engine_limit(capsys, tmp_path, monkeypatch):
    # the oracle's vertex cap is a module constant; the file cannot lower it
    cfg = tmp_path / "nzc.json"
    cfg.write_text(json.dumps({"oracle_cap": 5, "no_such_key": 1}))
    monkeypatch.setenv("NZC_CONFIG", str(cfg))
    assert run(capsys, "aut", "-n", "2", "-q", "3", "--engine", "oracle") == (
        0, "oracle engine: |Aut| = 192\norbits: [0, 1, 2, 5] [3, 4, 6, 7]\n", "")


@pytest.mark.parametrize("argv, config, err", [
    (["build", "-n", "3", "-q", "2"], {"vertex_cap": "5"}, "--vertex-cap must be >= 1"),
    (["build", "-n", "3", "-q", "2"], {"format": "svg"}, "--format must be one of json, dot, table"),
    (["labeling", "-n", "4", "-q", "2"], {"format": "dot"}, "--format must be one of json, table"),
    (["twins", "-n", "2", "-q", "3"], {"format": 5}, "--format must be one of json, dot, table"),
    (["verify", "-n", "3", "-q", "2"], {"seed": 1.5}, "--seed must be >= 0"),
    (["verify", "-n", "3", "-q", "2", "--seed", "-1"], None, "--seed must be >= 0"),
    (["twins", "-n", "2", "-q", "3"], [1, 2],
     "cannot read NZC_CONFIG config: the file must hold a JSON object"),
    (["verify", "-n", "5..3", "-q", "2"], None, "-n 5..3 is an empty range"),
    (["verify", "-n", "2", "-q", "2..1"], None, "-q 2..1 is an empty range"),
    (["verify", "-n", "3..", "-q", "2"], None, "-n 3.. is not an integer or a range like 3..8"),
    (["verify", "-n", "a", "-q", "2"], None, "-n a is not an integer or a range like 3..8"),
    (["verify", "-n", "1..2..3", "-q", "2"], None,
     "-n 1..2..3 is not an integer or a range like 3..8"),
    (["verify", "-n", "2", "-q", "x..3"], None, "-q x..3 is not an integer or a range like 3..8"),
], ids=["vertex-cap-string", "build-format", "labeling-format", "twins-format",
        "seed-float", "seed-flag-negative", "config-not-object",
        "empty-n-range", "empty-q-range", "open-n-range", "n-not-integer", "n-three-ends",
        "q-not-integer"])
def test_settings_are_checked_before_any_work(capsys, tmp_path, monkeypatch, argv, config, err):
    def no_build(params):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(nz.graph, "build", no_build)
    if config is not None:
        cfg = tmp_path / "nzc.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv("NZC_CONFIG", str(cfg))
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [["verify", "-n", "3..8", "-q", "2"],
                                  ["build", "-n", "3", "-q", "2"]])
def test_unwritable_out_exits_2_before_any_work(capsys, tmp_path, monkeypatch, argv):
    def no_build(params):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(nz.graph, "build", no_build)
    out = tmp_path / "missing" / "report.json"
    assert run(capsys, *argv, "--out", str(out)) == (
        2, "", f"error: --out {out} cannot be written\n")
    assert not out.parent.exists()
    assert run(capsys, *argv, "--out", str(tmp_path)) == (
        2, "", f"error: --out {tmp_path} cannot be written\n")


def test_rejected_range_leaves_out_file_untouched(capsys, tmp_path):
    out = tmp_path / "report.json"
    out.write_text("kept")
    assert run(capsys, "verify", "-n", "5..3", "-q", "2", "--out", str(out)) == (
        2, "", "error: -n 5..3 is an empty range\n")
    assert out.read_text() == "kept"


def test_oracle_cap_bounds_the_distinguishing_number(capsys, tmp_path, monkeypatch):
    # (2,3) has 8 vertices: under an oracle vertex cap of 5 no group is
    # enumerated, so the value 4 comes from the twin bound and the validated scheme
    cert = tmp_path / "cert.json"
    monkeypatch.setattr(nz.symmetry, "ORACLE_VERTEX_CAP", 5)
    rc, _, _ = run(capsys, "verify", "-n", "2", "-q", "3", "--out", str(cert))
    assert rc == 0
    claims = {c["claim"]: c for c in json.loads(cert.read_text())["claims"]}
    assert "group-axioms" not in claims
    dist = claims["distinguishing-number"]
    assert dist["status"] == "pass"
    assert (dist["details"]["method"], dist["details"]["refuted"]) == ("bounded", None)
    rc, out, _ = run(capsys, "dist", "-n", "2", "-q", "3")
    assert rc == 0
    assert out.startswith("4 (lower=twin-sets 4, upper=twin-injective-scheme 4)\n")
    monkeypatch.undo()
    rc, out, _ = run(capsys, "dist", "-n", "2", "-q", "3")
    assert rc == 0
    assert out.startswith("exact 4 (search refuted 3 colours)\n")


def test_verify_runs_the_oracle_once_per_graph(monkeypatch):
    # at q = 2 the oracle fits n <= 5; one run serves engines-agree and the
    # extension check
    from nzcgraph import symmetry, verify

    calls = []
    oracle = symmetry.aut_group_oracle

    def counted(g, **kwargs):
        calls.append(g.params.n)
        return oracle(g, **kwargs)

    monkeypatch.setattr(symmetry, "aut_group_oracle", counted)
    for n in range(1, 6):
        claims = {r.claim: r for r in verify.verify_params(n, 2)}
        assert all(r.status != "fail" for r in claims.values())
        assert claims["engines-agree"].details["oracle_order"] == factorial(n)
        assert claims["basis-extension-isomorphism"].details["oracle_order"] == factorial(n)
    assert calls == [1, 2, 3, 4, 5]


def test_verify_cross_checks_run_for_the_same_graphs():
    # automorphism-structure once ran while order * |V| <= 200,000, and the
    # 2-colour search cross-check while |V| <= 70. At q = 2 the group exists
    # for n <= 8 with order n!, where both gates select exactly n <= 6
    from nzcgraph import symmetry, verify

    for n in range(1, 9):
        assert factorial(n) <= symmetry.GROUP_BUDGET
        nv = 2**n - 1
        assert (factorial(n) * nv <= 200_000) == (nv <= verify.CROSS_CHECK_VERTICES) == (n <= 6)
    assert factorial(9) > symmetry.GROUP_BUDGET
    for n in (6, 7):
        claims = {r.claim: r for r in verify.verify_params(n, 2)}
        assert ("automorphism-structure" in claims) == (n <= 6)
        engines = claims["two-colour-distinguishing"].details["engines"]
        assert ("colour-preserving-search" in engines) == (n <= 6)


@pytest.mark.parametrize("engine,ranges,want", [
    ("find_color_preserving", ("2..5", "3"), [2, 3, 4, 5]),
    ("structural_survivors", ("9", "2"), [9]),
])
def test_verify_checks_the_constructive_scheme_once_per_graph(capsys, monkeypatch,
                                                              engine, ranges, want):
    # the scheme certificate reads the verdict dist_number reached; at (2,3)
    # the verdict is the group scan and the search runs as the cross-check
    from nzcgraph import distinguishing

    calls = []
    search = getattr(distinguishing, engine)

    def counted(g, f):
        calls.append(g.params.n)
        return search(g, f)

    monkeypatch.setattr(distinguishing, engine, counted)
    rc, out, _ = run(capsys, "verify", "-n", ranges[0], "-q", ranges[1])
    assert rc == 0 and " 0 fail" in out
    assert calls == want


def test_verify_streams_its_lines_and_a_crash_exits_5(capsys, monkeypatch):
    rc, before, _ = run(capsys, "verify", "-n", "3", "-q", "2")
    assert rc == 0
    emit = serialize.graph_to_dict

    def out_of_memory_at_n4(g):
        if g.params.n == 4:
            raise MemoryError("Unable to allocate 2.00 GiB\nfor an array")
        return emit(g)

    monkeypatch.setattr(serialize, "graph_to_dict", out_of_memory_at_n4)
    rc, out, err = run(capsys, "verify", "-n", "3..4", "-q", "2")
    assert rc == 5
    n3_lines = before.rsplit("summary:", 1)[0]
    assert out.startswith(n3_lines) and "n=4 q=2 degree-formula-q2" in out
    assert "summary:" not in out
    assert err == "error: MemoryError: Unable to allocate 2.00 GiB for an array\n"


def test_deterministic_outputs(capsys):
    rc1, out1, _ = run(capsys, "build", "-n", "3", "-q", "3", "--format", "json")
    rc2, out2, _ = run(capsys, "build", "-n", "3", "-q", "3", "--format", "json")
    assert (rc1, out1) == (rc2, out2)
    rc1, out1, _ = run(capsys, "verify", "-n", "5", "-q", "2", "--seed", "3")
    rc2, out2, _ = run(capsys, "verify", "-n", "5", "-q", "2", "--seed", "3")
    assert (rc1, out1) == (rc2, out2)


def test_out_file(capsys, tmp_path):
    target = tmp_path / "graph.json"
    rc, out, _ = run(capsys, "build", "-n", "2", "-q", "2", "--out", str(target))
    assert rc == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


# the flags each subcommand offers past -n and -q; no other flag parses
CLI_FLAGS = {
    "build": {"--vertex-cap", "--out", "--format"},
    "labeling": {"--vertex-cap", "--out", "--format"},
    "twins": {"--vertex-cap", "--out"},
    "aut": {"--vertex-cap", "--out", "--engine"},
    "orbits": {"--vertex-cap", "--out", "--engine"},
    "dist": {"--vertex-cap", "--out"},
    "verify": {"--vertex-cap", "--seed", "--out"},
}
# the engine limits behind --oracle-cap, --exact-cap and --samples are module constants
DROPPED = [(command, flag) for command, flags in CLI_FLAGS.items()
           for flag in ("--oracle-cap", "--exact-cap", "--samples", "--seed")
           if flag not in flags]
FLAG_VALUES = {"--format": "table", "--engine": "oracle", "--out": "report.txt"}


@pytest.mark.parametrize("command, flag", DROPPED, ids=[" ".join(p) for p in DROPPED])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "-n", "3", "-q", "2", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


KEPT = [(command, flag) for command, flags in CLI_FLAGS.items() for flag in sorted(flags)]


@pytest.mark.parametrize("command, flag", KEPT, ids=[" ".join(p) for p in KEPT])
def test_a_flag_the_subcommand_reads_parses(command, flag):
    value = FLAG_VALUES.get(flag, "1")
    args = cli.build_parser().parse_args([command, "-n", "3", "-q", "2", flag, value])
    assert str(getattr(args, flag[2:].replace("-", "_"))) == value


@pytest.mark.parametrize("command", CLI_FLAGS)
def test_help_lists_exactly_the_flags_the_subcommand_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) == CLI_FLAGS[command] | {"--help"}


def test_format_in_the_config_is_checked_for_every_subcommand(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "nzc.json"
    monkeypatch.setenv("NZC_CONFIG", str(cfg))
    for command in CLI_FLAGS:
        cfg.write_text(json.dumps({"format": 5}))
        rc, out, err = run(capsys, command, "-n", "3", "-q", "2")
        assert (rc, out) == (2, "") and err.startswith("error: --format must be one of ")
        cfg.write_text(json.dumps({"format": "table"}))
        assert run(capsys, command, "-n", "3", "-q", "2")[0] == 0


def test_verify_help_says_where_out_and_the_lines_go(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "write the JSON report to FILE; the certificate lines still go to stdout" in help_text
    assert "instead of stdout" not in help_text


def test_verify_seed_and_out_run_as_the_benchmark_calls_them(capsys, tmp_path):
    target = tmp_path / "verify.json"
    rc, out, _ = run(capsys, "verify", "-n", "3", "-q", "2", "--seed", "7", "--out", str(target))
    assert rc == 0 and out.endswith("summary: 17 pass, 0 fail, 0 anomaly\n")
    assert json.loads(target.read_text())["summary"] == {"pass": 17, "fail": 0, "anomaly": 0}


def test_config_keys_are_checked_for_every_subcommand(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "nzc.json"
    cfg.write_text(json.dumps({"seed": -1}))
    monkeypatch.setenv("NZC_CONFIG", str(cfg))
    for command in CLI_FLAGS:
        assert run(capsys, command, "-n", "2", "-q", "2") == (2, "", "error: --seed must be >= 0\n")


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_calls_keep_no_flag_of_the_call_before(capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    seeds = []
    monkeypatch.setattr(cli.vfy, "verify_ranges", lambda *_, seed, **__: seeds.append(seed) or [])
    assert run(capsys, "verify", "-n", "3", "-q", "2", "--seed", "3")[0] == 0
    assert run(capsys, "verify", "-n", "3", "-q", "2")[0] == 0
    assert seeds == [3, 0]
    rc, out, _ = run(capsys, "build", "-n", "2", "-q", "2", "--format", "dot")
    assert rc == 0 and out.startswith("graph nzc {")
    assert run(capsys, "build", "-n", "2", "-q", "2") == run(capsys, "build", "-n", "2", "-q", "2",
                                                             "--format", "json")
    rc, out, _ = run(capsys, "aut", "-n", "3", "-q", "2", "--engine", "oracle")
    assert rc == 0 and out.startswith("oracle engine: |Aut| = 6\n")
    rc, out, _ = run(capsys, "aut", "-n", "3", "-q", "2")
    assert rc == 0 and out.startswith("structural engine: |Aut| = 6\n")
    rc, out, _ = run(capsys, "aut", "-n", "2", "-q", "3")
    assert rc == 0 and out.startswith("oracle engine: |Aut| = 192\n")


@pytest.mark.parametrize("bad", [["aut", "-n", "3", "-q", "2", "--seed", "1"],
                                 ["aut", "-n", "3", "-q", "2", "--engine", "none"],
                                 ["aut", "-n", "3"], ["nothing"]])
def test_a_usage_error_leaves_the_next_call_its_normal_output(capsys, monkeypatch, bad):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    argv = ["aut", "-n", "3", "-q", "2", "--engine", "both"]
    want = run(capsys, *argv)
    assert want[0] == 0 and want[2] == ""
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: nzc")
    assert run(capsys, *argv) == want
    assert run(capsys, "aut", "-n", "0", "-q", "2")[0] == 2  # exit 2 without SystemExit
    assert run(capsys, *argv) == want
