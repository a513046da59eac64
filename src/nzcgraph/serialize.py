"""Graph serialization: JSON dict schema, JSON text and DOT output for the CLI."""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from . import vectorspace as vs
from .graph import NzcGraph, _mirror_tiles, _row_step, _skeleton_mismatch, mask_bits
from .vectorspace import _integer, _integers


def _skeleton_lists(n: int) -> list[list[int]]:
    """The 1-based index list of every mask below 2^n, built by doubling: the
    list of mask m + 2^(b-1), for m < 2^(b-1), is the list of m with b appended."""
    table = [[]]
    for b in range(1, n + 1):
        table += [t + [b] for t in table]
    return table


def graph_to_dict(g: NzcGraph) -> dict:
    """Dict schema: n, q, vertices (id/coeffs/skeleton/class), the (E, 2) edge
    array of :meth:`NzcGraph.edges` in the vertex-id dtype, twin sets.

    Each record's `skeleton` is a fresh copy of one entry of
    :func:`_skeleton_lists`.
    """
    table = _skeleton_lists(g.params.n)
    return {
        "n": g.params.n,
        "q": g.params.q,
        "vertices": [
            {"id": v, "coeffs": list(c), "skeleton": table[s][:], "class": k}
            for v, c, s, k in zip(range(g.num_vertices), g.vertices,
                                  g.skeletons.tolist(), g.sizes.tolist())
        ],
        "edges": g.edges(),
        "twin_sets": [list(ts) for ts in g.twin_sets()],
    }


def graph_to_json(g: NzcGraph) -> str:
    """The dict schema as indented JSON text, one ``[v, u]`` list per edge.

    The text equals ``json.dumps(graph_to_dict(g), indent=2)`` with the edges
    as lists (``.tolist()``) and a final newline, but only the header and the
    twin sets go through the encoder. The edges are written in blocks of
    ``_row_step(2)`` pairs (2^16), one ``%`` format per block, in the same four
    lines per pair, so no Python list is made per edge.
    """
    data = graph_to_dict(g)
    edges, data["edges"] = data["edges"], None
    head, tail = json.dumps(data, indent=2).split('"edges": null')
    if not len(edges):
        return head + '"edges": []' + tail + "\n"
    pair = "    [\n      %d,\n      %d\n    ]"
    parts = [head, '"edges": [\n']
    step = _row_step(2)
    for lo in range(0, len(edges), step):
        block = edges[lo:lo + step]
        parts += [",\n" if lo else "", ",\n".join([pair] * len(block)) % tuple(block.ravel().tolist())]
    parts += ["\n  ]", tail, "\n"]
    return "".join(parts)


def _field(entry, key: str, where: str):
    """``entry[key]`` of a dict; anything else raises ValueError naming the field."""
    if not isinstance(entry, dict):
        raise ValueError(f"{where} is a {type(entry).__name__}, not a dict")
    if key not in entry:
        raise ValueError(f"{where} has no {key!r} field")
    return entry[key]


def _screen_vertices(params: vs.SpaceParams, entries):
    """The coefficient tuples and int64 masks of `entries` when they are the
    canonical records that :func:`graph_to_dict` writes, else None.

    Canonical record v is a dict whose `id` is v, `coeffs` row v of
    :func:`vectorspace.coefficient_array`, `skeleton` the index list of its
    mask and `class` its popcount, in lists of plain ints: one type test
    over the flat lists keeps out bools and floats, which compare equal to
    ints. Every other input, valid or not, is left to :func:`_check_vertices`.
    """
    if not set(map(type, entries)) <= {dict}:
        return None
    try:
        ids = [e["id"] for e in entries]
        coeffs = [e["coeffs"] for e in entries]
        indices = [e["skeleton"] for e in entries]
        classes = [e["class"] for e in entries]
    except KeyError:
        return None
    if not set(map(type, coeffs)) | set(map(type, indices)) <= {list}:
        return None
    flat = chain(ids, classes, chain.from_iterable(coeffs), chain.from_iterable(indices))
    if not set(map(type, flat)) <= {int}:
        return None
    digits = vs.coefficient_array(params)
    nonzero = digits != 0
    masks = nonzero @ (1 << np.arange(params.n))
    table = _skeleton_lists(params.n)
    if (ids != list(range(params.num_vertices)) or coeffs != digits.tolist()
            or indices != [table[m] for m in masks.tolist()]
            or classes != nonzero.sum(axis=1).tolist()):
        return None
    return list(map(tuple, coeffs)), masks


def _check_vertices(params: vs.SpaceParams, entries):
    """The coefficient tuples and masks of `entries`, one record at a time,
    every id before any record; the first bad one raises ValueError naming
    the vertex and the field. Records out of id order are sorted first."""
    nv = params.num_vertices
    ids = [_integer(_field(e, "id", "vertex"), "vertex id") for e in entries]
    if ids != list(range(nv)):
        if sorted(ids) != list(range(nv)):
            raise ValueError("vertex ids are not the contiguous canonical range")
        entries = sorted(entries, key=lambda e: int(e["id"]))
    vertices = []
    skeletons = []
    for e in entries:
        where = f"vertex {e['id']}"
        coeffs = _integers(_field(e, "coeffs", where), f"{where} coeffs")
        if vs.vector_id(params, coeffs) != e["id"]:
            raise ValueError(f"{where} is out of canonical order")
        mask = vs.skeleton(coeffs)
        indices = _integers(_field(e, "skeleton", where), f"{where} skeleton")
        if vs.mask_from_indices(indices) != mask:
            raise ValueError(f"{where}: skeleton does not match coefficients")
        if _integer(_field(e, "class", where), f"{where} class") != mask.bit_count():
            raise ValueError(f"{where}: class does not match skeleton size")
        vertices.append(coeffs)
        skeletons.append(mask)
    return vertices, np.array(skeletons, dtype=np.int64)


def graph_from_dict(data: dict, vertex_cap: int = vs.DEFAULT_VERTEX_CAP) -> NzcGraph:
    """Reconstruct a graph from the dict schema, validating consistency.

    Vertices must match their canonical ids, skeletons and classes; the edges
    (an (E, 2) array or JSON-loaded pairs) must be exactly the
    skeleton-intersection graph, each edge once. `n`, `q` and each vertex's
    id, coefficients, skeleton and class must be Python or numpy integers,
    and no edge endpoint may be a bool. A malformed dict raises ValueError
    that names the field.

    Records equal to the canonical ones are accepted by
    :func:`_screen_vertices` with no Python call per record. Any other form
    is read by :func:`_check_vertices`, one record at a time; it alone picks
    the error that a bad record raises.
    """
    params = vs.SpaceParams(_integer(_field(data, "n", "graph"), "n"),
                            _integer(_field(data, "q", "graph"), "q"), vertex_cap)
    entries = _field(data, "vertices", "graph")
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"vertices must be a list, not {type(entries).__name__}")
    nv = params.num_vertices
    vertices, skeletons = (_screen_vertices(params, entries)
                           or _check_vertices(params, entries))
    listed = _field(data, "edges", "graph")
    try:
        edges = np.asarray(listed)
    except ValueError:  # entries of different lengths
        raise ValueError("edge entry is not a pair") from None
    if not edges.ndim:
        raise ValueError(f"edges must be a list of pairs, not {type(listed).__name__}")
    # count first, before any nv x nv allocation: deg v = q^n - q^(n - |S_v|) - 1
    q, n = params.q, params.n
    sizes = mask_bits(skeletons, np.arange(n)).sum(axis=1)
    want = int((q**n - q ** (n - sizes) - 1).sum()) // 2
    if len(edges) != want:
        raise ValueError(f"edge list has {len(edges)} entries, the graph has {want} edges")
    if not want:  # an empty JSON list loads as a float array of shape (0,)
        edges = np.empty((0, 2), dtype=np.intp)
    if edges.shape[1:] != (2,):
        raise ValueError("edge entry is not a pair")
    if edges.dtype.kind not in "iu":
        raise ValueError(f"edge entries must be pairs of vertex ids, not {edges.dtype}")
    # np.asarray casts a bool among ints to 0 or 1, so only a pair with such an
    # endpoint can hold one; an array's own dtype already says bool
    if isinstance(listed, (list, tuple)):
        for k in np.flatnonzero((edges <= 1).any(axis=1)).tolist():
            if {type(listed[k][0]), type(listed[k][1])} & {bool, np.bool_}:
                raise ValueError("edge entries must be pairs of vertex ids, not bool")
    if edges.size and (edges.min() < 0 or edges.max() >= nv):  # no temporary per edge
        raise ValueError(f"edge endpoint outside 0..{nv - 1}")
    # each listed pair once, through the flat view, then S | S.T tile by tile
    m = np.zeros((nv, nv), dtype=bool)
    flat = m.reshape(-1)
    step = _row_step(2)
    for lo in range(0, len(edges), step):  # cast first: a uint8 product wraps past 255
        at = edges[lo:lo + step, 0].astype(np.intp)
        at *= nv
        at += edges[lo:lo + step, 1].astype(np.intp)
        flat[at] = True
    for a, b in _mirror_tiles(m):
        a |= b.T
        b[...] = a.T
    # with the count above, equality also rules out self-loops and duplicates
    if _skeleton_mismatch(m, skeletons) is not None:
        raise ValueError("edge list is not the skeleton-intersection graph, each edge once")
    return NzcGraph(params, vertices, skeletons, m)


def graphs_equal(a: NzcGraph, b: NzcGraph) -> bool:
    """Same parameters, vertex order, adjacency and twin ordering; the
    matrices are compared a row block at a time."""
    ma, mb = a.adjacency_matrix(), b.adjacency_matrix()
    step = _row_step(len(ma))
    return (a.params.n == b.params.n and a.params.q == b.params.q
            and a.vertices == b.vertices
            and all(np.array_equal(ma[lo:lo + step], mb[lo:lo + step])
                    for lo in range(0, len(ma), step))
            and a.twin_sets() == b.twin_sets())


def graph_to_dot(g: NzcGraph) -> str:
    """Undirected DOT with vertex labels like "b1+b3"."""
    lines = ["graph nzc {"]
    for v in range(g.num_vertices):
        lines.append(f'  v{v} [label="{vs.format_vector(g.vertices[v])}"];')
    for u, w in g.edges().tolist():
        lines.append(f"  v{u} -- v{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_table(g: NzcGraph) -> str:
    """Plain-text summary used by the CLI's table format."""
    lines = [
        f"n={g.params.n} q={g.params.q}: {g.num_vertices} vertices, "
        f"{g.edge_count()} edges, {len(g.twin_sets())} twin sets",
        f"{'id':>4}  {'vector':<18} {'skeleton':<14} class degree",
    ]
    skeletons, sizes, degrees = g.skeletons.tolist(), g.sizes.tolist(), g.degrees().tolist()
    for v in range(g.num_vertices):
        skel = ",".join(str(i) for i in vs.skeleton_indices(skeletons[v]))
        lines.append(
            f"{v:>4}  {vs.format_vector(g.vertices[v]):<18} {{{skel}}}"
            f"{'':<{max(0, 12 - len(skel))}} {sizes[v]:>5} {degrees[v]:>6}"
        )
    return "\n".join(lines) + "\n"
