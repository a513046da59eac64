"""Non-zero component graph: adjacency, skeleton classes, twin sets."""

from __future__ import annotations

from math import comb, isqrt
from typing import NamedTuple

import numpy as np

from . import vectorspace as vs
from .errors import UnsupportedFieldError
from .reporting import CheckReport


class NzcGraph:
    """Graph on the non-zero vectors: u ~ v iff their skeletons intersect, u != v.

    Vertices are kept in canonical id order. `skeletons` is the read-only
    int64 array of masks (bit i-1 for b_i), `sizes` the read-only |S_v|, and
    the adjacency one read-only (nv, nv) boolean matrix: entry [v, u] is True
    iff u ~ v. Instances are immutable and safe for shared read-only use.

    What depends on the graph alone is computed on first use and kept:
    the partitions, :meth:`degrees` and :meth:`refinement_basis`, which
    every colour-preserving search on the graph reads. The matrix is a
    read-only view of the caller's array when that is already boolean, not
    a copy, so these caches assume the matrix is never written through the
    caller's array.
    """

    __slots__ = ("params", "vertices", "skeletons", "sizes", "_matrix",
                 "_t_classes", "_twin_sets", "_degrees", "_basis")

    def __init__(self, params, vertices, skeletons, matrix):
        self.params = params
        self.vertices = list(vertices)
        nv = len(self.vertices)
        # copied, so that `sizes` and the partitions cannot go stale
        self.skeletons = _read_only(np.array(skeletons, dtype=np.int64), (nv,), "skeleton array")
        self.sizes = mask_bits(self.skeletons, np.arange(params.n)).sum(axis=1, dtype=np.int64)
        self.sizes.setflags(write=False)
        self._matrix = _read_only(np.asarray(matrix, dtype=bool), (nv, nv), "adjacency matrix")
        self._t_classes = None
        self._twin_sets = None
        self._degrees = None
        self._basis = None

    @classmethod
    def build(cls, params: vs.SpaceParams) -> "NzcGraph":
        """Build the graph for `params`. Deterministic; cap errors propagate."""
        digits = vs.coefficient_array(params)
        s = (digits != 0) @ (1 << np.arange(params.n))
        masks, nv = _narrow(s), len(s)
        matrix = np.empty((nv, nv), dtype=bool)
        step = _row_step(nv)
        for lo in range(0, nv, step):
            _intersection_rows(masks, lo, matrix[lo:lo + step])
        return cls(params, map(tuple, digits.tolist()), s, matrix)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def degree(self, v: int) -> int:
        """Degree of vertex id `v`; a bool or non-integer raises ValueError,
        an id out of range IndexError."""
        v = vs._integer(v, "vertex")
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range 0..{self.num_vertices - 1}")
        return int(self.degrees()[v])

    def degrees(self) -> np.ndarray:
        """Read-only int64 degree per vertex, counted from the matrix once,
        never from the skeletons, which the oracle must not presuppose."""
        if self._degrees is None:
            self._degrees = _degree_counts(self._matrix)
            self._degrees.setflags(write=False)
        return self._degrees

    def refinement_basis(self) -> RefinementBasis:
        """The matrix's :class:`RefinementBasis`, built once (29 MB at (15,2),
        nearly all of it the non-neighbour list)."""
        if self._basis is None:
            self._basis = _refinement_basis(self._matrix)
        return self._basis

    def t_classes(self) -> dict[int, tuple[int, ...]]:
        """Skeleton-size partition: class index i -> vertex ids with |S_v| = i."""
        if self._t_classes is None:
            runs = _runs(np.argsort(self.sizes, kind="stable"), self.sizes)
            self._t_classes = {int(self.sizes[r[0]]): r for r in runs}
        return self._t_classes

    def twin_sets(self) -> tuple[tuple[int, ...], ...]:
        """Partition by equal skeleton, ordered by (skeleton size, mask)."""
        if self._twin_sets is None:
            order = np.lexsort((self.skeletons, self.sizes))  # stable: ids ascend
            self._twin_sets = tuple(_runs(order, self.skeletons))
        return self._twin_sets

    def edges(self) -> np.ndarray:
        """The C-ordered (E, 2) array of edges (v, u) with v < u, in row-major
        order, in the vertex-id dtype :func:`_vertex_dtype`: 2 bytes an edge
        up to 256 vertices, 4 up to 65,536.

        Two passes over row blocks of the strict upper triangle: one counts
        each block's entries, one writes its row and column ids into the
        preallocated array. No |V|^2 or int64 per-edge temporary is made.
        """
        m = self._matrix
        nv = len(m)
        step = min(_row_step(nv), nv)
        upper = np.triu(np.ones((step, step), dtype=bool), 1)
        ids = np.arange(nv, dtype=_vertex_dtype(nv))

        def block(lo):  # rows lo.. of the strict upper triangle, from column lo
            b = m[lo:lo + step, lo:].copy()
            b[:, :len(b)] &= upper[:len(b), :len(b)]
            return b

        starts = np.cumsum([0] + [np.count_nonzero(block(lo)) for lo in range(0, nv, step)])
        out = np.empty((starts[-1], 2), dtype=ids.dtype)
        for lo, a, z in zip(range(0, nv, step), starts, starts[1:]):
            b = block(lo)
            out[a:z, 0] = np.broadcast_to(ids[lo:lo + len(b), None], b.shape)[b]
            out[a:z, 1] = np.broadcast_to(ids[lo:], b.shape)[b]
        return out

    def edge_count(self) -> int:
        return int(np.count_nonzero(self._matrix)) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """The boolean adjacency matrix (read-only)."""
        return self._matrix


def _vertex_dtype(nv: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every id of `nv` vertices: uint8
    up to 256, uint16 up to 65,536, uint32 beyond. Group tables and edge
    arrays share it."""
    return np.min_scalar_type(max(nv - 1, 0))


def _read_only(arr: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    """A read-only view of `arr`; the caller's array keeps its own flags."""
    arr = arr.view()
    if arr.shape != shape:
        raise ValueError(f"{what} has shape {arr.shape}, expected {shape}")
    arr.setflags(write=False)
    return arr


def _runs(order: np.ndarray, keys: np.ndarray) -> list[tuple[int, ...]]:
    """Split `order` wherever `keys[order]` changes: one tuple of ids per run."""
    cuts = (np.flatnonzero(np.diff(keys[order])) + 1).tolist()
    ids = order.tolist()
    return [tuple(ids[lo:hi]) for lo, hi in zip([0] + cuts, cuts + [len(ids)])]


def mask_bits(masks, positions) -> np.ndarray:
    """Entry [..., k]: bit positions[..., k] of masks[...] (bit i is b_(i+1)); both broadcast."""
    return (np.asarray(masks, dtype=np.int64)[..., None] >> positions & 1).astype(bool)


def build(params: vs.SpaceParams) -> NzcGraph:
    return NzcGraph.build(params)


def _row_step(width: int) -> int:
    """Rows per block for a kernel whose widest temporary has `width` cells a
    row, the package's one block-size rule: 2^17 cells, so an int64 temporary
    stays within 1 MiB. A freed block of several MiB raises glibc's mmap
    threshold and keeps more memory resident (+4% peak RSS at (13,2))."""
    return max(1, (1 << 17) // max(1, width))


def _narrow(masks) -> np.ndarray:
    """`masks` in the narrowest integer dtype that holds them all (uint16 up to n = 16)."""
    s = np.asarray(masks, dtype=np.int64)
    return s.astype(np.result_type(np.min_scalar_type(s.min(initial=0)),
                                   np.min_scalar_type(s.max(initial=0))))


def _intersection_rows(masks: np.ndarray, lo: int, out: np.ndarray) -> np.ndarray:
    """Rows lo.. of "u != v and S_u & S_v != 0", the one adjacency rule, into
    the boolean block `out`; :func:`_narrow` masks make the `&` 2 bytes a cell."""
    np.not_equal(masks[lo:lo + len(out), None] & masks, 0, out=out)
    np.fill_diagonal(out[:, lo:], False)
    return out


def _skeleton_mismatch(m: np.ndarray, skeletons) -> int | None:
    """The first row of `m` that differs from :func:`_intersection_rows`, or
    None, compared a row block at a time in one reused block."""
    s = _narrow(skeletons)
    step = _row_step(len(s))
    want = np.empty((min(step, len(s)), len(s)), dtype=bool)
    for lo in range(0, len(s), step):
        block = _intersection_rows(s, lo, want[:len(s) - lo])
        bad = (m[lo:lo + step] != block).any(axis=1)
        if bad.any():
            return lo + int(bad.argmax())
    return None


def _mirror_tiles(m: np.ndarray):
    """Each square tile on or above the diagonal of `m`, with its mirror tile
    below it, as two views of side isqrt(_row_step(1)): a tile's transpose
    stays in cache, where a row block against a column strip does not."""
    side = isqrt(_row_step(1))
    for lo in range(0, len(m), side):
        for c in range(lo, len(m), side):
            yield m[lo:lo + side, c:c + side], m[c:c + side, lo:lo + side]


def check_adjacency_invariants(g: NzcGraph) -> CheckReport:
    """Adjacency is symmetric, irreflexive, and matches skeleton intersection.
    No |V|^2 temporary is made."""
    m = g.adjacency_matrix()
    failures = [f"vertex {v} adjacent to itself" for v in np.flatnonzero(m.diagonal()).tolist()]
    if not all((a == b.T).all() for a, b in _mirror_tiles(m)):
        failures.append("adjacency matrix is not symmetric")
    if (bad := _skeleton_mismatch(m, g.skeletons)) is not None:
        failures.append(f"row {bad} does not match skeleton intersections")
    return CheckReport.of(
        g, "adjacency-invariants",
        "u ~ v iff S_u and S_v intersect and u != v; adjacency symmetric and irreflexive",
        g.num_vertices, failures)


def check_degree_formula(g: NzcGraph) -> CheckReport:
    """Every vertex with skeleton size s has degree (2^s - 1)*2^(n-s) - 1 (q = 2)."""
    if g.params.q != 2:
        raise UnsupportedFieldError(
            f"degree formula check is stated for q = 2 only, got q = {g.params.q}"
        )
    n, s, degrees = g.params.n, g.sizes, g.degrees()
    want = (2**s - 1) * 2 ** (n - s) - 1
    failures = [f"vertex {v} (class {s[v]}): degree {degrees[v]} != formula {want[v]}"
                for v in np.flatnonzero(degrees != want).tolist()]
    per_vertex = list(zip(range(g.num_vertices), degrees.tolist(), want.tolist()))
    return CheckReport.of(g, "degree-formula-q2",
                          "deg(v) = (2^s - 1)*2^(n-s) - 1 for skeleton size s, q = 2",
                          g.num_vertices, failures, {"per_vertex": per_vertex})


def check_degree_formula_general(g: NzcGraph) -> CheckReport:
    """Derived cross-check for any q: deg(v) = q^n - q^(n-s) - 1.

    Not part of the verified claim catalog for q >= 3; shipped as a
    generalization that the builder can be checked against.
    """
    n, q, s, degrees = g.params.n, g.params.q, g.sizes, g.degrees()
    want = q**n - q ** (n - s) - 1
    failures = [f"vertex {v} (class {s[v]}): degree {degrees[v]} != {want[v]}"
                for v in np.flatnonzero(degrees != want).tolist()]
    return CheckReport.of(
        g, "degree-formula-general",
        "derived cross-check: deg(v) = q^n - q^(n-s) - 1 for skeleton size s",
        g.num_vertices, failures, {"derived": True})


def _degree_counts(a: np.ndarray) -> np.ndarray:
    """The number of True entries in each row of `a`."""
    return np.count_nonzero(a, axis=1)


def _packed_closed_rows(a: np.ndarray) -> np.ndarray:
    """The closed neighbourhood rows of `a`, bit-packed, with no second |V|^2 array."""
    ids = np.arange(len(a))
    packed = np.packbits(a, axis=1)
    packed[ids, ids >> 3] |= (0x80 >> (ids & 7)).astype(np.uint8)  # big-endian bit order
    return packed


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array as one opaque (void) scalar, comparable bytewise."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]


def _row_ranks(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of a C-ordered 2-d array and each
    row's dense rank, in byte order: what ``np.unique(_row_keys(rows),
    return_index=True, return_inverse=True)`` gives, from one stable argsort
    and one comparison of sorted neighbours. The sorted rows are the one copy
    held, where ``np.unique`` holds three."""
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")  # stable: each run starts at its first row
    ordered = keys[order]
    starts = np.empty(len(order), dtype=bool)
    starts[0] = True
    starts[1:] = ordered[1:] != ordered[:-1]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.cumsum(starts) - 1
    return order[starts], rank


class RefinementBasis(NamedTuple):
    """What colour refinement reads of a square boolean matrix, read-only.

    `classes` (intp) gives each vertex its closed-twin class (equal closed
    rows), the classes ranked by their packed closed rows in byte order.
    `cols`, in the vertex-id dtype :func:`_vertex_dtype`, lists the vertices
    outside each class's closed row, class after class, ids ascending, and
    `starts` (intp, one entry more than there are classes) is where each
    class's run begins. At q = 2 the list has 3^n - 2^(n+1) + 1 entries:
    28.6 MB of uint16 at (15,2), where intp row and column ids would take
    229 MB.
    """

    classes: np.ndarray
    starts: np.ndarray
    cols: np.ndarray


def _refinement_basis(a: np.ndarray) -> RefinementBasis:
    """The :class:`RefinementBasis` of `a`, from one packing of its closed rows."""
    nv = len(a)
    packed = _packed_closed_rows(a)
    first, classes = _row_ranks(packed)
    counts, cols = [], []
    step = _row_step(packed.shape[1])  # 1 MiB of unpacked bools a block
    for lo in range(0, len(first), step):
        # count=nv drops the pad bits; flat indices beat a 2-d np.nonzero 3x
        block = np.unpackbits(~packed[first[lo:lo + step]], axis=1, count=nv).view(bool)
        flat = np.flatnonzero(block)
        counts.append(np.diff(np.searchsorted(flat, np.arange(len(block) + 1) * nv)))
        cols.append((flat % nv).astype(_vertex_dtype(nv)))
    starts = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    basis = RefinementBasis(classes, starts, np.concatenate(cols))
    for arr in basis:
        arr.setflags(write=False)
    return basis


def twin_partition_by_neighborhood(g: NzcGraph) -> list[tuple[int, ...]]:
    """Independent oracle: vertices by equal closed row of the matrix, ordered by (size, members)."""
    groups: dict[bytes, list[int]] = {}
    for v, row in enumerate(_packed_closed_rows(g.adjacency_matrix())):
        groups.setdefault(row.tobytes(), []).append(v)
    return sorted((tuple(ms) for ms in groups.values()),
                  key=lambda ms: (len(ms), ms))


def check_twin_structure(g: NzcGraph) -> CheckReport:
    """Twin sets match the closed-neighbourhood oracle and the counting claims.

    Inside class i there are C(n, i) twin sets of (q-1)^i vertices each, and the
    class itself has C(n, i)*(q-1)^i vertices.
    """
    n, q = g.params.n, g.params.q
    failures = []
    by_skeleton = sorted((tuple(ts) for ts in g.twin_sets()),
                         key=lambda ms: (len(ms), ms))
    by_neighborhood = twin_partition_by_neighborhood(g)
    if by_skeleton != by_neighborhood:
        failures.append("skeleton grouping differs from closed-neighbourhood grouping")
    class_size = np.bincount(g.sizes, minlength=n + 1)
    # one entry per twin set, in mask order (the twin-set order within a class)
    _, first, set_size = np.unique(g.skeletons, return_index=True, return_counts=True)
    set_class = g.sizes[first]
    for i in range(1, n + 1):
        want_size = comb(n, i) * (q - 1) ** i
        if class_size[i] != want_size:
            failures.append(f"|T_{i}| = {class_size[i]} != C(n,i)*(q-1)^i = {want_size}")
        sizes_in_class = set_size[set_class == i]
        if len(sizes_in_class) != comb(n, i):
            failures.append(f"class {i}: {len(sizes_in_class)} twin sets != C(n,i) = {comb(n, i)}")
        bad = sizes_in_class[sizes_in_class != (q - 1) ** i]
        if bad.size:
            failures.append(f"class {i}: twin set size {bad[0]} != (q-1)^i = {(q - 1) ** i}")
    return CheckReport.of(
        g, "twin-structure",
        "twin sets = closed-neighbourhood classes; C(n,i) sets of size (q-1)^i in class i",
        g.num_vertices, failures)


def count_distinguishing_pairs(g: NzcGraph, l: int, m: int, i: int) -> int:
    """Vertices u in class i with b_l in S_u and b_m not in S_u (q = 2).

    Each such u pairs with its mirror image under swapping positions l and m,
    giving the pairs that separate the two basis vectors inside class i.
    """
    n = g.params.n
    if g.params.q != 2:
        raise UnsupportedFieldError("pair counting is stated for q = 2 only")
    if l == m:
        raise ValueError("basis positions l and m must differ")
    if not (1 <= l <= n and 1 <= m <= n):
        raise ValueError(f"basis positions must lie in 1..{n}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"class index must lie in 1..{n - 1}")
    return int(_pair_counts(g, i)[l - 1, m - 1])


def _pair_counts(g: NzcGraph, i: int) -> np.ndarray:
    """Entry [l-1, m-1]: vertices u of class i with b_l in S_u and b_m not (q = 2)."""
    if g.params.q != 2:
        raise UnsupportedFieldError("pair counting is stated for q = 2 only")
    bits = mask_bits(g.skeletons[g.sizes == i], np.arange(g.params.n)).astype(np.int64)
    return bits.T @ (1 - bits)


def check_pair_counts(g: NzcGraph) -> CheckReport:
    """count_distinguishing_pairs equals C(n-1,i-1) - C(n-2,i-2) for all l != m."""
    n = g.params.n
    failures = []
    off_diagonal = ~np.eye(n, dtype=bool)
    for i in range(1, n):
        want = comb(n - 1, i - 1) - (comb(n - 2, i - 2) if i >= 2 else 0)
        counts = _pair_counts(g, i)
        for l, m in np.argwhere((counts != want) & off_diagonal).tolist():
            failures.append(f"i={i} l={l + 1} m={m + 1}: count {counts[l, m]} != {want}")
    return CheckReport.of(
        g, "separating-pair-count",
        "#{u in T_i : b_l in S_u, b_m not in S_u} = C(n-1,i-1) - C(n-2,i-2)",
        (n - 1) * n * (n - 1), failures)
