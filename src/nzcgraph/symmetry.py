"""Automorphism engines, explicit groups, orbits and structural checks.

Two independent engines compute Aut(G):

* the structural engine extends basis-index permutations to vertex
  permutations through their skeletons (q = 2 only, where a skeleton
  determines a unique vertex);
* the oracle enumerates every adjacency-preserving vertex permutation by
  backtracking over a partition refined from degrees alone, so its result
  never depends on skeleton bookkeeping.

The oracle and :func:`nzcgraph.distinguishing.find_color_preserving` share
one search, :func:`_color_preserving_images`: an explicit-stack backtrack
over a partition refined from (degree, label), where the oracle's labels are
constant. It yields each label-preserving automorphism in turn.

:func:`explicit_group` alone decides whether a graph gets an enumerated
group; the checks take the groups they are given. Every engine limit (vertex
caps, budgets, sampled pair counts) is a module constant, read at call time:
:data:`GROUP_BUDGET` bounds both engines' tables, and :data:`NODE_BUDGET`
each call of this search and of the exact labeling search.

A vertex permutation is an integer array in one-line notation, and a group
is an array of such rows (:attr:`AutGroup.perms`). Composition applies the
right factor first: (p o r)[v] = p[r[v]], i.e. ``p[r]`` in numpy.
"""

from __future__ import annotations

import itertools
import random
from math import factorial, prod

import numpy as np

from .errors import CapExceededError, UnsupportedFieldError
from .graph import (NzcGraph, RefinementBasis, _row_keys, _row_ranks, _row_step,
                    _vertex_dtype, mask_bits)
from .reporting import CheckReport

ORACLE_VERTEX_CAP = 40
EXTENSION_PAIRS = 1000  # seeded pairs of the sampled extension-isomorphism check
CLOSURE_PAIRS = 2000  # seeded pairs of the sampled closure check
GROUP_BUDGET = 40320  # 8!, the largest group either engine enumerates
NODE_BUDGET = 2_000_000  # nodes of each call of either backtracking search
AXIOM_PAIR_BUDGET = 250_000  # closure is exhaustive when order^2 fits


def is_permutation(image, size: int) -> bool:
    """True iff `image` is an integer permutation of range(size), or a 2-d stack of them."""
    img = np.asarray(image)
    return (img.ndim in (1, 2) and img.shape[-1:] == (size,) and img.dtype.kind in "iu"
            and bool((np.sort(img) == np.arange(size)).all()))


def is_automorphism(graph: NzcGraph, image) -> bool:
    """True iff `image` is a vertex bijection preserving (non-)adjacency."""
    img = np.asarray(image)
    return (img.shape == (graph.num_vertices,) and img.dtype.kind in "iu"
            and bool(_automorphism_rows(graph, img[None])[0]))


def _automorphism_rows(graph: NzcGraph, images: np.ndarray) -> np.ndarray:
    """Per row of a 2-d integer stack of width |V|, whether it is an automorphism.

    A non-permutation row is False and indexes nothing. A bijection permutes
    the ordered vertex pairs, so if it maps every False matrix entry to a False
    entry, it maps the False set, and so the True set, onto itself. The image
    of a pair (u, v) is read from the flat matrix at p[u] * |V| + p[v]: 1-d
    ``take`` calls on intp rows, where a 2-d fancy index costs three times more.
    """
    a = graph.adjacency_matrix()
    nv, flat = len(a), a.reshape(-1)
    step = _row_step(nv)
    ok = np.empty(len(images), dtype=bool)
    for lo in range(0, len(images), step):  # the sorted copy a block at a time
        ok[lo:lo + step] = (np.sort(images[lo:lo + step], axis=1) == np.arange(nv)).all(axis=1)
    for lo in range(0, nv, step):
        u, v = np.divmod(np.flatnonzero(~a[lo:lo + step]), nv)  # 2-d nonzero is slower
        u += lo
        rows = np.flatnonzero(ok)
        per = _row_step(len(u))
        for at in range(0, len(rows), per):
            block = images[rows[at:at + per]].astype(np.intp)
            pairs = block.take(u, axis=1)
            pairs *= nv
            pairs += block.take(v, axis=1)
            ok[rows[at:at + per]] = ~flat.take(pairs).any(axis=1)
    return ok


class AutGroup:
    """Explicitly enumerated automorphism group.

    Elements are the rows of ``perms`` (one-line notation), one C-ordered
    block in the narrowest unsigned dtype that holds a vertex id (one byte
    per entry up to 256 vertices, so for every enumerated table), so a row
    is contiguous and the kernels below read the group in blocks of rows.
    Row order is the engine's deterministic enumeration order, ascending
    for both engines; the identity is always a row.
    """

    def __init__(self, graph: NzcGraph, perms, source: str = "explicit"):
        arr, nv = np.asarray(perms), graph.num_vertices
        if arr.ndim != 2 or arr.shape[1] != nv or not len(arr):
            raise ValueError("perms must be a (m, num_vertices) array with m >= 1")
        if arr.dtype.kind not in "iu":  # a cast would truncate floats and pass bools
            raise ValueError(f"perms must be an integer array, not {arr.dtype}")
        if (arr.dtype.kind != "u" and arr.min() < 0) or arr.max() >= nv:  # a cast would wrap
            raise ValueError("perms must hold vertex ids in range(num_vertices)")
        self.graph = graph
        self.perms = np.ascontiguousarray(arr, dtype=_vertex_dtype(nv))
        self.source = source
        self._table: np.ndarray | None = None
        self._sorted_from: np.ndarray | None = None
        self._distinct = 0
        self._counts: np.ndarray | None = None
        self._inverse: np.ndarray | None = None
        self._masks: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {}

    @property
    def order(self) -> int:
        return int(self.perms.shape[0])

    def _ascending(self) -> np.ndarray:
        """The rows in ascending byte order, the order of their :func:`_row_keys`:
        ``perms`` itself when it is so already (both engines emit it so, and
        for one byte per entry byte order is numeric order), else a sorted
        copy, whose row i is row ``_sorted_from[i]`` of ``perms``. Counts the
        distinct rows on the way."""
        if self._table is None:
            table = self.perms
            ascending, self._distinct = _byte_order(table)
            if not ascending:
                self._sorted_from = np.argsort(_row_keys(table), kind="stable")
                table = table[self._sorted_from]
                self._distinct = _byte_order(table)[1]
            self._table = table
        return self._table

    def _lookup(self, perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per row of a row block `perms` (stored dtype), whether it is an
        element, and the ``perms`` row it was found as (meaningless where it
        is not one): the rows its byte strings find are compared as numbers,
        the whole block at once first and row by row only if that fails."""
        table = self._ascending()
        at = np.searchsorted(_row_keys(table), _row_keys(perms))
        found = table[np.minimum(at, len(table) - 1, out=at)]
        ok = (np.ones(len(perms), dtype=bool) if np.array_equal(found, perms)
              else (found == perms).all(axis=1))
        return ok, (at if self._sorted_from is None else self._sorted_from[at])

    def distinct_rows(self) -> int:
        self._ascending()
        return self._distinct

    def set_equal(self, other: "AutGroup") -> bool:
        return self.order == other.order and bool(np.array_equal(self._ascending(),
                                                                 other._ascending()))

    def _image_counts(self) -> np.ndarray:
        """counts[v, w]: how many elements map v to w, from one bincount of
        the (v, image) pairs over blocks of rows, computed once (sorting
        column blocks of C-ordered rows is about twice as slow)."""
        if self._counts is None:
            nv = self.graph.num_vertices
            counts = np.zeros(nv * nv, dtype=np.int64)
            pair = np.arange(0, nv * nv, nv, dtype=_vertex_dtype(nv * nv))  # v * nv
            step = _row_step(nv)
            for lo in range(0, self.order, step):
                counts += np.bincount((self.perms[lo:lo + step] + pair).ravel(),
                                      minlength=nv * nv)
            self._counts = counts.reshape(nv, nv)
        return self._counts

    def column_masks(self, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Column k of the table and of its inverse as row bitsets, for the
        exact labeling search: Python ints whose bit i stands for row i.

        Entry u < k of each tuple holds the rows whose value at k is u, and
        entry k the rows whose value is k or above. The inverse is the
        row-wise ``np.argsort``, computed once. The masks are built the first
        time a column is asked for and kept, so that every search over this
        group shares them.
        """
        if k not in self._masks:
            if self._inverse is None:
                self._inverse = np.argsort(self.perms, axis=1).astype(self.perms.dtype)
            below = np.arange(k)[:, None]
            self._masks[k] = tuple(
                tuple(int.from_bytes(bits.tobytes(), "little") for bits in np.packbits(
                    np.vstack([column == below, column >= k]), axis=1, bitorder="little"))
                for column in (self.perms[:, k], self._inverse[:, k]))
        return self._masks[k]

    def orbit_of(self, v: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self._image_counts()[v]).tolist())

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbit partition of the vertex ids (orbits of a group partition V),
        each orbit the non-zero columns of one row of the image counts."""
        seen: set[int] = set()
        out = []
        for v in range(self.graph.num_vertices):
            if v in seen:
                continue
            orb = self.orbit_of(v)
            seen.update(orb)
            out.append(orb)
        return out

    def stabilizer(self, v: int) -> "AutGroup":
        keep = self.perms[:, v] == v
        return AutGroup(self.graph, self.perms[keep], source=f"{self.source}-stab")

    def orbit_sizes(self) -> np.ndarray:
        """|orbit(v)| per vertex v: the distinct images of v."""
        return np.count_nonzero(self._image_counts(), axis=1)

    def stabilizer_sizes(self) -> np.ndarray:
        """|stabilizer(v)| per vertex v: the elements that fix v."""
        return self._image_counts().diagonal()

    def moved_set(self) -> tuple[int, ...]:
        """Vertices with orbit size >= 2."""
        return tuple(np.flatnonzero(self.orbit_sizes() >= 2).tolist())

    def check_group_axioms(self, seed: int = 0) -> CheckReport:
        """Identity, inverses and closure (exhaustive when order^2 fits the budget).

        Inverses are looked up a row block at a time, skipping each row that
        an earlier lookup found as the inverse of another, whose inverse is
        then that row. The exhaustive closure composes a block of left factors
        with every element in one ``np.take``, pairs in (i, j) order. Each
        failure names the first element or pair that fails.
        """
        failures = []
        nv, m = self.graph.num_vertices, self.order
        ident = np.arange(nv, dtype=self.perms.dtype)
        if not self._lookup(ident[None, :])[0][0]:
            failures.append("identity not in group")
        step = _row_step(nv)
        starts, idents = np.arange(0, step * nv, nv)[:, None], np.tile(ident, step)
        known = np.zeros(m, dtype=bool)  # rows whose inverse a lookup has found
        for lo in range(0, m, step):  # stops at the first block missing an inverse
            rows = lo + np.flatnonzero(~known[lo:lo + step])
            block = self.perms[rows]
            invs = np.zeros_like(block)  # a flat scatter is faster than a broadcast one
            invs.reshape(-1)[(block + starts[:len(block)]).ravel()] = idents[:block.size]
            ok, at = self._lookup(invs)
            if not ok.all():
                failures.append(f"inverse of element {rows[np.argmin(ok)]} missing")
                break
            known[at] = True
        if m * m <= AXIOM_PAIR_BUDGET:
            mode, checked = "exhaustive", m * m
            index, per = self.perms.astype(np.intp), _row_step(m * nv)
            for lo in range(0, m, per):  # products (p_i o p_j)[v] = p_i[p_j[v]]
                products = np.take(self.perms[lo:lo + per], index, axis=1).reshape(-1, nv)
                bad = np.flatnonzero(~self._lookup(products)[0])
                if bad.size:
                    i, j = divmod(int(bad[0]), m)
                    failures.append(f"product of elements {lo + i}, {j} not in group")
                    break
        else:
            mode, checked = "sampled", CLOSURE_PAIRS
            rng = random.Random(seed)
            draws = np.array([rng.randrange(m) for _ in range(2 * CLOSURE_PAIRS)])
            left, right = draws[0::2], draws[1::2]  # pairs drawn as (i, j)
            for lo in range(0, checked, step):
                i, j = left[lo:lo + step], right[lo:lo + step]
                bad = np.flatnonzero(~self._lookup(self.perms[i[:, None], self.perms[j]])[0])
                if bad.size:
                    failures.append(f"product of elements {i[bad[0]]}, {j[bad[0]]} not in group")
                    break
        return CheckReport.of(
            self.graph, "group-axioms",
            "group contains identity, inverses, and is closed under composition",
            checked + self.order + 1, failures, {"closure_mode": mode, "source": self.source},
            order=self.order)


def _symmetric_group(n: int) -> np.ndarray:
    """All n! permutations of range(n), one row each in the narrowest dtype that
    holds n - 1, row for row in ``itertools.permutations(range(n))`` order.

    The rows that start with f are f followed by S_(n-1) in its own order,
    each entry x >= f raised by one to skip f.
    """
    perms = np.zeros((1, 0), dtype=_vertex_dtype(n))
    for k in range(1, n + 1):
        first = np.repeat(np.arange(k, dtype=perms.dtype), len(perms))[:, None]
        rest = np.tile(perms, (k, 1))
        perms = np.hstack([first, rest + (rest >= first)])
    return perms


def _byte_order(rows: np.ndarray) -> tuple[bool, int]:
    """Whether the rows of a C-ordered 2-d array ascend in byte order, and if
    so how many are distinct, from one pass over blocks of adjacent rows:
    each pair is ordered by its first differing byte."""
    b = rows.view(np.uint8)
    distinct = 1
    step = _row_step(b.shape[1])
    for lo in range(0, len(b) - 1, step):
        later = b[lo + 1:lo + 1 + step]
        earlier = b[lo:lo + len(later)]
        at = np.arange(len(later)), (earlier != later).argmax(axis=1)  # 0 where equal
        first, second = earlier[at], later[at]
        if (first > second).any():
            return False, 0
        distinct += int(np.count_nonzero(first != second))
    return True, distinct


def _basis_ids(n: int) -> np.ndarray:
    """Vertex ids of b_1 .. b_n for q = 2: mask 2^(i-1), id = mask - 1."""
    return (1 << np.arange(n)) - 1


def _extend_images_batch(graph: NzcGraph, sigmas: np.ndarray) -> np.ndarray:
    """Vertex images of basis-permutation extensions, one row per sigma (q = 2).

    Returns a C-ordered (m, 2^k - 1) block in the narrowest dtype that holds
    a vertex id of the graph (uint8 up to n = 8, uint16 up to n = 16), where
    k <= n is the width of `sigmas`: the images of the ids below 2^k - 1,
    the masks within b_1 .. b_k, which depend on sigma(0 .. k-1) alone, so
    every id when k = n. Vertex id v has skeleton mask v + 1, and the image
    mask moves bit i to bit sigma(i). It is filled by subset doubling: mask
    2^i maps to 2^sigma(i), and a mask x + 2^i with 0 < x < 2^i maps to the
    image of x plus 2^sigma(i), so level i is one add over the columns
    already filled. Rows go in blocks of :func:`_row_step` size, which stay
    in cache across the levels.
    """
    dtype = _vertex_dtype(graph.num_vertices)
    weights = (1 << np.asarray(sigmas, dtype=np.int64)).astype(dtype)  # (m, k)
    k = weights.shape[1]
    images = np.empty((len(weights), (1 << k) - 1), dtype=dtype)
    step = _row_step(images.shape[1])
    for lo in range(0, len(images), step):
        block, w = images[lo:lo + step], weights[lo:lo + step]
        for i in range(k):  # ids 2^i - 1 .. 2^(i+1) - 2 hold the masks with top bit i
            block[:, (1 << i) - 1] = w[:, i] - 1
            np.add(block[:, :(1 << i) - 1], w[:, i, None], out=block[:, 1 << i:(2 << i) - 1])
    return images


def _require_skeletons(graph: NzcGraph) -> None:
    if graph.params.q != 2:
        raise UnsupportedFieldError(
            "basis-permutation extension needs a skeleton to determine a unique "
            f"vertex, which requires q = 2 (got q = {graph.params.q})"
        )


def _refuse_first(graph: NzcGraph, images: np.ndarray, broken: np.ndarray) -> None:
    """Raise for the first extension row that is `broken` (not an automorphism)
    or maps a vertex across skeleton-size classes, its adjacency ahead of its
    classes."""
    across = graph.sizes[images] != graph.sizes
    bad = np.flatnonzero(broken | across.any(axis=1))
    if bad.size and broken[bad[0]]:
        raise ValueError("image is not an adjacency-preserving permutation of the vertex ids")
    if bad.size:
        image, v = images[bad[0]], np.flatnonzero(across[bad[0]])[0]
        raise ValueError(f"vertex {v} mapped across skeleton-size classes to {image[v]}")


def extend_basis_permutation(graph: NzcGraph, sigma) -> np.ndarray:
    """Extend basis-index permutations to vertex automorphisms (q = 2 only).

    A vertex with skeleton S maps to the unique vertex with skeleton
    sigma(S). `sigma` is 0-based one-line notation on range(n), or a 2-d
    stack of such rows. The images are checked in one pass to preserve
    adjacency and skeleton-size classes; the first failing row raises, its
    adjacency ahead of its classes. Returns an int64 image row, or one row
    per sigma of a stack, cast from the rows of :func:`_extend_images_batch`.
    """
    _require_skeletons(graph)
    n = graph.params.n
    sigmas = np.array(sigma, dtype=np.int64)
    if not is_permutation(sigmas, n):
        raise ValueError(f"sigma must be a permutation of range({n})")
    images = _extend_images_batch(graph, sigmas.reshape(-1, n)).astype(np.int64)
    _refuse_first(graph, images, ~_automorphism_rows(graph, images))
    return images if sigmas.ndim == 2 else images[0]


def transposition_extensions(graph: NzcGraph) -> np.ndarray:
    """Extensions of the C(n, 2) basis transpositions (l m), l < m, in
    ``np.triu_indices(n, 1)`` order (q = 2): rows in the narrowest dtype, as
    :func:`_extend_images_batch` builds them.

    :func:`_conjugation_proofs` proves them with the n-cycle c: (j j+1) as
    c (j-1 j) c^-1, then (l m+1) as (m m+1)(l m)(m m+1). A row is refused
    exactly when :func:`extend_basis_permutation` refuses it, with the same
    error.
    """
    _require_skeletons(graph)
    n = graph.params.n
    l, m = np.triu_indices(n, 1)
    sigmas = np.tile(np.arange(n), (len(l) + 1, 1))
    sigmas[np.arange(len(l)), l], sigmas[np.arange(len(l)), m] = m, l
    sigmas[-1] = np.roll(sigmas[-1], -1)  # the n-cycle c: i -> i + 1 mod n
    images = _extend_images_batch(graph, sigmas)
    at = {pair: k for k, pair in enumerate(zip(l.tolist(), m.tolist()))}
    plan = [(at[j, j + 1], at[j - 1, j], len(l)) for j in range(1, n - 1)]
    plan += [(k, at[a, b - 1], at[b - 1, b]) for (a, b), k in at.items() if b > a + 1]
    rows = images[:-1]
    _refuse_first(graph, rows, ~_conjugation_proofs(graph, images, plan)[:-1])
    return rows


def _conjugation_proofs(graph: NzcGraph, rows: np.ndarray, plan) -> np.ndarray:
    """Per row of a stack of extension rows, whether it is an automorphism.

    Only the first row and the last, the extension of the n-cycle, are
    checked against the matrix, in one call. Each plan entry (k, r, s) then
    proves row k, in order, when rows r and s are proven and
    k o s = s o r, that is k = s r s^-1, a product of automorphisms (Seress,
    *Permutation Group Algorithms*, 2003, ch. 4). Every other row but the
    last gets the matrix check itself, so the verdicts are exact.
    """
    ok = np.zeros(len(rows), dtype=bool)
    ok[[0, -1]] = _automorphism_rows(graph, rows[[0, -1]])
    for k, r, s in plan:
        ok[k] = ok[r] and ok[s] and np.array_equal(rows[k].take(rows[s]), rows[s].take(rows[r]))
    left = 1 + np.flatnonzero(~ok[1:-1])
    if left.size:
        ok[left] = _automorphism_rows(graph, rows[left])
    return ok


def restrict_to_basis(image, graph: NzcGraph) -> tuple[int, ...]:
    """Permutation induced on the basis vertices by an automorphism (q = 2).

    `image` is any integer sequence in one-line notation. Raises if it maps
    a basis vertex outside the basis class, which would signal a corrupted
    automorphism.
    """
    if graph.params.q != 2:
        raise UnsupportedFieldError("basis restriction is defined for q = 2")
    n = graph.params.n
    w = np.asarray(image)[_basis_ids(n)]
    bad = np.flatnonzero(graph.sizes[w] != 1)
    if bad.size:
        raise ValueError(
            f"automorphism maps basis vertex b{bad[0] + 1} to a class-"
            f"{graph.sizes[w[bad[0]]]} vertex; not an automorphism of this graph"
        )
    return tuple(mask_bits(graph.skeletons[w], np.arange(n)).argmax(axis=1).tolist())


def aut_group_structural(graph: NzcGraph) -> AutGroup:
    """All n! basis-permutation extensions, in lexicographic sigma order (q = 2).

    Raises a cap error past :data:`GROUP_BUDGET` elements. Every row is
    proven an automorphism by :func:`_unproven_rows`, from two rows checked
    against the matrix, in O(n! |V|); the least row that fails raises.
    """
    if graph.params.q != 2:
        raise UnsupportedFieldError(
            f"structural engine is defined for q = 2 only, got q = {graph.params.q}"
        )
    n = graph.params.n
    order = factorial(n)
    if order > GROUP_BUDGET:
        raise CapExceededError(
            f"structural group has {order} elements, budget is {GROUP_BUDGET}"
        )
    perms = _extend_images_batch(graph, _symmetric_group(n))
    bad = np.flatnonzero(_unproven_rows(graph, perms))
    if bad.size:
        raise ValueError(f"structural engine produced a non-automorphism (row {bad[0]})")
    return AutGroup(graph, perms, source="structural")


def _unproven_rows(graph: NzcGraph, perms: np.ndarray) -> np.ndarray:
    """Per row of the lexicographic extension table, whether its check fails.

    Row 0 must be the identity, and row (n-1-j)!, the extension of the
    adjacent transposition t = (j j+1), must be an automorphism, which
    :func:`_conjugation_proofs` decides from the row of (0 1) and the row of
    the n-cycle c = (1 2 .. n-1 0), row sum_j (n-1-j)!, as c t c^-1 is
    (j+1 j+2). The rows whose sigma starts with 0 .. k-1 are the first
    (n-k)!, in sub-blocks of (n-k-1)! rows by sigma(k) = k, k+1, ... For
    j = k+g-1, t maps the sub-block with j at position k onto the one with
    j+1, row for row (t keeps the order of the values after position k,
    which miss j), so that sub-block must equal the extension of t applied
    to the one before it.
    By induction on the row index, every row before the first failing one
    is a product of checked automorphisms, so the check is exact (Seress,
    *Permutation Group Algorithms*, 2003). The table is built per sigma and
    checked by composition, so each row is derived twice. A block of rows
    that equals its products as a whole is not compared row by row.
    """
    n = graph.params.n
    bad = np.zeros(len(perms), dtype=bool)
    bad[0] = not np.array_equal(perms[0], np.arange(perms.shape[1]))
    gens = [factorial(n - 1 - j) for j in range(n - 1)]
    plan = [(j, j - 1, n - 1) for j in range(1, n - 1)]
    bad[gens] = ~_conjugation_proofs(graph, perms[gens + [sum(gens)]], plan)[:-1]
    step = _row_step(perms.shape[1])
    for k in range(n - 1):
        size = factorial(n - 1 - k)
        for g in range(1, n - k):
            gen, end = perms[gens[k + g - 1]], (g + 1) * size
            for lo in range(g * size, end, step):  # a sub-block may be shorter than `step`
                hi = min(lo + step, end)
                product = gen.take(perms[lo - size:hi - size])
                if not np.array_equal(product, perms[lo:hi]):
                    bad[lo:hi] |= (product != perms[lo:hi]).any(axis=1)
    return bad


def _refine_by_neighbors(basis: RefinementBasis, colors) -> list[int]:
    """Iterated refinement by multisets of neighbour colours, to a fixpoint,
    on the matrix whose :class:`~nzcgraph.graph.RefinementBasis` is `basis`.

    Colour ids are renumbered by sorted signature (own colour, sorted tuple
    of neighbour colours) at each pass, so the result is deterministic. The
    input colours must be ids 0..k-1, all in use, and every vertex of one
    colour must have the same degree, which refinement keeps: then sorted
    tuples compare like count rows with larger counts first. Each pass
    counts on one closed row per closed-twin class: twins see every other
    vertex alike, and themselves in their own colour, the same shift for
    every vertex of a colour.

    The counts come from the sparse side: at q = 2 only 3^n - 2^(n+1) + 1
    ordered pairs are non-adjacent (about 7% at n = 9), fewer at q >= 3. A
    row block's ``np.bincount`` over the basis' non-neighbour list gives
    |cell| less the closed neighbour count per (class, cell). |cell| is the
    same in every row, so ascending rows of it rank exactly like the
    neighbour counts in descending order.

    A graph builds its basis once and keeps it
    (:meth:`~nzcgraph.graph.NzcGraph.refinement_basis`): the classes and
    each class's start in the list in intp, and the list's vertex ids in
    the vertex-id dtype, at (15,2) 14.3M uint16 ids, 28.6 MB. Each row
    block widens its part of the list to intp cells.
    """
    classes, starts, cols = basis
    m = len(starts) - 1  # classes
    colors = np.asarray(colors, dtype=np.min_scalar_type(len(classes)))
    big = colors.dtype.newbyteorder(">")  # big-endian rows compare bytewise in numeric order
    while (k := int(colors.max()) + 1) < len(classes):  # a discrete partition is stable
        counts, step = np.empty((m, k), dtype=big), _row_step(k)
        for lo in range(0, m, step):
            block = counts[lo:lo + step]
            hi = lo + len(block)
            # each pair's flat (row, colour) cell of the block, in intp
            index = np.repeat(np.arange(0, block.size, k), np.diff(starts[lo:hi + 1]))
            index += colors[cols[starts[lo]:starts[hi]]]
            block[...] = np.bincount(index, minlength=block.size).reshape(block.shape)
        rank = _row_ranks(counts)[1]
        keys = rank[classes] + m * colors.astype(np.intp)  # (colour, rank) order
        new = np.unique(keys, return_inverse=True)[1].astype(colors.dtype)
        if np.array_equal(new, colors):
            break
        colors = new
    return colors.tolist()


def _color_preserving_images(graph: NzcGraph, labels, what: str):
    """Yield every automorphism that keeps each vertex's label, as a tuple.

    Individualization-refinement with an explicit stack, so the depth is not
    bound by the recursion limit. The partition is seeded by (degree, label)
    and refined once by neighbour-colour multisets; vertices are assigned in
    (cell size, cell, id) order, each only into its own refined cell, with
    adjacency to every earlier assigned vertex preserved. Images come out in
    depth-first order. The root and each assignment count as one node
    against :data:`NODE_BUDGET`; `what` names the search in the cap message.

    The first leaf is the identity, since at each depth the first unused
    candidate of the cell is the vertex itself: the search descends to it in
    one step of 1 + |V| nodes and resumes with each depth's later candidates.
    The refined partition is equitable, so a singleton cell is a fixed
    point and every vertex of a cell has the same adjacency to it: the
    singletons, first in the order, are left out of the backtrack, and
    candidates are compared on the other vertices alone. Each candidate
    takes one byte-string comparison: its adjacency row to the images
    assigned so far against the row of the vertex being assigned.

    What the seed and the refinement read of the graph alone is kept on the
    graph and shared by every search on it: :meth:`NzcGraph.degrees`, int64
    per vertex, and :meth:`NzcGraph.refinement_basis`, the closed-twin
    classes and their starts in intp and their non-neighbour list in the
    vertex-id dtype: at (15,2) three arrays of 0.26 MB and 28.6 MB of
    uint16. A call itself pays for its labels alone: the seed, the
    refinement passes and the backtrack.
    """
    nv = graph.num_vertices
    if (nodes := 1 + nv) > NODE_BUDGET:  # the root, and each vertex assigned to itself
        raise CapExceededError(f"{what} exceeded {NODE_BUDGET} nodes")
    yield tuple(range(nv))
    a = graph.adjacency_matrix()
    # seed colours: ranks of (degree, label), through the labels' own ranks
    used, label_rank = np.unique(labels, return_inverse=True)
    pairs = graph.degrees() * len(used) + label_rank
    colors = np.array(_refine_by_neighbors(graph.refinement_basis(),
                                           np.unique(pairs, return_inverse=True)[1]))
    cell_size = np.bincount(colors)[colors]
    cell = cell_size * nv + colors  # sorts cells by (size, colour)
    order = np.argsort(cell, kind="stable")  # ids ascend inside a cell
    full = list(range(nv))  # the fixed points keep their own image
    free = order[np.count_nonzero(cell_size == 1):]
    # position i stands for vertex free[i]; its cell is the run of positions lo[i] .. hi[i] - 1
    sub = a.take(free, 0).take(free, 1)  # sub[i, j] is 1 iff free[j] ~ free[i]
    seen = sub.copy()  # seen[u, w] = sub[u, image[w]] below the depth; the rest is stale
    lo = np.searchsorted(cell[free], cell[free])
    lo, hi = lo.tolist(), (lo + cell_size[free]).tolist()
    free = free.tolist()
    image, used = list(range(len(free))), [True] * len(free)  # at the identity leaf
    stack = [iter(range(d + 1, hi[d])) for d in range(len(free))]  # untried candidates per depth
    while stack:
        depth = len(stack) - 1
        if image[depth] >= 0:  # back from the subtree of the previous candidate
            used[image[depth]] = False
            image[depth] = -1
        want = sub[depth, :depth].tobytes()
        for u in stack[-1]:  # u must keep adjacency to every assigned vertex
            if not used[u] and seen[u, :depth].tobytes() == want:
                break
        else:  # candidates exhausted: back up one depth
            stack.pop()
            continue
        image[depth], used[u] = u, True
        seen[:, depth] = sub[:, u]
        nodes += 1
        if nodes > NODE_BUDGET:
            raise CapExceededError(f"{what} exceeded {NODE_BUDGET} nodes")
        if depth + 1 == len(free):
            for v, u in zip(free, image):
                full[v] = free[u]
            yield tuple(full)
        else:
            stack.append(iter(range(lo[depth + 1], hi[depth + 1])))


def aut_group_oracle(graph: NzcGraph) -> AutGroup:
    """Enumerate every adjacency-preserving vertex permutation.

    Fully independent of the structural engine: the search gets constant
    labels, so its initial partition uses vertex degrees only (a pure
    adjacency invariant; skeleton classes would presuppose the structure
    under test). Enumeration is exhaustive; rows are returned sorted, one
    byte per entry within the vertex cap, for determinism and so that the
    table is its own index (see :meth:`AutGroup._ascending`). Raises a cap
    error past :data:`ORACLE_VERTEX_CAP` vertices, :data:`GROUP_BUDGET`
    elements (the twin floor first, which refuses every admitted input the
    budget refuses) or :data:`NODE_BUDGET` search nodes.
    """
    nv = graph.num_vertices
    if nv > ORACLE_VERTEX_CAP:
        raise CapExceededError(f"oracle supports up to {ORACLE_VERTEX_CAP} vertices, got {nv}")
    # fail fast: permutations within a closed-neighbourhood class are always
    # automorphisms, so the product of their factorials bounds |Aut| below
    floor = prod(map(factorial, np.bincount(graph.refinement_basis().classes).tolist()))
    if floor > GROUP_BUDGET:
        raise CapExceededError(
            f"group order is at least {floor}, enumeration budget is {GROUP_BUDGET}"
        )
    found = []
    for image in _color_preserving_images(graph, (0,) * nv, "oracle search"):
        if len(found) >= GROUP_BUDGET:
            raise CapExceededError(f"oracle found more than {GROUP_BUDGET} automorphisms")
        found.append(image)
    return AutGroup(graph, np.array(sorted(found), dtype=_vertex_dtype(nv)), source="oracle")


def explicit_group(graph: NzcGraph) -> AutGroup | None:
    """The enumerated group the exact checks run on, or None where none is built.

    It is the structural group at q = 2 and the oracle group at q >= 3, or
    None when that engine raises a cap error: past :data:`GROUP_BUDGET`
    elements (n > 8 at q = 2), past :data:`ORACLE_VERTEX_CAP` vertices, or
    past :data:`NODE_BUDGET` oracle search nodes.
    """
    try:
        if graph.params.q == 2:
            return aut_group_structural(graph)
        return aut_group_oracle(graph)
    except CapExceededError:
        return None


def _sample_permutations(n: int, count: int, seed: int) -> np.ndarray:
    """`count` seeded permutations of range(n), one per row: the argsort of
    64-bit keys from one :mod:`random` draw (``numpy.random`` adds ~6 MB RSS)."""
    keys = random.Random(seed).getrandbits(64 * count * n).to_bytes(8 * count * n, "little")
    return np.argsort(np.frombuffer(keys, dtype="<u8").reshape(count, n), axis=1, kind="stable")


def check_extension_isomorphism(graph: NzcGraph, grp: AutGroup | None,
                                oracle: AutGroup | None, *, seed: int = 0) -> CheckReport:
    """The extension map is a group isomorphism from S_n onto Aut(G) (q = 2).

    Checks the homomorphism identity extend(h1 o h2) = extend(h1) o extend(h2)
    exhaustively for n <= 4 and on :data:`EXTENSION_PAIRS` seeded random pairs
    for larger n, drawn and extended in blocks of :func:`_row_step` pairs for
    rows of 3 |V| (three image rows per pair, at most 256 KiB), so memory
    does not grow with the pair count. Given the structural group `grp`, it
    checks injectivity as n! distinct extensions, and given the oracle group
    too, surjectivity by set equality against it. It builds neither group.
    """
    if graph.params.q != 2:
        raise UnsupportedFieldError("extension isomorphism is defined for q = 2")
    n = graph.params.n
    details: dict = {}
    if n <= 4:
        sigmas = _symmetric_group(n)
        blocks = [(np.repeat(sigmas, len(sigmas), 0), np.tile(sigmas, (len(sigmas), 1)))]
        details["mode"] = "exhaustive"
    else:
        rng = random.Random(seed)  # one draw seeds each block's keys
        step, pairs = _row_step(3 * graph.num_vertices), EXTENSION_PAIRS
        blocks = (np.split(_sample_permutations(n, 2 * min(step, pairs - lo),
                                                rng.getrandbits(64)), 2)
                  for lo in range(0, pairs, step))
        details["mode"] = "sampled"
    failures, checked = [], 0
    for h1, h2 in blocks:
        batch = np.stack([np.take_along_axis(h1, h2, 1), h1, h2], 1)  # h1 o h2 = h1[h2]
        lhs, ext1, ext2 = _extend_images_batch(graph, batch.reshape(-1, n)).reshape(
            len(h1), 3, -1).transpose(1, 0, 2)
        wrong = np.flatnonzero((lhs != np.take_along_axis(ext1, ext2, 1)).any(1))
        for k in wrong[:6 - len(failures)]:
            h1k, h2k = tuple(h1[k].tolist()), tuple(h2[k].tolist())
            failures.append(f"extend({h1k} o {h2k}) != extend({h1k}) o extend({h2k})")
        checked += len(h1)
    details["pairs_checked"] = checked
    if grp is not None:
        distinct = grp.distinct_rows()
        details["distinct_extensions"] = distinct
        if distinct != factorial(n):
            failures.append(f"only {distinct} distinct extensions, expected {factorial(n)}")
        details["oracle_order"] = None if oracle is None else oracle.order
        if oracle is not None and not grp.set_equal(oracle):
            failures.append("extension image differs from the oracle's automorphism set")
    return CheckReport.of(
        graph, "basis-extension-isomorphism",
        "sigma -> extension(sigma) is an isomorphism from S_n onto Aut(G), q = 2",
        checked, failures, details)


def check_automorphism_structure(graph: NzcGraph, grp: AutGroup) -> CheckReport:
    """Machine-check how automorphisms act on skeletons, over all elements.

    Sub-checks (q = 2 scoping noted inline):
      classes      every automorphism preserves skeleton-size classes;
      transport    for g(u) = v in one class: basis vertices in S_u & S_v map
                   into S_u & S_v, and those in S_u - S_v map into S_v - S_u;
      swap         when g exchanges basis vertices b_l, b_m (q = 2): membership
                   of {l, m} in S_u transfers to S_g(u) exchanged/preserved;
      moves-two    every non-identity element moves >= 2 basis vertices (q = 2);
      basis-family the family of basis twin sets maps onto itself through an
                   induced index permutation (any q).

    Failures are listed by sub-check (classes, basis-family, then the q = 2
    checks element by element) and cut to the first 20.
    """
    n, q = graph.params.n, graph.params.q
    perms, sizes = grp.perms, graph.sizes
    bad = (sizes[perms] != sizes).any(axis=1)
    failures = [f"element {i} maps across skeleton-size classes" for i in np.flatnonzero(bad)]
    failures += _basis_family_failures(graph, perms)
    sub = {"classes": grp.order, "basis-family": grp.order}
    if q == 2:
        sub["transport"] = sub["swap"] = 0
        step = _row_step(graph.num_vertices * n)
        for lo in range(0, grp.order, step):
            transport, swap, lines = _basis_action_failures(graph, perms[lo:lo + step], lo)
            sub["transport"] += transport
            sub["swap"] += swap
            failures += lines
        sub["moves-two"] = grp.order
    return CheckReport.of(
        graph, "automorphism-structure",
        "automorphisms preserve classes, transport skeleton membership, "
        "move >= 2 basis vertices when non-trivial, and permute the basis twin sets",
        sum(sub.values()), failures[:20], {"sub_checks": sub}, order=grp.order)


def _basis_family_failures(graph: NzcGraph, perms: np.ndarray) -> list[str]:
    """Elements that do not permute the basis twin sets, one line each."""
    basis_sets = [list(ts) for ts in graph.twin_sets() if graph.sizes[ts[0]] == 1]
    which = np.full(graph.num_vertices, -1)
    for k, ts in enumerate(basis_sets):
        which[ts] = k
    set_len = np.array([len(ts) for ts in basis_sets] + [0])  # [-1]: no set
    is_set = np.ones(len(perms), dtype=bool)
    target = np.empty((len(perms), len(basis_sets)), dtype=np.int64)
    for k, ts in enumerate(basis_sets):
        image = np.sort(perms[:, ts], axis=1)
        hit = which[image]
        distinct = 1 + np.count_nonzero(np.diff(image, axis=1), axis=1)
        # the image set is basis set k' iff it lies in k' and has |k'| members
        is_set &= (hit == hit[:, :1]).all(axis=1) & (distinct == set_len[hit[:, 0]])
        target[:, k] = hit[:, 0]
    not_perm = is_set & (np.sort(target, axis=1) != np.arange(len(basis_sets))).any(axis=1)
    return [f"element {i}: " + ("induced basis-set map is not a permutation" if not_perm[i]
                                else "basis twin set image is not a basis twin set")
            for i in np.flatnonzero(~is_set | not_perm)]


def _basis_action_failures(graph: NzcGraph, p: np.ndarray, offset: int):
    """The q = 2 transport, swap and moves-two checks on the rows `p`.

    Returns the transport and swap counts and the first 20 failure lines,
    row by row; rows are numbered from `offset`.
    """
    n, nv, sizes = graph.params.n, graph.num_vertices, graph.sizes
    ids, ar, basis = np.arange(nv), np.arange(n), _basis_ids(n)
    su, sv = graph.skeletons, graph.skeletons[p]  # S_u and S_p(u)
    image_b = p[:, basis]
    leaves = (sizes[image_b] != 1).any(axis=1)
    sigma = np.where(leaves[:, None], ar, mask_bits(sv[:, basis], ar).argmax(axis=2))
    at = sigma[:, None, :]  # b_i -> b_sigma(i)
    in_u, in_v = mask_bits(su, ar), mask_bits(sv, ar)
    img_u, img_v = mask_bits(su, at), mask_bits(sv, at)  # bit sigma(i) of each
    # transport over u with p(p(u)) = u in one class below n: one-directional
    # images may leak, e.g. under a 3-cycle of basis indices
    mutual = ((np.take_along_axis(p, p.astype(np.intp), axis=1) == ids)
              & (sizes[p] == sizes) & (sizes != n) & ~leaves[:, None])
    lose = mutual[..., None] & in_u & in_v & ~(img_u & img_v)
    leak = mutual[..., None] & in_u & ~in_v & ~(img_v & ~img_u)
    # exchanged basis pairs l <-> sigma(l) transfer skeleton membership
    exchange = (sigma != ar) & (np.take_along_axis(sigma, sigma, axis=1) == ar) & ~leaves[:, None]
    swap = exchange[:, None, :, None] & np.stack(
        [in_u & ~img_u & (in_v | ~img_v), (in_u & img_u) != (in_v & img_v)], axis=3)
    moved = np.count_nonzero(image_b != basis, axis=1)
    few = (p != ids).any(axis=1) & (moved < 2) & ~leaves
    bad = leaves | (lose | leak).any(axis=(1, 2)) | swap.any(axis=(1, 2, 3)) | few

    def lines(j):
        e = f"element {offset + j}:"
        if leaves[j]:
            return [f"{e} basis vertex leaves the basis class"]
        out = [f"{e} b{i + 1} in both skeletons but image leaves them" if lose[j, u, i]
               else f"{e} b{i + 1} in S_u - S_v but image not in S_v - S_u"
               for u, i in np.argwhere(lose[j] | leak[j])]
        out += [f"{e} swap b{l + 1}<->b{sigma[j, l] + 1} "
                + ("fails membership transfer" if kind == 0 else "breaks joint membership")
                for l, u, kind in np.argwhere(swap[j].transpose(1, 0, 2))]
        if few[j]:
            out.append(f"{e} non-identity but moves {moved[j]} basis vertices")
        return out

    first = itertools.chain.from_iterable(map(lines, np.flatnonzero(bad)))
    return (int(np.count_nonzero(mutual)), nv * int(np.count_nonzero(exchange)),
            list(itertools.islice(first, 20)))


def check_orbit_stabilizer(grp: AutGroup) -> CheckReport:
    """|orbit(v)| * |stabilizer(v)| equals the group order, for every vertex."""
    orbit, stab = grp.orbit_sizes(), grp.stabilizer_sizes()
    failures = [f"vertex {v}: |orbit| {orbit[v]} * |stab| {stab[v]} != {grp.order}"
                for v in np.flatnonzero(orbit * stab != grp.order)]
    return CheckReport.of(grp.graph, "orbit-stabilizer",
                          "|orbit(v)| * |stabilizer(v)| = |group| for every vertex",
                          grp.graph.num_vertices, failures, order=grp.order)
