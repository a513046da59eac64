"""Labelings, distinguishing checks, and the distinguishing-number search.

A labeling is distinguishing when no non-identity automorphism preserves all
vertex colours. Three engines can decide that, with different feasibility
envelopes:

* :func:`is_distinguishing` scans an explicitly enumerated group;
* :func:`structural_survivors` searches the basis-permutation extensions for
  q = 2 level by level, pruned by basis and class-2 colours, without
  materialising the group or S_n;
* :func:`find_color_preserving` searches for a colour-preserving
  automorphism directly, through the oracle's explicit-stack backtrack over
  a partition refined from (degree, colour), so it works even when the
  group is far too large to enumerate or has thousands of vertices.

Every engine limit (vertex cap, scan budget, colour prefix) is a module
constant, read at call time; both searches count their nodes against
:data:`nzcgraph.symmetry.NODE_BUDGET`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import symmetry
from .errors import CapExceededError, UnsupportedFieldError
from .graph import NzcGraph, _row_step
from .reporting import ANOMALY, CheckReport
from .symmetry import (AutGroup, _basis_ids, _color_preserving_images,
                       _extend_images_batch, extend_basis_permutation,
                       transposition_extensions)
from .vectorspace import _integer, _integers

EXACT_VERTEX_CAP = 30  # vertices up to which the exact labeling search runs
PERM_BUDGET = 4_000_000  # partial basis permutations alive in the structural scan
COLOR_PREFIX = 32  # leading columns both scans check before a whole row


@dataclass(frozen=True)
class Labeling:
    """Per-vertex colours in 1..t. `t` is the declared palette size. Both are
    Python or numpy integers, stored as a tuple of ints and an int; anything
    else, bool included, raises ValueError."""

    colors: tuple[int, ...]
    t: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", _integers(self.colors, "colour"))
        object.__setattr__(self, "t", _integer(self.t, "palette size"))
        if self.t < 1:
            raise ValueError("palette size must be >= 1")
        for c in self.colors:
            if not 1 <= c <= self.t:
                raise ValueError(f"colour {c} outside 1..{self.t}")

    def used_colors(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.colors)))


@dataclass(frozen=True)
class SchemeVerdict:
    """A constructive labeling, the strongest feasible engine that checked it,
    and how many non-identity automorphisms keeping its colours that engine
    found (the group scan and the search stop at the first)."""

    labeling: Labeling
    engine: str
    preservers: int


@dataclass
class DistResult:
    """Distinguishing-number outcome: an exact value or a bound pair.

    `witness` always passes the distinguishing check with `upper` colours.
    `scheme` is the constructive labeling's verdict, or None where no scheme
    applies (q = 2 with n < 3). `refuted` is the largest colour count the
    exact search ruled out, when the search ran.
    """

    lower: int
    upper: int
    method: str  # "exact" | "bounded"
    witness: Labeling | None
    scheme: SchemeVerdict | None
    lower_source: str = ""
    upper_source: str = ""
    refuted: int | None = None

    @property
    def value(self) -> int | None:
        return self.upper if self.lower == self.upper else None


def all_distinct_labeling(g: NzcGraph) -> Labeling:
    """One colour per vertex; distinguishing for every graph by injectivity."""
    nv = g.num_vertices
    return Labeling(tuple(range(1, nv + 1)), nv)


def is_distinguishing(g: NzcGraph, grp: AutGroup, f: Labeling) -> bool:
    """True iff no non-identity element of `grp` preserves all colours of f."""
    nv = g.num_vertices
    if len(f.colors) != nv:
        raise ValueError("labeling length does not match the vertex count")
    c = np.asarray(f.colors, dtype=np.min_scalar_type(f.t))
    ident = np.arange(nv, dtype=grp.perms.dtype)
    step = _row_step(nv)
    for lo in range(0, grp.order, step):  # a block of rows, and its gathers, at a time
        block = grp.perms[lo:lo + step]
        # only the rows that keep the colours of the first columns get the full check
        block = block[(c.take(block[:, :COLOR_PREFIX]) == c[:COLOR_PREFIX]).all(axis=1)]
        if (block[(c.take(block) == c).all(axis=1)] != ident).any():  # a preserved row moves a vertex
            return False
    return True


def structural_survivors(g: NzcGraph, f: Labeling) -> list[tuple[int, ...]]:
    """Basis permutations whose extension preserves the labeling (q = 2).

    Builds sigma level by level without enumerating S_n: level k extends each
    partial permutation only into unused indices j with the basis colour of
    b_k, keeping the extensions under which every class-2 vertex
    {b_i, b_k}, i < k, keeps its colour as {b_sigma(i), b_j}. Both tests are
    necessary, so the search is complete; the survivors of the last level
    then get the full skeleton-level colour check in chunks, first on the
    2^k - 1 <= :data:`COLOR_PREFIX` ids within b_1 .. b_k when k = 5 < n,
    whose images depend on sigma(0 .. k-1) alone, then on whole rows for the
    rows that keep those colours. :data:`PERM_BUDGET` bounds the partial permutations
    alive at any level. The result is in lexicographic order and excludes
    the identity, so an empty result means the labeling is distinguishing
    against every basis-permutation extension.
    """
    if g.params.q != 2:
        raise UnsupportedFieldError("structural scan requires q = 2")
    n = g.params.n
    if len(f.colors) != g.num_vertices:
        raise ValueError("labeling length does not match the vertex count")
    colors = np.asarray(f.colors, dtype=np.int32)  # vertex id = skeleton mask - 1
    bit = 1 << np.arange(n)
    pair = colors[(bit[:, None] | bit[None, :]) - 1]  # diagonal: basis colours
    basis = np.diagonal(pair)
    partial = np.zeros((1, 0), dtype=np.int64)
    step = _row_step(n * n)  # up to n extensions of a row, k indices each
    for k in range(n):
        allowed = basis == basis[k]
        grown = []
        alive = 0
        for lo in range(0, len(partial), step):
            block = partial[lo:lo + step]
            free = np.ones((len(block), n), dtype=bool)
            free[np.arange(len(block))[:, None], block] = False
            rows, js = np.nonzero(free & allowed)
            keep = (pair[block[rows], js[:, None]] == pair[:k, k]).all(axis=1)
            rows, js = rows[keep], js[keep]
            alive += len(rows)
            if alive > PERM_BUDGET:
                raise CapExceededError(
                    f"more than {PERM_BUDGET} partial basis permutations at level {k + 1}")
            grown.append(np.column_stack([block[rows], js]))
        partial = np.concatenate(grown)
        if not len(partial):
            return []
    survivors = []
    partial = partial[1:]  # the identity passes every level and sorts first
    head = COLOR_PREFIX.bit_length() - 1  # 2^head - 1 ids fit in the prefix
    step = _row_step(g.num_vertices)
    for lo in range(0, len(partial), step):
        block = partial[lo:lo + step]
        if n > head:
            # the ids below 2^head - 1 first: their images depend on sigma(0 .. head-1) alone
            block = block[(colors[_extend_images_batch(g, block[:, :head])]
                           == colors[:(1 << head) - 1]).all(axis=1)]
        ok = (colors[_extend_images_batch(g, block)] == colors).all(axis=1)
        survivors.extend(map(tuple, block[ok].tolist()))
    return survivors


def find_color_preserving(g: NzcGraph, f: Labeling) -> tuple[int, ...] | None:
    """Search for a non-identity colour-preserving automorphism (any q).

    Runs the shared search of :mod:`nzcgraph.symmetry` with the colours of f
    as labels and returns its first non-identity image. The search is
    complete, so a None return proves the labeling is distinguishing. Works
    for groups far too large to enumerate because a distinguishing labeling
    collapses the refinement to near-singleton cells. Raises a cap error
    past :data:`nzcgraph.symmetry.NODE_BUDGET` nodes.
    """
    if len(f.colors) != g.num_vertices:
        raise ValueError("labeling length does not match the vertex count")
    images = _color_preserving_images(g, f.colors, "colour-preserving search")
    return next((image for image in images
                 if any(i != x for i, x in enumerate(image))), None)


def constructive_labeling_q2(g: NzcGraph) -> Labeling:
    """The explicit 2-colour scheme for q = 2, n >= 3.

    Colour 1 goes to: basis vertices b_1 .. b_floor(n/2); vertices of class
    n - 1 whose skeleton equals {b_2, ..., b_floor(n/2)} or
    {b_floor(n/2)+2, ..., b_n} (the rule is applied literally even though
    those index ranges never produce a set of size n - 1, so in practice it
    selects nothing; see the verification reports); vertices of class 2 with
    skeleton {b_i, b_i+1}. Everything else, including the free classes,
    gets colour 2.
    """
    if g.params.q != 2:
        raise UnsupportedFieldError("the 2-colour scheme is defined for q = 2")
    n = g.params.n
    if n < 3:
        raise ValueError("the 2-colour scheme requires n >= 3")
    half = n // 2
    s, sizes = g.skeletons, g.sizes
    named = ((1 << half) - 2, (1 << n) - (1 << (half + 1)))  # {b_2..b_half}, {b_half+2..b_n}
    low = s & -s
    one = (((sizes == n - 1) & np.isin(s, named))
           | ((sizes == 2) & (s == low | low << 1)))  # consecutive pair {i, i+1}
    one[_basis_ids(half)] = True
    return Labeling(tuple(np.where(one, 1, 2).tolist()), 2)


def constructive_labeling_q3(g: NzcGraph) -> Labeling:
    """Twin-set-injective colouring with (q-1)^n colours, for q >= 3.

    Each twin set of size s gets s distinct colours drawn from the pool of
    (q-1)^n, and same-size twin sets receive pairwise distinct colour SETS
    (lexicographically first combinations). Distinct sets matter: giving
    every size-s twin set the same colours 1..s admits colour-preserving
    automorphisms that exchange whole twin sets, which the verification
    engines expose on small cases.
    """
    if g.params.q < 3:
        raise UnsupportedFieldError("the twin-injective scheme is defined for q >= 3")
    n, q = g.params.n, g.params.q
    pool = (q - 1) ** n
    colors = [0] * g.num_vertices
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for ts in g.twin_sets():
        by_size.setdefault(len(ts), []).append(ts)
    for size, sets in by_size.items():
        if comb(pool, size) < len(sets):
            raise CapExceededError(
                f"cannot give {len(sets)} twin sets of size {size} distinct "
                f"colour sets from a pool of {pool}"
            )
        combos = itertools.combinations(range(1, pool + 1), size)
        for ts, combo in zip(sets, combos):
            for v, c in zip(ts, combo):
                colors[v] = c
    return Labeling(tuple(colors), pool)


def twin_lower_bound(g: NzcGraph) -> int:
    """Max twin-set size: two same-coloured twins swap under an automorphism,
    so any distinguishing labeling needs at least this many colours."""
    return max(len(ts) for ts in g.twin_sets())


def transposition_report(g: NzcGraph, f: Labeling) -> CheckReport:
    """Certificate for the per-class destroyed-transposition tallies (q = 2).

    Every transposition (l m) of basis indices extends to an automorphism;
    all C(n, 2) come from :func:`transposition_extensions`, and each
    destroyed one is attributed to the first slot in the fixed order T1,
    T(n-1), T2 whose vertices witness a colour change. The closed forms are
    n^2/4 (or (n^2-1)/4), n-2 and (n^2-6n+8)/4 (or (n^2-6n+9)/4).

    Pass when every slot matches its closed form and all C(n, 2)
    transpositions are covered. When the closed forms fail but coverage
    holds, the outcome is an anomaly: the deviations are enumerated and the
    run continues (the 2-colour scheme's stated class-(n-1) rule selects no
    vertex when read literally, so its tally is 0 instead of n - 2 for every
    n >= 4 and the class-2 slot absorbs the difference).
    """
    if g.params.q != 2:
        raise UnsupportedFieldError("transposition accounting requires q = 2")
    n = g.params.n
    l, m = np.triu_indices(n, 1)  # (l, m) order, 0-based
    images, colors = transposition_extensions(g), np.asarray(f.colors)
    slots = {"T1": 1, "T(n-1)": n - 1, "T2": 2}
    members = [np.flatnonzero(g.sizes == i) for i in slots.values()]
    hits = np.stack([(colors[images[:, vs]] != colors[vs]).any(axis=1) for vs in members], axis=1)
    first = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
    tallies = {slot: int(np.count_nonzero(first == k)) for k, slot in enumerate(slots)}
    if n % 2 == 0:
        expected = {"T1": n * n // 4, "T(n-1)": n - 2, "T2": (n * n - 6 * n + 8) // 4}
    else:
        expected = {"T1": (n * n - 1) // 4, "T(n-1)": n - 2, "T2": (n * n - 6 * n + 9) // 4}
    failures = [f"{slot}: destroyed {tallies[slot]}, stated form gives {expected[slot]}"
                for slot in slots if tallies[slot] != expected[slot]]
    uncovered = [(a + 1, b + 1) for a, b in zip(l[first < 0].tolist(), m[first < 0].tolist())]
    if uncovered:
        failures.append(f"uncovered transpositions: {uncovered}")
    report = CheckReport.of(
        g, "transposition-tallies",
        "destroyed transpositions per class slot match n^2/4 | (n^2-1)/4, "
        "n-2, (n^2-6n+8)/4 | (n^2-6n+9)/4 and jointly cover all C(n,2)",
        len(l), failures,
        {"tallies": tallies, "expected": expected, "covers_all": not uncovered})
    if failures and not uncovered:
        report.status = ANOMALY
    return report


def exists_distinguishing_labeling(g: NzcGraph, grp: AutGroup, t: int) -> Labeling | None:
    """Exact search: a distinguishing labeling with colours in 1..t, or None.

    Vertices are coloured in canonical id order, colours tried in increasing
    order. Sound prunings only: new colours are introduced canonically
    (colour names are interchangeable, so only the first unused colour is
    tried beyond those already used), and a branch is accepted early once
    every non-identity group element is already broken by the coloured
    prefix, at which point any completion works. Raises a cap error past
    :data:`nzcgraph.symmetry.NODE_BUDGET` nodes, read when the call starts.

    The live elements are a Python-int bitset over the rows of ``grp.perms``.
    Colouring vertex k with c keeps a row when the row and its inverse each
    map k to a vertex u >= k or to one with u < k and colour c; those rows
    are ORs of :meth:`nzcgraph.symmetry.AutGroup.column_masks`, so a branch
    costs a few big-int operations, not one test per live element.
    """
    nv = g.num_vertices
    if t < 1:
        raise ValueError("colour count must be >= 1")
    ident = np.arange(nv, dtype=grp.perms.dtype)
    moved = np.packbits((grp.perms != ident).any(axis=1), bitorder="little")
    colors = [0] * nv
    nodes, budget = 0, symmetry.NODE_BUDGET

    def dfs(k: int, live: int, max_used: int) -> Labeling | None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise CapExceededError(f"exact search exceeded {budget} nodes")
        if not live:
            witness = tuple(colors[:k]) + (1,) * (nv - k)
            return Labeling(witness, t)
        if k == nv:
            return None
        top = min(max_used + 1, t)
        fwd, inv = grp.column_masks(k)
        keep_fwd, keep_inv = [fwd[k]] * (top + 1), [inv[k]] * (top + 1)
        for u in range(k):  # rows that map k to u, or whose inverse does, keep colour(u)
            keep_fwd[colors[u]] |= fwd[u]
            keep_inv[colors[u]] |= inv[u]
        for c in range(1, top + 1):
            colors[k] = c
            hit = dfs(k + 1, live & keep_fwd[c] & keep_inv[c], max(max_used, c))
            if hit is not None:
                return hit
        colors[k] = 0
        return None

    found = dfs(0, int.from_bytes(moved.tobytes(), "little"), 0)
    if found is not None and not is_distinguishing(g, grp, found):
        raise AssertionError("search returned a non-distinguishing witness")
    return found


def _nontrivial_automorphism(g: NzcGraph) -> np.ndarray | None:
    """The swap of the first two basis indices, extended and validated (q = 2,
    n >= 2), or None. At q >= 3 a twin pair swaps, which the twin bound that
    :func:`dist_number` raises this witness against already counts."""
    n = g.params.n
    if g.params.q != 2 or n < 2:
        return None
    return extend_basis_permutation(g, [1, 0, *range(2, n)])


def _scheme_verdict(g: NzcGraph, f: Labeling, grp: AutGroup | None) -> SchemeVerdict:
    """Check a labeling with the strongest feasible engine."""
    if grp is not None:
        return SchemeVerdict(f, "explicit-group-scan", int(not is_distinguishing(g, grp, f)))
    if g.params.q == 2:
        return SchemeVerdict(f, "structural-scan", len(structural_survivors(g, f)))
    return SchemeVerdict(f, "colour-preserving-search",
                         int(find_color_preserving(g, f) is not None))


def dist_number(g: NzcGraph, grp: AutGroup | None) -> DistResult:
    """Distinguishing number: exact where the search is feasible, else bounds.

    `grp` is the explicitly enumerated group of `g`, or None when there is
    none (see :func:`nzcgraph.symmetry.explicit_group`). Exact mode needs
    the group and at most :data:`EXACT_VERTEX_CAP` vertices; it tries
    t = 1, 2, ... and returns the least t with a witness, recording the
    largest refuted colour count. Bounded mode reports the twin-set lower bound (raised to 2 when a
    non-trivial automorphism is certified) and a validated constructive
    labeling as the upper bound; when the two meet, the value is exact even
    though no search ran.
    """
    n, q = g.params.n, g.params.q
    nv = g.num_vertices
    twin = twin_lower_bound(g)
    if grp is not None:
        nontrivial = grp.order > 1
    else:
        nontrivial = _nontrivial_automorphism(g) is not None
    lower = max(twin, 2 if nontrivial else 1)
    lower_source = "twin-sets" if twin >= 2 else (
        "non-trivial-automorphism" if nontrivial else "trivial")

    scheme = None
    if q == 2 and n >= 3:
        scheme = _scheme_verdict(g, constructive_labeling_q2(g), grp)
        source = "two-colour-scheme"
    elif q >= 3:
        scheme = _scheme_verdict(g, constructive_labeling_q3(g), grp)
        source = "twin-injective-scheme"
    if scheme is not None and not scheme.preservers:
        witness, upper, upper_source = scheme.labeling, scheme.labeling.t, source
    else:
        witness, upper, upper_source = all_distinct_labeling(g), nv, "all-distinct"

    if grp is not None and nv <= EXACT_VERTEX_CAP:
        try:
            refuted = 0
            for t in range(1, upper + 1):
                hit = exists_distinguishing_labeling(g, grp, t)
                if hit is not None:
                    return DistResult(lower=t, upper=t, method="exact", witness=hit,
                                      scheme=scheme, lower_source="search",
                                      upper_source="search",
                                      refuted=refuted if refuted else None)
                refuted = t
        except CapExceededError:
            pass
    return DistResult(lower=lower, upper=upper, method="bounded", witness=witness,
                      scheme=scheme, lower_source=lower_source, upper_source=upper_source)
