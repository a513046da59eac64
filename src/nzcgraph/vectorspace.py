"""Non-zero vectors of an n-dimensional space over q coefficient symbols.

Coefficients are opaque symbols {0, ..., q-1}: adjacency in the component
graph depends only on which coefficients are non-zero, so no field
arithmetic is implemented and any q >= 2 is accepted (the counting results
only use the number q - 1 of non-zero symbols).

Canonical vertex order: the vector with coefficient tuple (c1, ..., cn) has
radix-q value c1 + c2*q + ... + cn*q**(n-1), i.e. coordinate 1 is the least
significant digit. Vertex id = value - 1, so ids run 0 .. q**n - 2 and are
stable across runs and engines. For q = 2 the radix value of a vertex equals
its skeleton bitmask, which the structural engine exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError

DEFAULT_VERTEX_CAP = 65535


def _integer(value, what: str) -> int:
    """A Python or numpy integer as an int; bool, float, str and the rest raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, not {type(value).__name__}")
    return int(value)


def _integers(values, what: str) -> tuple[int, ...]:
    """A list or tuple of integers, each checked as by :func:`_integer`, as a tuple of ints."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list of integers, not {type(values).__name__}")
    if not set(map(type, values)) <= {int}:  # plain ints, the usual case, need no call each
        for x in values:
            _integer(x, f"{what} entry")
    return tuple(map(int, values))


@dataclass(frozen=True)
class SpaceParams:
    """Dimension n, symbol count q, and the vertex cap for built graphs.

    Each is a Python or numpy integer, stored as an int; anything else,
    bool included, raises ValueError naming the field.
    """

    n: int
    q: int
    vertex_cap: int = DEFAULT_VERTEX_CAP

    def __post_init__(self) -> None:
        for name in ("n", "q", "vertex_cap"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got {self.n}")
        if self.q < 2:
            raise ValueError(f"field size must be >= 2, got {self.q}")
        if self.vertex_cap < 1:
            raise ValueError(f"vertex cap must be positive, got {self.vertex_cap}")
        # here q**n >= 2**(n * (bits(q) - 1)) > 2 * (cap + 1), known without the power,
        # which can take seconds and gigabytes to compute and too many digits to print
        if self.n * (self.q.bit_length() - 1) > (self.vertex_cap + 1).bit_length():
            raise CapExceededError(f"q**n - 1 exceeds cap {self.vertex_cap}")
        if self.num_vertices > self.vertex_cap:
            raise CapExceededError(
                f"q**n - 1 = {self.num_vertices} vertices exceeds cap {self.vertex_cap}"
            )

    @property
    def num_vertices(self) -> int:
        return self.q**self.n - 1


def vector_from_id(params: SpaceParams, vid: int) -> tuple[int, ...]:
    """Coefficient tuple of the vertex with canonical id `vid`."""
    if not 0 <= vid < params.num_vertices:
        raise IndexError(f"vertex id {vid} out of range 0..{params.num_vertices - 1}")
    value = vid + 1
    coeffs = []
    for _ in range(params.n):
        value, c = divmod(value, params.q)
        coeffs.append(c)
    return tuple(coeffs)


def vector_id(params: SpaceParams, coeffs: tuple[int, ...]) -> int:
    """Canonical id of a coefficient tuple. Inverse of vector_from_id."""
    if len(coeffs) != params.n:
        raise ValueError(f"expected {params.n} coefficients, got {len(coeffs)}")
    value = 0
    for c in reversed(coeffs):
        if not 0 <= c < params.q:
            raise ValueError(f"coefficient {c} outside 0..{params.q - 1}")
        value = value * params.q + c
    if value == 0:
        raise ValueError("the zero vector is not a vertex")
    return value - 1


def coefficient_array(params: SpaceParams) -> np.ndarray:
    """The (q**n - 1, n) int64 array whose row v is ``vector_from_id(params, v)``:
    the radix-q digits of v + 1, least significant first."""
    values = np.arange(1, params.num_vertices + 1, dtype=np.int64)[:, None]
    return values // params.q ** np.arange(params.n) % params.q


def enumerate_vectors(params: SpaceParams) -> list[tuple[int, ...]]:
    """All q**n - 1 non-zero vectors in canonical id order."""
    return list(map(tuple, coefficient_array(params).tolist()))


def skeleton(coeffs: tuple[int, ...]) -> int:
    """Bitmask of coordinates with a non-zero coefficient (bit i-1 for b_i)."""
    mask = 0
    for i, c in enumerate(coeffs):
        if c:
            mask |= 1 << i
    if not mask:
        raise ValueError("the zero vector has no skeleton")
    return mask


def skeleton_class(coeffs: tuple[int, ...]) -> int:
    """Number of non-zero coefficients, i.e. the skeleton-size class index."""
    return skeleton(coeffs).bit_count()


def skeleton_indices(mask: int) -> tuple[int, ...]:
    """1-based basis positions present in a skeleton bitmask."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def mask_from_indices(indices) -> int:
    """Skeleton bitmask from 1-based basis positions."""
    mask = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"basis positions are 1-based, got {i}")
        mask |= 1 << (i - 1)
    return mask


def basis_vector(params: SpaceParams, i: int) -> tuple[int, ...]:
    """The vector b_i: coefficient 1 at 1-based position i, zero elsewhere."""
    if not 1 <= i <= params.n:
        raise ValueError(f"basis position {i} outside 1..{params.n}")
    return tuple(1 if k == i - 1 else 0 for k in range(params.n))


def format_vector(coeffs: tuple[int, ...]) -> str:
    """Human-readable form like "b1+b3" or "2b1+b2"."""
    terms = []
    for i, c in enumerate(coeffs, start=1):
        if c == 1:
            terms.append(f"b{i}")
        elif c:
            terms.append(f"{c}b{i}")
    return "+".join(terms)
