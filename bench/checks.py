"""The benchmark's own correctness checks, written without nzcgraph.

Vertices follow the documented canonical order: the coefficient tuple
(c1, ..., cn) has radix-q value c1 + c2*q + ... + cn*q**(n-1), so coordinate 1
is the least significant digit, and its vertex id is that value minus one.
Everything here recomputes from that definition, so a defect in the package
cannot hide itself by agreeing with its own helpers.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

EXPECTATIONS = Path(__file__).with_name("expectations.json")
SUMMARY = re.compile(r"summary: (\d+) pass, (\d+) fail, (\d+) anomaly")


def coefficient_tuples(n: int, q: int) -> list[tuple[int, ...]]:
    """All q**n - 1 non-zero coefficient tuples in canonical id order."""
    out = []
    for value in range(1, q**n):
        digits = []
        for _ in range(n):
            value, d = divmod(value, q)
            digits.append(d)
        out.append(tuple(digits))
    return out


def skeleton_masks(n: int, q: int) -> np.ndarray:
    """Bitmask of the non-zero coordinates of every vertex, by vertex id."""
    return np.array([sum(1 << i for i, c in enumerate(t) if c)
                     for t in coefficient_tuples(n, q)], dtype=np.int64)


def coordinate_vertex_perm(n: int, q: int, sigma) -> list[int]:
    """Vertex map induced by moving coordinate i to coordinate sigma[i]."""
    index = {t: vid for vid, t in enumerate(coefficient_tuples(n, q))}
    image = []
    for t in coefficient_tuples(n, q):
        moved = [0] * n
        for i, c in enumerate(t):
            moved[sigma[i]] = c
        image.append(index[tuple(moved)])
    return image


def edge_count(n: int, q: int) -> int:
    """Edges of the graph in closed form.

    Per coordinate, an ordered pair (u, v) with disjoint skeletons has
    (0, 0), (x, 0) or (0, x): (2q - 1)**n pairs, less those where u or v is
    the zero vector. Every other ordered pair of distinct vertices is an edge.
    """
    v = q**n - 1
    disjoint = (2 * q - 1) ** n - 2 * q**n + 1
    return (v * (v - 1) - disjoint) // 2


def witness_problems(masks: np.ndarray, colors, witness) -> list[str]:
    """Why `witness` is not a non-identity colour-preserving automorphism."""
    nv = len(masks)
    if witness is None:
        return ["no witness"]
    perm = np.asarray(witness, dtype=np.int64)
    if perm.shape != (nv,) or not np.array_equal(np.sort(perm), np.arange(nv)):
        return ["witness is not a permutation of the vertex ids"]
    problems = []
    if np.array_equal(perm, np.arange(nv)):
        problems.append("witness is the identity")
    col = np.asarray(colors)
    if not np.array_equal(col[perm], col):
        problems.append("witness changes a colour")
    meet = (masks[:, None] & masks[None, :]) != 0
    if not np.array_equal(meet[np.ix_(perm, perm)], meet):
        problems.append("witness does not preserve skeleton intersection")
    return problems


def basis_perm_problems(n: int, colors, sigma) -> list[str]:
    """Why the extension of basis permutation `sigma` does not preserve colours (q = 2)."""
    if sorted(sigma) != list(range(n)):
        return [f"survivor {sigma} is not a permutation"]
    if list(sigma) == list(range(n)):
        return ["survivor is the identity"]
    for mask in range(1, 1 << n):
        image = sum(1 << sigma[i] for i in range(n) if mask >> i & 1)
        if colors[image - 1] != colors[mask - 1]:
            return [f"survivor {tuple(sigma)} changes the colour of mask {mask}"]
    return []


def load_expectations() -> list[dict]:
    with EXPECTATIONS.open(encoding="utf-8") as fh:
        return json.load(fh)["verify"]


def expected_claims(rules: list[dict], n: int, q: int) -> dict[str, str]:
    """Claim -> required status for one (n, q)."""
    out: dict[str, str] = {}
    for rule in rules:
        if rule["n"][0] <= n <= rule["n"][1] and rule["q"][0] <= q <= rule["q"][1]:
            for claim in rule["claims"]:
                out[claim] = rule["status"]
    return out


def verify_problems(rules: list[dict], n: int, q: int, rc: int, stdout: str,
                    report: dict | None) -> list[str]:
    """Compare one `nzc verify -n N -q Q` run against the expectations."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if report is None:
        return problems + ["no JSON report written"]
    statuses = {}
    for entry in report["claims"]:
        claim, status = entry["claim"], entry["status"]
        if entry["params"].get("n") != n or entry["params"].get("q") != q:
            problems.append(f"{claim}: reported for {entry['params']}, ran n={n} q={q}")
        if claim in statuses:
            problems.append(f"{claim}: reported twice")
        statuses[claim] = status
    for claim, want in expected_claims(rules, n, q).items():
        got = statuses.get(claim)
        if got != want:
            problems.append(f"{claim}: status {got}, expected {want}")
    for claim, status in statuses.items():
        if status == "fail":
            problems.append(f"{claim}: fail")
    counts = [list(statuses.values()).count(s) for s in ("pass", "fail", "anomaly")]
    if [report["summary"][s] for s in ("pass", "fail", "anomaly")] != counts:
        problems.append("JSON summary does not match its claims")
    lines = stdout.strip().splitlines()
    match = SUMMARY.fullmatch(lines[-1]) if lines else None
    if match is None or [int(x) for x in match.groups()] != counts:
        problems.append("printed summary does not match the JSON report")
    elif len(lines) < len(statuses) + 1:
        problems.append("fewer printed lines than certificates")
    return problems
