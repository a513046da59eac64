"""Certificate suite: machine-check the full claim catalog for given parameters.

Every claim about these graphs that the package implements is re-derived here
from scratch for concrete (n, q) and reported as a pass/fail certificate.
Claims whose stated closed forms are contradicted by the computation are
reported with status "anomaly" and exact deviations instead of aborting; see
``transposition_report`` for the one known case.

The group certificates and the distinguishing number run on the group
:func:`nzcgraph.symmetry.explicit_group` picks, and only where it picks one.
"""

from __future__ import annotations

from math import comb, factorial

from . import distinguishing as dst
from . import graph as gr
from . import serialize
from . import symmetry as sym
from . import vectorspace as vs
from .graph import NzcGraph
from .reporting import CheckReport

CROSS_CHECK_VERTICES = 70  # vertices of automorphism-structure and the 2-colour search cross-check


def _report_group_order(g: NzcGraph, grp: sym.AutGroup) -> CheckReport:
    distinct = grp.distinct_rows()
    want = factorial(g.params.n)
    failures = []
    if distinct != want:
        failures.append(f"{distinct} distinct automorphisms, expected n! = {want}")
    return CheckReport.of(g, "aut-order-factorial",
                          "|Aut(G)| = n! via distinct basis-permutation extensions (q = 2)",
                          grp.order, failures)


def _report_engines_agree(g: NzcGraph, grp: sym.AutGroup,
                          oracle: sym.AutGroup) -> CheckReport:
    failures = []
    if not grp.set_equal(oracle):
        failures.append(
            f"structural group ({grp.order}) differs from oracle group ({oracle.order})")
    return CheckReport.of(
        g, "engines-agree",
        "independent backtracking oracle enumerates exactly the basis-permutation extensions",
        oracle.order, failures, {"oracle_order": oracle.order, "structural_order": grp.order})


def _report_orbits_match_classes(g: NzcGraph, grp: sym.AutGroup) -> CheckReport:
    got = sorted(tuple(sorted(o)) for o in grp.orbits())
    want = sorted(tuple(sorted(vs_)) for vs_ in g.t_classes().values())
    failures = []
    if got != want:
        failures.append("orbit partition differs from the skeleton-size classes")
    return CheckReport.of(
        g, "orbits-are-classes",
        "the orbit partition under the full group equals the classes T_1..T_n",
        len(got), failures)


def _report_top_class_fixed(g: NzcGraph, grp: sym.AutGroup) -> CheckReport:
    top = g.t_classes()[g.params.n]
    failures = []
    if len(top) != 1:
        failures.append(f"class n has {len(top)} vertices, expected a single one")
    else:
        v = top[0]
        moved = int((grp.perms[:, v] != v).sum())
        if moved:
            failures.append(f"{moved} group elements move the full-skeleton vertex")
    return CheckReport.of(g, "full-skeleton-vertex-fixed",
                          "the unique class-n vertex is fixed by every automorphism",
                          grp.order, failures)


def _report_two_labeling(g: NzcGraph, scheme: dst.SchemeVerdict) -> CheckReport:
    f = scheme.labeling
    failures = []
    engines = [scheme.engine]
    if scheme.preservers:
        failures.append("a non-identity group element preserves the 2-colour scheme"
                        if scheme.engine == "explicit-group-scan"
                        else f"{scheme.preservers} basis permutations preserve the scheme")
    if g.num_vertices <= CROSS_CHECK_VERTICES:
        engines.append("colour-preserving-search")
        if dst.find_color_preserving(g, f) is not None:
            failures.append("search engine found a colour-preserving automorphism")
    return CheckReport.of(
        g, "two-colour-distinguishing",
        "the explicit 2-colour scheme is a distinguishing labeling (q = 2)",
        factorial(g.params.n), failures, {"engines": engines})


def _report_dist_number(g: NzcGraph, result: dst.DistResult) -> CheckReport:
    n, q = g.params.n, g.params.q
    if q == 2:
        want = 1 if n == 1 else 2
        claim_text = "Dist(G) = 2 for q = 2 (1 for the single-vertex graph)"
    else:
        want = (q - 1) ** n
        claim_text = "Dist(G) = (q-1)^n for q >= 3"
    failures = []
    if result.value != want:
        failures.append(
            f"distinguishing number {result.value or (result.lower, result.upper)} != {want}")
    if result.witness is None or len(result.witness.colors) != g.num_vertices:
        failures.append("missing witness labeling")
    return CheckReport.of(
        g, "distinguishing-number", claim_text, 1, failures,
        {"method": result.method, "lower": result.lower, "upper": result.upper,
         "lower_source": result.lower_source, "upper_source": result.upper_source,
         "refuted": result.refuted})


def _report_twin_bound(g: NzcGraph) -> CheckReport:
    got = dst.twin_lower_bound(g)
    want = (g.params.q - 1) ** g.params.n
    failures = []
    if got != want:
        failures.append(f"max twin-set size {got} != (q-1)^n = {want}")
    return CheckReport.of(g, "twin-lower-bound",
                          "max twin-set size = (q-1)^n, so Dist(G) >= (q-1)^n (q >= 3)",
                          len(g.twin_sets()), failures)


def _report_constructive_q3(g: NzcGraph, scheme: dst.SchemeVerdict) -> CheckReport:
    n, q = g.params.n, g.params.q
    f = scheme.labeling
    failures = []
    if len(f.used_colors()) != (q - 1) ** n:
        failures.append(f"scheme uses {len(f.used_colors())} colours, wanted {(q - 1) ** n}")
    engines = [scheme.engine]
    if scheme.engine == "explicit-group-scan":
        if scheme.preservers:
            failures.append("a non-identity group element preserves the twin-injective scheme")
        engines.append("colour-preserving-search")
        found = dst.find_color_preserving(g, f) is not None
    else:  # without a group the search is the verdict itself
        found = bool(scheme.preservers)
    if found:
        failures.append("search engine found a colour-preserving automorphism")
    return CheckReport.of(
        g, "twin-injective-distinguishing",
        "the (q-1)^n-colour twin-injective scheme is distinguishing (q >= 3)",
        1, failures, {"engines": engines, "colours": f.t})


def _report_observed_group_order(g: NzcGraph, grp: sym.AutGroup) -> CheckReport:
    """Observed oracle order against the twin/basis product form (q >= 3).

    The product n! * prod_i ((q-1)^i)!^C(n,i) is NOT an established claim for
    q >= 3; this certificate only records whether the observed enumeration
    matches that shape on instances small enough to enumerate.
    """
    n, q = g.params.n, g.params.q
    predicted = factorial(n)
    for i in range(1, n + 1):
        predicted *= factorial((q - 1) ** i) ** comb(n, i)
    failures = []
    if grp.order != predicted:
        failures.append(f"observed order {grp.order} != product form {predicted}")
    return CheckReport.of(
        g, "observed-group-order-q3",
        "observed |Aut(G)| matches n! * prod ((q-1)^i)!^C(n,i) "
        "(recorded observation, not an established claim)",
        grp.order, failures, {"observed": grp.order, "product_form": predicted})


def _report_json_roundtrip(g: NzcGraph) -> CheckReport:
    failures = []
    try:  # the dict, with its (E, 2) edge array, is freed when the call returns
        back = serialize.graph_from_dict(serialize.graph_to_dict(g),
                                         vertex_cap=g.params.vertex_cap)
    except ValueError as exc:
        failures.append(f"emitted JSON does not re-import: {exc}")
    else:
        if not serialize.graphs_equal(g, back):
            failures.append("re-imported graph differs from the original")
    return CheckReport.of(g, "json-roundtrip", "emitted JSON re-imports to an identical graph",
                          g.num_vertices, failures)


def verify_params(n: int, q: int, *, vertex_cap: int = vs.DEFAULT_VERTEX_CAP, seed: int = 0):
    """Yield every applicable certificate for one (n, q), each as it finishes."""
    params = vs.SpaceParams(n, q, vertex_cap)
    g = gr.build(params)
    yield gr.check_adjacency_invariants(g)
    yield gr.check_twin_structure(g)
    yield gr.check_degree_formula_general(g)
    grp = sym.explicit_group(g)
    if q == 2:
        yield gr.check_degree_formula(g)
        yield gr.check_pair_counts(g)
        oracle = None
        if grp is not None:
            yield _report_group_order(g, grp)
            yield grp.check_group_axioms(seed=seed)
            yield _report_orbits_match_classes(g, grp)
            yield _report_top_class_fixed(g, grp)
            yield sym.check_orbit_stabilizer(grp)
            if g.num_vertices <= CROSS_CHECK_VERTICES:
                yield sym.check_automorphism_structure(g, grp)
            if g.num_vertices <= sym.ORACLE_VERTEX_CAP:
                oracle = sym.aut_group_oracle(g)
                yield _report_engines_agree(g, grp, oracle)
        yield sym.check_extension_isomorphism(g, grp, oracle, seed=seed)
    else:
        if grp is not None:
            yield grp.check_group_axioms(seed=seed)
            yield sym.check_orbit_stabilizer(grp)
            yield _report_observed_group_order(g, grp)
        yield _report_twin_bound(g)
    # the scheme certificates read the verdict dist_number reached, so the
    # constructive labeling is built and checked once
    result = dst.dist_number(g, grp)
    if result.scheme is not None and q == 2:
        yield _report_two_labeling(g, result.scheme)
        yield dst.transposition_report(g, result.scheme.labeling)
    elif result.scheme is not None:
        yield _report_constructive_q3(g, result.scheme)
    yield _report_dist_number(g, result)
    yield _report_json_roundtrip(g)


def verify_ranges(n_values, q_values, **kwargs):
    """Yield the certificates of every (n, q), q outermost, each as it finishes."""
    for q in q_values:
        for n in n_values:
            yield from verify_params(n, q, **kwargs)


def summarize(reports) -> dict[str, int]:
    out = {"pass": 0, "fail": 0, "anomaly": 0}
    for r in reports:
        out[r.status] += 1
    return out
