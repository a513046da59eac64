"""Command-line front end.

Subcommands: build, twins, aut, orbits, labeling, dist, verify. Each takes
-n, -q, --vertex-cap and --out, and only the other settings it reads, as
``SETTINGS`` lists them; ``aut`` and ``orbits`` also take --engine.
Exit codes: 0 ok, 1 check failure, 2 usage error, 3 cap exceeded,
4 engine not applicable, 5 crash (out of memory or any other uncaught
error, reported in one line). NZC_CONFIG may point to a JSON file supplying
defaults for the settings (the long flag names with underscores). Every
setting, from a flag or from the file, is checked before any work starts,
also one the subcommand does not read (``format`` against the formats of the
subcommand where it is offered, else against every format any subcommand
writes); a bad one exits 2 with a line that names it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import distinguishing as dst
from . import graph as gr
from . import serialize
from . import symmetry as sym
from . import verify as vfy
from . import vectorspace as vs
from .errors import CapExceededError, UnsupportedFieldError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_ENGINE = 4
EXIT_CRASH = 5

CONFIG_ENV = "NZC_CONFIG"
HELP = {
    "build": "construct a graph and export it",
    "twins": "print the twin partition",
    "aut": "compute the automorphism group",
    "orbits": "orbit partition under the automorphism group",
    "labeling": "emit the constructive distinguishing labeling",
    "dist": "distinguishing number (exact or bounds)",
    "verify": "run the certificate suite over parameter ranges",
}
FORMATS = {"build": ("json", "dot", "table"), "labeling": ("json", "table")}
ANY_FORMAT = tuple(dict.fromkeys(f for fmts in FORMATS.values() for f in fmts))
# each setting once: its default, its least value and the subcommands that read it
SETTINGS = {
    "vertex_cap": (vs.DEFAULT_VERTEX_CAP, 1, tuple(HELP)),  # every subcommand
    "seed": (0, 0, ("verify",)),
    "format": ("json", None, tuple(FORMATS)),
}
GRAPH_WRITERS = {"json": serialize.graph_to_json, "dot": serialize.graph_to_dot,
                 "table": serialize.graph_to_table}


def _load_config() -> dict:
    path = os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("the file must hold a JSON object")
    return {k: data[k] for k in SETTINGS if k in data}


def _settings(args, config) -> dict:
    """Each setting: its flag, else its config value, else its default.

    The config may hold any JSON value, so a bad setting raises ValueError.
    """
    out = {}
    for key, (default, least, _) in SETTINGS.items():
        flag = getattr(args, key, None)
        value = config.get(key, default) if flag is None else flag
        if key == "format":
            allowed = FORMATS.get(args.command, ANY_FORMAT)
            if value not in allowed:
                raise ValueError(f"--format must be one of {', '.join(allowed)}")
        elif isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise ValueError(f"--{key.replace('_', '-')} must be >= {least}")
        out[key] = value
    if args.out:
        _check_out(args.out)
    return out


def _check_out(path: str) -> None:
    """Raise ValueError for an --out that cannot be written, creating nothing."""
    target = path if os.path.exists(path) else os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ValueError(f"--out {path} cannot be written")


def _add_common(p: argparse.ArgumentParser, command: str) -> None:
    """-n, -q, --out and each setting of ``SETTINGS`` that `command` reads."""
    if command == "verify":
        p.add_argument("-n", required=True, help="dimension or range like 3..8")
        p.add_argument("-q", required=True, help="field size or range like 2..3")
    else:
        p.add_argument("-n", type=int, required=True, help="dimension")
        p.add_argument("-q", type=int, required=True, help="field size")
    for key, (_, _, commands) in SETTINGS.items():
        if command in commands:
            kind = {"choices": FORMATS[command]} if key == "format" else {"type": int}
            p.add_argument("--" + key.replace("_", "-"), **kind)
    out_help = ("write the JSON report to FILE; the certificate lines still go to stdout"
                if command == "verify" else "write output to FILE instead of stdout")
    p.add_argument("--out", help=out_help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it depends on no input, since every
    setting's default is resolved per call by ``_settings``."""
    parser = argparse.ArgumentParser(
        prog="nzc",
        description="Build non-zero component graphs, compute their automorphism "
                    "groups and distinguishing numbers, and verify the claim catalog.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, text in HELP.items():
        _add_common(subs.add_parser(command, help=text), command)
    subs.choices["aut"].add_argument("--engine", choices=("structural", "oracle", "both"))
    subs.choices["orbits"].add_argument("--engine", choices=("structural", "oracle"))
    return parser


def _parse_range(flag: str, text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:  # a range, not a list: a long one ends at the vertex cap, not in memory
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"{flag} {text} is not an integer or a range like 3..8") from None
    if not values:
        raise ValueError(f"{flag} {text} is an empty range")
    return values


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _graph(args, opts) -> gr.NzcGraph:
    return gr.build(vs.SpaceParams(args.n, args.q, opts["vertex_cap"]))


def _engine(args) -> str:
    """--engine, else the structural engine at q = 2 and the oracle at q >= 3."""
    return args.engine or ("structural" if args.q == 2 else "oracle")


def _group_for(g, engine):
    if engine == "structural":
        return sym.aut_group_structural(g)
    return sym.aut_group_oracle(g)


def cmd_build(args, opts) -> int:
    _emit(GRAPH_WRITERS[opts["format"]](_graph(args, opts)), args.out)
    return EXIT_OK


def cmd_twins(args, opts) -> int:
    g = _graph(args, opts)
    lines = [f"{len(g.twin_sets())} twin sets"]
    for ts in g.twin_sets():
        label = vs.format_vector(g.vertices[ts[0]])
        skel = ",".join(str(i) for i in vs.skeleton_indices(int(g.skeletons[ts[0]])))
        lines.append(f"  skeleton {{{skel}}} size {len(ts)}: "
                     + " ".join(str(v) for v in ts) + f"  (e.g. {label})")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_aut(args, opts) -> int:
    g = _graph(args, opts)
    engines = ("structural", "oracle") if args.engine == "both" else (_engine(args),)
    grp, *oracle = [_group_for(g, engine) for engine in engines]
    lines = [f"{engines[0]} engine: |Aut| = {grp.order}",
             "orbits: " + " ".join(str(list(o)) for o in grp.orbits())]
    agree = True
    if oracle:
        agree = grp.set_equal(oracle[0])
        lines += [f"oracle engine: |Aut| = {oracle[0].order}", f"engines set-equal: {agree}"]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if agree else EXIT_CHECK_FAILED


def cmd_orbits(args, opts) -> int:
    g = _graph(args, opts)
    engine = _engine(args)
    grp = _group_for(g, engine)
    lines = [f"{engine} group of order {grp.order}"]
    for orb in grp.orbits():
        labels = " ".join(vs.format_vector(g.vertices[v]) for v in orb)
        lines.append(f"  orbit size {len(orb)}: {labels}")
    moved = grp.moved_set()
    pairs = int((grp.orbit_sizes() - 1).sum())  # sum of |o|(|o| - 1): |o| - 1 per vertex
    lines.append(f"moved vertices: {len(moved)}; same-orbit ordered pairs: {pairs}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_labeling(args, opts) -> int:
    g = _graph(args, opts)
    if args.q == 2 and args.n < 3:  # valid input, but no scheme applies
        raise UnsupportedFieldError("the 2-colour scheme requires n >= 3")
    f = (dst.constructive_labeling_q2(g) if args.q == 2
         else dst.constructive_labeling_q3(g))
    if opts["format"] == "json":
        _emit(json.dumps({"n": args.n, "q": args.q, "t": f.t,
                          "colors": list(f.colors)}) + "\n", args.out)
    else:
        lines = [f"t = {f.t}"]
        for v in range(g.num_vertices):
            lines.append(f"  {vs.format_vector(g.vertices[v]):<18} -> {f.colors[v]}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_dist(args, opts) -> int:
    g = _graph(args, opts)
    result = dst.dist_number(g, sym.explicit_group(g))
    if result.method == "exact":
        line = f"exact {result.value}"
        if result.refuted:
            line += f" (search refuted {result.refuted} colours)"
    elif result.value is not None:
        line = (f"{result.value} (lower={result.lower_source} {result.lower}, "
                f"upper={result.upper_source} {result.upper})")
    else:
        line = (f"bounds [{result.lower}, {result.upper}] "
                f"(lower={result.lower_source}, upper={result.upper_source})")
    witness = result.witness
    line += f"\nwitness uses {len(witness.used_colors())} colours: {list(witness.colors)}"
    _emit(line + "\n", args.out)
    return EXIT_OK


def cmd_verify(args, opts) -> int:
    n_values = _parse_range("-n", args.n)
    q_values = _parse_range("-q", args.q)
    reports = []
    for report in vfy.verify_ranges(n_values, q_values, vertex_cap=opts["vertex_cap"],
                                    seed=opts["seed"]):
        print(report.format_line(), flush=True)
        reports.append(report)
    counts = vfy.summarize(reports)
    print(f"summary: {counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['anomaly']} anomaly", flush=True)
    if args.out:
        payload = {"claims": [r.to_dict() for r in reports], "summary": counts}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    return EXIT_OK if counts["fail"] == 0 else EXIT_CHECK_FAILED


COMMANDS = {
    "build": cmd_build,
    "twins": cmd_twins,
    "aut": cmd_aut,
    "orbits": cmd_orbits,
    "labeling": cmd_labeling,
    "dist": cmd_dist,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config()
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: cannot read {CONFIG_ENV} config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args, _settings(args, config))
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UnsupportedFieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash gets one line and its own exit code
        detail = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}{': ' if detail else ''}{detail}", file=sys.stderr)
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
