"""Command line front end.

Subcommands: analyze (full report for one polytope file), gen (write a
named or random instance), census (batch random instances to CSV plus a
JSON summary), spectrum (candidate Q-codegrees of a normal configuration).

Exit codes: 0 success, 2 parse error (bad file or arguments), 3 invalid
input (empty / unbounded / lower-dimensional / non-lattice polytope, bad
configuration, dimension above POLYADJ_MAX_DIM), 4 internal consistency
failure (an exact cross-check refused the computed answer).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional

from .adjunction import AnalysisReport, _canonical_alpha, adjunction_data, analyze, core_config, raw_critical_shift
from .errors import InternalInconsistencyError, ParseError, PolyadjError
from .generators import SplitMix64, cube, fig1, random_lattice_polytope, scaled_simplex
from .polyfile import (
    config_from_document,
    format_polytope,
    parse_document,
    polytope_from_document,
    raw_inequalities,
)
from .polytope import dilate
from .ratmath import format_fraction, parse_rational
from .spectrum import _positive_epsilon, check_necessary_condition, spectrum_superset

DEFAULT_MAX_DIM = 8
# Reports list a spectrum superset's values only up to this many, about 20 MB
# of JSON written in a few seconds; a larger grid is reported by its size, as
# "values": null and "n_values". A d=5 polytope with vertices in [-2, 2]^5 can
# have 23,613,696 values, whose listing took minutes and gigabytes; the test
# suite's instances have at most 256,024.
MAX_LISTED_VALUES = 1_000_000


def _check_dim(d: int) -> None:
    raw = os.environ.get("POLYADJ_MAX_DIM", str(DEFAULT_MAX_DIM))
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"POLYADJ_MAX_DIM must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError("POLYADJ_MAX_DIM must be positive")
    if d > cap:
        raise ValueError(f"dimension {d} exceeds the safety cap POLYADJ_MAX_DIM={cap}")


_fr = format_fraction


def _point(p) -> list:
    return [_fr(c) for c in p]


def _grid_fields(grid) -> dict:
    """The values of a spectrum superset as a report lists them, or its size above MAX_LISTED_VALUES.

    The size is grid.size, as len() fails past sys.maxsize values."""
    if grid.size > MAX_LISTED_VALUES:
        return {"values": None, "n_values": grid.size}
    return {"values": [_fr(v) for v in grid]}


def _report_document(report: AnalysisReport, raw_c_star: Optional[Fraction]) -> dict:
    data = report.data
    p = data.polytope
    witness = report.fan_info.threshold_witness
    lem = report.lemmas
    doc = {
        "input": {
            "dim": p.dim,
            "n_facets": p.n_facets,
            "normals": [list(a) for a in p.normals],
            "rhs": [_fr(b) for b in p.rhs],
            "vertices": [_point(v) for v in p.vertices],
        },
        "qcd": _fr(data.qcodegree),
        "c_star": _fr(data.critical_shift),
        "core": {
            "dim": data.core.dim,
            "vertices": [_point(v) for v in data.core.vertices],
            "affine_hull": [{"normal": list(a), "value": _fr(beta)}
                            for a, beta in data.core.subspace.equations],
        },
        "core_normals": [list(a) for a in data.core_normals],
        "acore": {
            "dim": data.acore.dim,
            "vertices": [_point(v) for v in data.acore.vertices],
        },
        "fan": {
            "smooth": report.fan_info.smooth,
            "gorenstein_index": report.fan_info.gorenstein_index,
            "canonicity_threshold": _fr(report.fan_info.canonicity_threshold),
            "threshold_witness": None if witness is None else {
                "cone_rays": [list(r) for r in witness.cone.rays],
                "point": list(witness.point),
                "height": _fr(witness.height),
            },
        },
        "lemmas": {
            "origin_in_relative_interior": lem.origin_in_relative_interior,
            "core_normals_are_acore_vertices": lem.core_normals_are_acore_vertices,
            "alpha": _fr(lem.alpha),
            "alpha_is_canonical": lem.alpha_is_canonical,
            "scaled_interior_lattice_points": None if lem.scaled_interior_lattice_points is None
                else [_point(v) for v in lem.scaled_interior_lattice_points],
            "scaled_check_holds": lem.scaled_check_holds,
            "shift_vector": [_fr(v) for v in lem.shift_vector],
            "shift_is_integral": lem.shift_is_integral,
            "all_hold": lem.all_hold,
        },
        "spectrum": {
            "step": _fr(report.spectrum.step),
            "epsilon": _fr(report.spectrum.epsilon),
            **_grid_fields(report.spectrum.values),
            "qcd_in_superset": report.qcodegree_in_superset,
        },
    }
    if raw_c_star is not None:
        doc["raw_c_star"] = _fr(raw_c_star)
    return doc


def _tuple(items) -> str:
    return "(" + ", ".join(map(str, items)) + ")"


def _render_text(doc: dict) -> str:
    def tuples(items):
        return " ".join(map(_tuple, items)) or "none"

    lines = []
    lines.append(f"dim: {doc['input']['dim']}")
    lines.append(f"facets: {doc['input']['n_facets']}")
    lines.append(f"c_star: {doc['c_star']}")
    lines.append(f"qcd: {doc['qcd']}")
    if "raw_c_star" in doc:
        lines.append(f"raw_c_star: {doc['raw_c_star']}")
    lines.append(f"core dim: {doc['core']['dim']}")
    lines.append(f"core vertices: {tuples(doc['core']['vertices'])}")
    hull = doc["core"]["affine_hull"]
    if hull:
        eqs = "; ".join(f"{_tuple(e['normal'])} . x = {e['value']}" for e in hull)
    else:
        eqs = "all of space"
    lines.append(f"core affine hull: {eqs}")
    lines.append(f"core normals: {tuples(doc['core_normals'])}")
    lines.append(f"acore dim: {doc['acore']['dim']}")
    lines.append(f"acore vertices: {tuples(doc['acore']['vertices'])}")
    fan = doc["fan"]
    idx = fan["gorenstein_index"]
    lines.append(f"fan: smooth={str(fan['smooth']).lower()}"
                 f" gorenstein_index={'none' if idx is None else idx}"
                 f" canonicity_threshold={fan['canonicity_threshold']}")
    if fan["threshold_witness"] is not None:
        w = fan["threshold_witness"]
        lines.append(f"threshold witness: point {_tuple(w['point'])}"
                     f" height {w['height']}")
    lem = doc["lemmas"]

    def mark(value):
        return "skipped" if value is None else "pass" if value else "FAIL"

    lines.append("lemma checks:"
                 f" origin_in_relint={mark(lem['origin_in_relative_interior'])}"
                 f" acore_vertices={mark(lem['core_normals_are_acore_vertices'])}"
                 f" scaled_lattice={mark(lem['scaled_check_holds'])}"
                 f" shift_integral={mark(lem['shift_is_integral'])}")
    lines.append(f"lemma alpha: {lem['alpha']} (canonical: {str(lem['alpha_is_canonical']).lower()})")
    lines.append(f"shift vector: {_tuple(lem['shift_vector'])}")
    sp = doc["spectrum"]
    lines.append(f"spectrum step: {sp['step']}")
    if sp["values"] is None:
        values = f"{sp['n_values']} values, not listed"
    else:
        values = " ".join(sp["values"]) if sp["values"] else "none"
    lines.append(f"spectrum values (>= {sp['epsilon']}): {values}")
    member = sp["qcd_in_superset"]
    lines.append(f"qcd in superset: {'n/a (below epsilon)' if member is None else str(member).lower()}")
    return "\n".join(lines) + "\n"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _polytope_document(path: str):
    """The parsed polytope file at path ('-' = stdin); an A section or a dimension over the cap is refused."""
    doc = parse_document(_read_input(path))
    if doc.kind == "A":
        raise ValueError("expected a polytope file (H or V section);"
                         " pass a configuration (A section) to spectrum positionally")
    _check_dim(doc.dim)
    return doc


def cmd_analyze(args) -> int:
    doc = _polytope_document(args.file)
    raw_c = raw_critical_shift(raw_inequalities(doc)) if args.raw else None
    report = analyze(polytope_from_document(doc), alpha=args.alpha, epsilon=args.epsilon)
    document = _report_document(report, raw_c)
    text = _render_text(document) if args.format == "text" else json.dumps(document, indent=2) + "\n"
    _write_output(text, args.out)
    return 0


# family: (builder, number of int parameters, usage); gen --help lists them in this order
GEN_FAMILIES = {
    "fig1": (fig1, 0, "no parameters"),
    "cube": (cube, 1, "one parameter: d"),
    "simplex-scaled": (scaled_simplex, 2, "two parameters: d a"),
    "random": (random_lattice_polytope, 3, "three parameters: d n seed"),
}


def cmd_gen(args) -> int:
    build, arity, usage = GEN_FAMILIES[args.family]
    params = args.params
    if len(params) != arity:
        raise ValueError(f"{args.family} takes {usage}")
    if params:
        _check_dim(params[0])
    comments = [" ".join(["polyadj gen", args.family, *map(str, params)])]
    if args.family == "random":
        d, n, seed = params
        p = build(d, n, seed, box=args.box)
        comments.append(f"prng splitmix64 seed={seed} points={n} box={args.box}")
    else:
        p = build(*params)
    _write_output(format_polytope(p, comments=comments), args.out)
    return 0


CENSUS_COLUMNS = ("instance", "seed", "qcd", "c_star", "core_dim", "n_core_normals",
                  "smooth", "gorenstein_index", "canonicity_threshold", "alpha_canonical",
                  "lemmas_ok", "qcd_in_superset", "dilation_check")


def cmd_census(args) -> int:
    if args.count < 0:
        raise ValueError("count must be nonnegative")
    _check_dim(args.dim)
    # refused before any draw, as analyze would refuse them at the first
    _positive_epsilon(args.epsilon)
    if args.alpha is not None:
        _canonical_alpha(args.alpha)
    points = args.points if args.points is not None else args.dim + 5
    master = SplitMix64(args.seed)
    rows = []
    for i in range(args.count):
        iseed = master.next_u64()
        p = random_lattice_polytope(args.dim, points, iseed, box=args.box)
        report = analyze(p, alpha=args.alpha, epsilon=args.epsilon)
        data = report.data
        idx = report.fan_info.gorenstein_index
        dilation = "-"
        if i % 5 == 0:  # a dilation spot check on every fifth instance
            dilation = "pass" if adjunction_data(dilate(p, 2)).qcodegree == data.qcodegree / 2 else "fail"
        member = report.qcodegree_in_superset
        rows.append((str(i), str(iseed), _fr(data.qcodegree), _fr(data.critical_shift),
                     str(data.core.dim), str(len(data.core_normals)),
                     str(report.fan_info.smooth).lower(),
                     "none" if idx is None else str(idx),
                     _fr(report.fan_info.canonicity_threshold),
                     str(report.lemmas.alpha_is_canonical).lower(),
                     str(report.lemmas.all_hold).lower(),
                     "-" if member is None else str(member).lower(),
                     dilation))
    header = ["# polyadj census v1",
              f"# dim={args.dim} count={args.count} seed={args.seed} box={args.box}"
              f" points={points} epsilon={_fr(args.epsilon)}"
              f" alpha={'-' if args.alpha is None else _fr(args.alpha)}",
              ",".join(CENSUS_COLUMNS)]
    csv_text = "\n".join(header + [",".join(row) for row in rows]) + "\n"
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(csv_text)
    # the summary counts are those of the rows just written
    column = {name: [row[j] for row in rows] for j, name in enumerate(CENSUS_COLUMNS)}
    qcds_above = {Fraction(q) for q, canonical in zip(column["qcd"], column["alpha_canonical"])
                  if canonical == "true" and Fraction(q) >= args.epsilon}
    summary = {
        "count": args.count,
        "dim": args.dim,
        "seed": args.seed,
        "box": args.box,
        "points": points,
        "epsilon": _fr(args.epsilon),
        "alpha": None if args.alpha is None else _fr(args.alpha),
        "distinct_qcd_above_epsilon": [_fr(q) for q in sorted(qcds_above, reverse=True)],
        "lemma_failures": column["lemmas_ok"].count("false"),
        "smooth_count": column["smooth"].count("true"),
        "not_q_gorenstein_count": column["gorenstein_index"].count("none"),
        "max_gorenstein_index": max((parse_rational(k) for k in column["gorenstein_index"] if k != "none"),
                                    default=None),
        "dilation_checks": len(rows) - column["dilation_check"].count("-"),
        "dilation_failures": column["dilation_check"].count("fail"),
        "csv": args.out,
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_spectrum(args) -> int:
    if (args.config is None) == (args.from_polytope is None):
        raise ValueError("give either a configuration file or --from-polytope, not both")
    _positive_epsilon(args.epsilon)  # refused before any geometry, as analyze does
    if args.from_polytope is not None:
        doc = _polytope_document(args.from_polytope)
        cfg = core_config(adjunction_data(polytope_from_document(doc)))
    else:
        doc = parse_document(_read_input(args.config))
        _check_dim(doc.dim)
        cfg = config_from_document(doc)
    superset = spectrum_superset(cfg, args.epsilon)
    out = {
        "dim": cfg.dim,
        "normals": [list(a) for a in cfg.normals],
        "step": _fr(superset.step),
        "epsilon": _fr(superset.epsilon),
        **_grid_fields(superset.values),
    }
    if args.check is not None:
        ok, witness = check_necessary_condition(cfg, args.check)
        out["check"] = {
            "c": _fr(args.check),
            "admissible": ok,
            "witness": None if witness is None else _point(witness),
        }
    _write_output(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadj",
        description="Exact adjunction invariants of lattice polytopes: "
                    "Q-codegree, core, core normals, normal fan singularities, "
                    "and finite Q-codegree candidate sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for one polytope file ('-' = stdin)")
    pa.add_argument("file", help="polytope file with an H or V section, or - for stdin")
    pa.add_argument("--epsilon", type=parse_rational, default=Fraction(1, 2),
                    help="spectrum cutoff (default 1/2)")
    pa.add_argument("--alpha", type=parse_rational, default=None,
                    help="canonicity level for the lemma checks (default: computed threshold)")
    pa.add_argument("--format", choices=("json", "text"), default="json")
    pa.add_argument("--out", default=None, help="output path (default stdout)")
    pa.add_argument("--raw", action="store_true",
                    help="also report the critical shift of the H rows exactly as written")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("gen", help="write a generated instance in canonical H form")
    pg.add_argument("family", choices=GEN_FAMILIES)
    pg.add_argument("params", nargs="*", type=int,
                    help="fig1: none; cube: d; simplex-scaled: d a; random: d n seed")
    pg.add_argument("--box", type=int, default=5, help="box radius for random (default 5)")
    pg.add_argument("--out", default=None, help="output path (default stdout)")
    pg.set_defaults(func=cmd_gen)

    pc = sub.add_parser("census", help="analyze random instances; CSV rows plus JSON summary")
    pc.add_argument("count", type=int)
    pc.add_argument("dim", type=int)
    pc.add_argument("--alpha", type=parse_rational, default=None)
    pc.add_argument("--epsilon", type=parse_rational, default=Fraction(1, 2))
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--box", type=int, default=5)
    pc.add_argument("--points", type=int, default=None,
                    help="points per draw (default dim + 5)")
    pc.add_argument("--out", default="census.csv", help="CSV path (default census.csv)")
    pc.set_defaults(func=cmd_census)

    ps = sub.add_parser("spectrum", help="candidate Q-codegrees of a normal configuration")
    ps.add_argument("config", nargs="?", default=None,
                    help="configuration file with an A section")
    ps.add_argument("--from-polytope", default=None,
                    help="derive the configuration from this polytope's core normals")
    ps.add_argument("--epsilon", type=parse_rational, default=Fraction(1, 2))
    ps.add_argument("--check", type=parse_rational, default=None,
                    help="also test whether this c admits an integral shift")
    ps.add_argument("--out", default=None, help="output path (default stdout)")
    ps.set_defaults(func=cmd_spectrum)
    return parser


# options whose value is a rational. argparse reads a value after a space
# that starts with '-' as another option unless it looks like -1 or -0.5
RATIONAL_OPTIONS = ("--alpha", "--epsilon", "--check")


def _attach_negative_rationals(argv: list[str]) -> list[str]:
    """argv with each rational option, or an abbreviation argparse accepts,
    joined to a negative value after it, as --check -3/2 becomes
    --check=-3/2: a value that starts with '-' and a digit or '-.' and a
    digit, which no option name does."""
    joined = []
    for token in argv:
        option = joined[-1] if joined else ""
        if len(option) > 2 and any(name.startswith(option) for name in RATIONAL_OPTIONS) \
                and re.match(r"-\.?\d", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_rationals(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"polyadj: parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"polyadj: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"polyadj: internal inconsistency: {exc}", file=sys.stderr)
        return 4
    except (PolyadjError, ValueError) as exc:
        print(f"polyadj: invalid input: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
