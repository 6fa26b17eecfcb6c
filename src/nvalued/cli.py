"""Command-line interface.

Subcommands
-----------
analyze       full report for a map specification document (JSON)
circle        n-valued circle map taking z to the n-th roots of z^d
linear        linear n-valued torus map from an integer matrix
split         split map from integer-linear branches
oracle-check  brute-force certification of the engine output
plan          token rearrangement schedule for a graph document

The first four share ``_cmd_report``: each sets how it builds its
``(kind, LiftSystem)``, from the document or from flags.

Exit codes: 0 success, 1 validation/model error (a ``MODEL_ERRORS``
base class: any ``ValueError``), 2 usage error.

All rationals are serialized as exact "p/q" strings and infinite counts
as the literal string "infinite"; structured output is deterministic
(key-sorted JSON), so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import gcd

from .fixedpoints import nielsen_report
from .intlinalg import is_infinite
from .liftsystems import LiftSystem, lift_system, make_circle, make_linear, make_split
from .oracle import BudgetExceededError, OracleConfig, oracle_check
from .planner import PlannerStuckError, TokenGraph, plan, simulate
from .reidemeister import reidemeister_number

USAGE_ERROR = 2
MODEL_ERROR = 1


class DocumentError(ValueError):
    """A specification document is malformed."""


# ---------------------------------------------------------------------------
# serialization helpers


def _count_json(value):
    return "infinite" if is_infinite(value) else value


def _vec_json(vec):
    return [int(x) for x in vec]


def _residue_str(r, m) -> str:
    """``str(Fraction(r, m))`` for integers 0 <= r < m, with one gcd."""
    g = gcd(r, m)
    return str(r // g) if g == m else f"{r // g}/{m // g}"


# ---------------------------------------------------------------------------
# map specification documents


def _parse_fraction(text):
    text = str(text)
    try:
        # Fraction builds 10**|exponent|: refuse an exponent above the
        # int-digit limit, as int() refuses a digit string that long
        if abs(int(text.lower().partition("e")[2] or 0)) > sys.get_int_max_str_digits():
            raise ValueError(f"exponent magnitude above {sys.get_int_max_str_digits()}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {text!r}: {exc}") from None


def _parse_int(value, what):
    x = _parse_fraction(value)
    if x.denominator != 1:
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    return int(x)


def _rows(rows, what):
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise DocumentError(f"{what} must be a list of rows")
    return rows


def _int_matrix(rows, what):
    return [[_parse_int(x, f"entry of {what}") for x in row] for row in _rows(rows, what)]


def _fraction_vector(values, what):
    if not isinstance(values, list):
        raise DocumentError(f"{what} must be a list")
    return [_parse_fraction(x) for x in values]


def _require_fields(doc, required, optional=()):
    if not isinstance(doc, dict):
        raise DocumentError(f"expected an object with fields {list(required)}, got {doc!r}")
    keys = set(doc)
    missing = [k for k in required if k not in keys]
    unknown = keys - set(required) - set(optional)
    if missing:
        raise DocumentError(f"missing fields: {sorted(missing)}")
    if unknown:
        raise DocumentError(f"unknown fields: {sorted(unknown)}")


def load_map_document(path) -> tuple:
    """Parse a MapSpec JSON document into (kind, LiftSystem)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError(f"{path} nests too deeply") from None
    return build_system(doc)


def build_system(doc) -> tuple:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    kind = doc.get("kind")
    if kind == "custom":
        _require_fields(doc, ("kind", "n", "q", "factors"))
        n, q = _parse_int(doc["n"], "n"), _parse_int(doc["q"], "q")
        factors = []
        if not isinstance(doc["factors"], list) or len(doc["factors"]) != n:
            raise DocumentError(f"expected exactly {n} factors")
        for fac in doc["factors"]:
            _require_fields(fac, ("linear", "offset"))
            linear = [[_parse_fraction(x) for x in row] for row in _rows(fac["linear"], "linear")]
            offset = _fraction_vector(fac["offset"], "offset")
            if len(linear) != q or any(len(r) != q for r in linear) or len(offset) != q:
                raise DocumentError("factor dimensions disagree with q")
            factors.append((linear, offset))
        return kind, lift_system(factors)
    if kind == "linear":
        _require_fields(doc, ("kind", "n", "A"))
        return kind, make_linear(_parse_int(doc["n"], "n"), _int_matrix(doc["A"], "A"))
    if kind == "circle":
        _require_fields(doc, ("kind", "n", "d"))
        return kind, make_circle(_parse_int(doc["n"], "n"), _parse_int(doc["d"], "d"))
    if kind == "split":
        _require_fields(doc, ("kind", "parts"))
        if not isinstance(doc["parts"], list):
            raise DocumentError("parts must be a list")
        parts = []
        for part in doc["parts"]:
            _require_fields(part, ("A", "b"))
            a = _int_matrix(part["A"], "A")
            b = _fraction_vector(part["b"], "b")
            parts.append((a, b))
        return kind, make_split(parts)
    raise DocumentError(
        f"unknown kind {kind!r}: expected custom, linear, circle, or split"
    )


# ---------------------------------------------------------------------------
# graph documents


def load_graph_document(path):
    """Parse the line-oriented edge-list document.

    Lines: ``edge U V``, ``token K V``, ``goal K V``; ``#`` comments.
    Returns (TokenGraph, goal dict).
    """
    edges = []
    tokens = {}
    goals = {}
    vertices = set()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "edge" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
            vertices.update(parts[1:])
        elif parts[0] in ("token", "goal") and len(parts) == 3:
            try:
                token = int(parts[1])
            except ValueError:
                raise DocumentError(
                    f"{path}:{lineno}: token id {parts[1]!r} is not an integer"
                ) from None
            (tokens if parts[0] == "token" else goals)[token] = parts[2]
        else:
            raise DocumentError(f"{path}:{lineno}: cannot parse {raw.strip()!r}")
    if not tokens:
        raise DocumentError(f"{path}: no tokens placed")
    if sorted(goals) != sorted(tokens):
        raise DocumentError(f"{path}: goals must cover exactly the placed tokens")
    try:
        graph = TokenGraph.build(vertices, edges, tokens)
    except ValueError as exc:
        raise DocumentError(f"{path}: {exc}") from None
    return graph, goals


# ---------------------------------------------------------------------------
# report construction


def build_report(kind, sys: LiftSystem, oracle_section=None, report=None):
    """Assemble the full analysis report as a JSON-ready dict.

    ``report`` is the Reidemeister report of ``sys`` when the caller has
    already computed it.
    """
    if report is None:
        report = reidemeister_number(sys)
    nreport = None
    if not is_infinite(report.total):
        # listed first: a finite R above LISTING_LIMIT is refused before
        # any representative is listed
        nreport = nielsen_report(sys, report)
        classes = nreport.classes
    doc = {
        "kind": kind,
        "n": sys.n,
        "q": sys.q,
        "reidemeister": _count_json(report.total),
        "sigma_classes": [],
    }
    for block in report.blocks:
        cls = block.sigma_class
        entry = {
            "members": list(cls.members),
            "representative": cls.representative,
            "stabilizer_basis": [_vec_json(r) for r in cls.stabilizer.basis],
            "transversal": [[j, _vec_json(z)] for j, z in cls.transversal],
            "image_lattice_basis": [_vec_json(r) for r in block.image_lattice.basis],
            "count": _count_json(block.count),
            "representatives": [alpha for alpha, _ in block.representatives],
        }
        doc["sigma_classes"].append(entry)
    if nreport is not None:
        doc["fixed_point_classes"] = [
            {
                "alpha": c.alpha,
                "factor": c.factor_index,
                "point": [_residue_str(r, c.denominator) for r in c.residues],
                "index": c.index,
                "empty": False,
            }
            for c in classes
        ]
        doc["nielsen"] = nreport.nielsen
        doc["index_uniformity"] = nreport.uniformity_per_sigma_class
    if oracle_section is not None:
        doc["oracle"] = oracle_section
    return doc


def render_text(doc):
    lines = []
    lines.append(f"{doc['kind']} map: n = {doc['n']}, q = {doc['q']}")
    lines.append(f"Reidemeister number R = {doc['reidemeister']}")
    for entry in doc["sigma_classes"]:
        members = ", ".join(str(m) for m in entry["members"])
        lines.append(
            f"  sigma-class {{{members}}} (representative {entry['representative']}):"
        )
        lines.append(f"    stabilizer basis  {entry['stabilizer_basis']}")
        lines.append(f"    image lattice     {entry['image_lattice_basis']}")
        lines.append(f"    classes           {entry['count']}")
        if entry["representatives"]:
            reps = ", ".join(str(tuple(r)) for r in entry["representatives"])
            lines.append(f"    representatives   {reps}")
    if "fixed_point_classes" in doc:
        lines.append("fixed point classes:")
        for c in doc["fixed_point_classes"]:
            label = f"(alpha={tuple(c['alpha'])}, factor={c['factor']})"
            point = "(" + ", ".join(c["point"]) + ")"
            lines.append(f"  {label}: point {point}, index {c['index']:+d}")
        lines.append(f"Nielsen number N = {doc['nielsen']}")
        lines.append(f"index uniformity per sigma-class: {doc['index_uniformity']}")
    if "oracle" in doc:
        o = doc["oracle"]
        lines.append(
            f"oracle verdict (box {o['box_bound']}, word {o['word_bound']}): "
            f"{'agree' if o['verdict'] else 'DISAGREE'}"
        )
    return "\n".join(lines) + "\n"


def emit(doc, fmt, out):
    if fmt == "structured":
        out.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        out.write("\n")
    else:
        out.write(render_text(doc))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_report(args, out):
    kind, sys = args.build(args)
    emit(build_report(kind, sys), args.format, out)
    return 0


def _parse_matrix(text):
    rows = [row.strip() for row in text.split(";") if row.strip()]
    matrix = []
    for row in rows:
        cells = row.replace(",", " ").split()
        matrix.append([_parse_int(c, "matrix entry") for c in cells])
    if not matrix or any(len(r) != len(matrix) for r in matrix):
        raise DocumentError(f"matrix {text!r} is not square")
    return matrix


def _parse_parts(text):
    parts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "|" not in chunk:
            raise DocumentError(f"part {chunk!r} needs the form 'matrix | offset'")
        mat_text, off_text = chunk.split("|", 1)
        rows = [r.strip() for r in mat_text.split(",") if r.strip()]
        matrix = [[_parse_int(c, "matrix entry") for c in r.split()] for r in rows]
        offset = [_parse_fraction(c) for c in off_text.split()]
        if any(len(r) != len(offset) for r in matrix) or len(matrix) != len(offset):
            raise DocumentError(f"part {chunk!r} has inconsistent dimensions")
        parts.append((matrix, offset))
    if not parts:
        raise DocumentError("no parts given")
    return parts


def _cmd_oracle_check(args, out):
    kind, sys = load_map_document(args.spec)
    cfg = OracleConfig(box_bound=args.box, word_bound=args.word)
    report = reidemeister_number(sys)
    verdict = oracle_check(sys, cfg, report=report)
    section = {
        "box_bound": args.box,
        "word_bound": args.word,
        "verdict": bool(verdict),
    }
    emit(build_report(kind, sys, oracle_section=section, report=report), args.format, out)
    return 0 if verdict else 1


def _cmd_plan(args, out):
    graph, goals = load_graph_document(args.graph)
    result = plan(graph, goals)
    final = simulate(result.graph, result.schedule)
    if final != goals:
        raise PlannerStuckError("schedule replay did not reach the goal")
    if args.format == "structured":
        doc = {
            "junction": result.junction,
            "moves": [[m.token, m.source, m.target] for m in result.schedule.moves],
            "length": len(result.schedule),
            "bound": result.poly_bound,
            "final": {str(t): v for t, v in sorted(final.items())},
        }
        emit(doc, "structured", out)
    else:
        for line in result.schedule.to_lines():
            out.write(line + "\n")
        out.write(
            f"# {len(result.schedule)} moves via junction {result.junction} "
            f"(bound {result.poly_bound})\n"
        )
    return 0


# ---------------------------------------------------------------------------


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="nvalued",
        description=(
            "Exact Reidemeister and Nielsen invariants of n-valued maps on "
            "tori and circles, with a brute-force oracle and a token "
            "rearrangement planner."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="output format (default: text)",
        )

    p = sub.add_parser("analyze", help="analyze a map specification document")
    p.add_argument("spec", help="path to a JSON map document")
    add_format(p)
    p.set_defaults(func=_cmd_report, build=lambda a: load_map_document(a.spec))

    p = sub.add_parser("circle", help="n-valued circle map of degree d")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_report, build=lambda a: ("circle", make_circle(a.n, a.d)))

    p = sub.add_parser("linear", help="linear n-valued torus map")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--matrix",
        required=True,
        help="integer matrix, rows separated by ';' (e.g. '1 1; 1 1')",
    )
    add_format(p)
    p.set_defaults(
        func=_cmd_report, build=lambda a: ("linear", make_linear(a.n, _parse_matrix(a.matrix)))
    )

    p = sub.add_parser("split", help="split map from integer-linear branches")
    p.add_argument(
        "--parts",
        required=True,
        help=(
            "branches 'rows | offset' separated by ';', rows by ','"
            " (e.g. '2 | 0; 2 | 1/2')"
        ),
    )
    add_format(p)
    p.set_defaults(
        func=_cmd_report, build=lambda a: ("split", make_split(_parse_parts(a.parts)))
    )

    p = sub.add_parser("oracle-check", help="brute-force certification")
    p.add_argument("spec", help="path to a JSON map document")
    p.add_argument("--box", type=int, default=6, help="translation window bound")
    p.add_argument("--word", type=int, default=6, help="deck-word window bound")
    add_format(p)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("plan", help="token rearrangement schedule")
    p.add_argument("graph", help="path to an edge-list graph document")
    add_format(p)
    p.set_defaults(func=_cmd_plan)

    return parser


MODEL_ERRORS = (ValueError, OverflowError, PlannerStuckError, BudgetExceededError)


def main(argv=None, out=None):
    parser = _make_parser()
    args = parser.parse_args(argv)
    out = out if out is not None else sys.stdout
    try:
        return args.func(args, out)
    except MODEL_ERRORS as exc:
        print(f"nvalued: error: {exc}", file=sys.stderr)
        return MODEL_ERROR


if __name__ == "__main__":
    sys.exit(main())
