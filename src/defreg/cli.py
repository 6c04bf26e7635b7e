"""Command line front end.

Three input modes map onto the three poset builders: monomial takes a ring
and squarefree generators inline, graph reads an edge list file, poset
reads a JSON description of an abstract component poset.  Output is either
a fixed-layout text report or a JSON document; both are deterministic byte
for byte for a given input and option set.

Exit codes: 0 success, 1 malformed input or command line, 2 a size budget
was exceeded, 3 the report was produced but --strict was set and the
hypotheses behind the bound could not be certified.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from functools import cache
from json.encoder import encode_basestring_ascii

from .bounds import NEG_INF, BoundReport, FieldSpec, analyze
from .posets import (
    DEFAULT_MAX_ELEMENTS,
    DEFAULT_MAX_FACES,
    AnalysisPoset,
    ClosureBudgetExceeded,
    FaceBudgetExceeded,
    IdealNode,
    OrderCycle,
    RingContext,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_BUDGET = 2
EXIT_STRICT = 3

# The graph and monomial builders load on their mode's first run, not at
# start-up, so a poset run never compiles them.  These are the names this
# module takes from them, through the package's lazy lookup.
_BUILDERS = {"Graph", "build_Q_poset", "SquarefreeIdeal", "build_monomial_poset"}


def _builder(name: str):
    """The builder name bound here, found in the package on first use.

    A name set from outside first, such as a wrapper around
    build_Q_poset, stays in place, and the mode's run calls through it.
    As __getattr__, it lets callers outside look the names up before
    that first run.
    """
    if name not in _BUILDERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


__getattr__ = _builder


class ParseError(ValueError):
    """Malformed input of any mode."""


def parse_var_list(text: str) -> tuple[str, ...]:
    names = [t.strip() for t in text.split(",")]
    for name in names:
        if not name:
            raise ParseError("empty variable name in --vars")
        if not name.isprintable():
            raise ParseError(f"variable name {name!r} has an unprintable character")
    return tuple(names)


def parse_monomial(
    var_names: Sequence[str], text: str
) -> list[tuple[str, ...]]:
    """Generators separated by commas, factors within one by '*'."""
    known = set(var_names)
    gens = []
    for chunk in text.split(","):
        factors = [f.strip() for f in chunk.split("*")]
        if any(not f for f in factors):
            raise ParseError(f"empty factor in generator {chunk.strip()!r}")
        seen: set[str] = set()
        for f in factors:
            if f not in known:
                raise ParseError(f"unknown variable {f!r}")
            if f in seen:
                raise ParseError(
                    f"variable {f!r} repeats in generator {chunk.strip()!r}"
                )
            seen.add(f)
        gens.append(tuple(factors))
    return gens


def parse_graph_file(text: str) -> Graph:
    """Edge list format: optional 'format: 1' line, 'n <count>', then edges.

    '#' starts a comment; an edge line holds two endpoints u v with
    1 <= u < v <= n.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty graph file")
    if lines[0].replace(" ", "") == "format:1":
        lines.pop(0)
    elif lines[0].replace(" ", "").startswith("format:"):
        raise ParseError(f"unsupported format line {lines[0]!r}")
    if not lines:
        raise ParseError("graph file has no vertex count line")
    head = lines.pop(0).split()
    if len(head) != 2 or head[0] != "n":
        raise ParseError("expected a vertex count line 'n <count>'")
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(f"vertex count {head[1]!r} is not an integer")
    if n < 1:
        raise ParseError("vertex count must be at least 1")
    edges = []
    for line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"malformed edge line {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed edge line {line!r}")
        if not (1 <= u < v <= n):
            raise ParseError(
                f"edge {u} {v} must satisfy 1 <= u < v <= {n}"
            )
        edges.append((u, v))
    return _builder("Graph").from_edges(n, edges)


def parse_poset_doc(text: str) -> AnalysisPoset:
    """JSON poset format.

    Required keys: "format" (must be 1) and nonempty "elements", each
    element an object with "id" and "dim" and optional "height" and "cm".
    Optional keys: "nvars" for the ambient ring, "relations" as pairs
    [a, b] meaning component a contains component b, and free-form
    "description" and "notes".
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}")
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply")
    if not isinstance(doc, dict):
        raise ParseError("poset document must be a JSON object")
    if type(doc.get("format")) is not int or doc["format"] != 1:
        raise ParseError("poset document must declare \"format\": 1")
    ring = None
    if "nvars" in doc:
        nvars = doc["nvars"]
        if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 1:
            raise ParseError("\"nvars\" must be a positive integer")
        ring = RingContext(tuple(f"x_{i}" for i in range(1, nvars + 1)))
    elements = doc.get("elements")
    if not isinstance(elements, list) or not elements:
        raise ParseError("\"elements\" must be a nonempty list")
    nodes = []
    seen_ids: set[str] = set()
    for item in elements:
        if not isinstance(item, dict):
            raise ParseError("each element must be a JSON object")
        pid = item.get("id")
        if not isinstance(pid, str) or not pid:
            raise ParseError("each element needs a nonempty string \"id\"")
        try:
            pid.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"element id {pid!r} is not valid UTF-8")
        if not pid.isprintable():
            raise ParseError(f"element id {pid!r} has an unprintable character")
        if pid in seen_ids:
            raise ParseError(f"duplicate element id {pid!r}")
        seen_ids.add(pid)
        dim = item.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise ParseError(f"element {pid!r}: \"dim\" must be an integer >= 0")
        height = item.get("height")
        if height is not None and (
            not isinstance(height, int) or isinstance(height, bool) or height < 0
        ):
            raise ParseError(
                f"element {pid!r}: \"height\" must be an integer >= 0"
            )
        cm = item.get("cm", True)
        if not isinstance(cm, bool):
            raise ParseError(f"element {pid!r}: \"cm\" must be a boolean")
        nodes.append(
            IdealNode(id=pid, ideal=None, dim=dim, height=height, is_cm=cm)
        )
    relations = doc.get("relations", [])
    if not isinstance(relations, list):
        raise ParseError("\"relations\" must be a list of [a, b] pairs")
    # json.loads makes plain lists and strs, never subclasses of them
    for rel in relations:
        if (
            type(rel) is not list or len(rel) != 2
            or type(rel[0]) is not str or type(rel[1]) is not str
        ):
            raise ParseError(f"malformed relation {rel!r}")
        if rel[0] not in seen_ids or rel[1] not in seen_ids:
            raise ParseError(f"relation {rel!r} mentions an unknown id")
    try:
        return AnalysisPoset.from_relations(
            nodes, relations, ring=ring, provenance="abstract"
        )
    except OrderCycle as e:
        a, b = e.ids
        raise ParseError(f"relations order {a!r} and {b!r} both ways")
    except ValueError as e:
        raise ParseError(str(e))


def _build_poset(args: argparse.Namespace) -> AnalysisPoset:
    if args.mode == "monomial":
        if not args.variables or not args.gens:
            raise ParseError("monomial mode needs --vars and --gens")
        names = parse_var_list(args.variables)
        ring = RingContext(names)
        gens = parse_monomial(names, args.gens)
        ideal = _builder("SquarefreeIdeal").create(ring, gens)
        return _builder("build_monomial_poset")(
            ideal, max_elements=args.max_poset, max_faces=args.max_faces
        )
    if args.mode == "graph":
        if not args.edges_path:
            raise ParseError("graph mode needs --edges FILE")
        with open(args.edges_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        graph = parse_graph_file(text)
        return _builder("build_Q_poset")(
            graph, max_elements=args.max_poset, max_faces=args.max_faces
        )
    if not args.poset_path:
        raise ParseError("poset mode needs --poset FILE")
    with open(args.poset_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_poset_doc(text)


def render_text(report: BoundReport, args: argparse.Namespace) -> str:
    poset = report.poset
    lines = ["format: 1", f"mode: {args.mode}", f"field: {report.field.label()}"]
    if poset.ring is None:
        lines.append("ring: unspecified")
    else:
        n = poset.ring.nvars
        plural = "variable" if n == 1 else "variables"
        lines.append(f"ring: {n} {plural} ({', '.join(poset.ring.var_names)})")
    lines.append(f"poset size: {len(poset)}")
    lines.append("elements:")
    for k, node in enumerate(poset.nodes):
        h = "?" if node.height is None else str(node.height)
        tag = "  maximal" if poset.is_maximal(k) else ""
        lines.append(f"  {node.id}  dim {node.dim}  height {h}{tag}")
    if args.hasse:
        lines.append("covers:")
        for low, high in poset.hasse():
            lines.append(f"  {low} < {high}")
    cond = report.conditions
    ii = "pass" if cond.cohen_macaulay else "FAIL"
    if cond.strict_heights is None:
        iii = "not checkable"
    else:
        iii = "pass" if cond.strict_heights else "FAIL"
    lines.append(
        f"conditions: (i) {cond.distributive_lattice}; (ii) {ii}; (iii) {iii}"
    )
    lines.append(f"certified: {'yes' if cond.certified else 'no'}")
    if args.check:
        lines.append("notes:")
        if cond.notes:
            lines.extend(f"  - {note}" for note in cond.notes)
        else:
            lines.append("  (none)")
    if report.assumptions:
        lines.append("assumptions:")
        lines.extend(f"  - {a}" for a in report.assumptions)
    lines.append("bounds:")
    for e in report.entries:
        lines.append(f"  reg K^{e.j} <= {e.bound} (cap {e.j})")
        lines.append(f"    S_{e.j} = {{{', '.join(e.members)}}}")
        if args.witnesses:
            witnesses = ", ".join(pid for pid, _ in e.layers.get(0, ()))
            lines.append(f"    witnesses = {{{witnesses}}}")
        if args.filtration:
            for k in range(e.j + 1):
                layer = e.layers.get(k, ())
                body = " + ".join(f"{pid}^{exp}" for pid, exp in layer)
                lines.append(f"    layer {k}: {body or '(empty)'}")
    suffix = " (vacuous, capped at ambient dimension)" if report.mt_capped else ""
    lines.append(f"mt level: {report.mt_level}{suffix}")
    return "\n".join(lines) + "\n"


def _array(items: list[str], pad: str) -> str:
    """Encoded items as an indent=2 JSON array that closes at indent pad."""
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]" if items else "[]"


def render_json(report: BoundReport, args: argparse.Namespace) -> str:
    """The report as json.dumps(..., indent=2) lays it out, written directly."""
    poset, cond, q = report.poset, report.conditions, encode_basestring_ascii
    boolean, neg_inf = ("false", "true"), '"-inf"'
    elements = [
        f'{{\n        "id": {q(nd.id)},\n        "dim": {nd.dim},\n'
        f'        "height": {"null" if nd.height is None else nd.height},\n'
        f'        "maximal": {boolean[poset.is_maximal(k)]}\n      }}'
        for k, nd in enumerate(poset.nodes)
    ]
    covers = [f"[\n        {q(a)},\n        {q(b)}\n      ]" for a, b in poset.hasse()]
    mults = [
        f'{{\n      "id": {q(pid)},\n      "degree": {d},\n      "value": {v}\n    }}'
        for pid, dims in report.multiplicities.items()
        for d, v in dims.items()
    ]
    bounds = [
        f'{{\n      "j": {e.j},\n'
        f'      "S": {_array(list(map(q, e.members)), "      ")},\n'
        f'      "bound": {neg_inf if e.bound == NEG_INF else e.bound},\n'
        f'      "cap": {e.j},\n      "certified": {boolean[cond.certified]}\n    }}'
        for e in report.entries
    ]
    optional = ""
    if args.witnesses:
        witnesses = [
            f'{{\n      "j": {e.j},\n      "members": '
            f'{_array([q(pid) for pid, _ in e.layers.get(0, ())], "      ")}\n    }}'
            for e in report.entries
        ]
        optional += f'  "witnesses": {_array(witnesses, "  ")},\n'
    if args.filtration:
        filtration = []
        for e in report.entries:
            # a layer for every k <= j; only the nonempty ones list summands
            summands = {
                k: _array([
                    f'{{\n              "id": {q(pid)},\n'
                    f'              "exponent": {exp}\n            }}'
                    for pid, exp in layer
                ], "          ")
                for k, layer in e.layers.items()
            }
            filtration.append(f'{{\n      "j": {e.j},\n      "layers": ' + _array([
                f'{{\n          "k": {k},\n'
                f'          "summands": {summands.get(k, "[]")}\n        }}'
                for k in range(e.j + 1)
            ], "      ") + "\n    }")
        optional += f'  "filtration": {_array(filtration, "  ")},\n'
    iii = cond.strict_heights
    iii = '"not checkable"' if iii is None else boolean[iii]
    notes = _array(list(map(q, cond.notes)), "    ")
    notes = f',\n    "notes": {notes}' if args.check else ""
    return (
        f'{{\n  "format": 1,\n  "mode": {q(args.mode)},\n'
        f'  "field": {q(report.field.label())},\n  "ring": {{\n'
        f'    "nvars": {"null" if poset.ring is None else poset.ring.nvars}\n  }},\n'
        f'  "poset": {{\n    "elements": {_array(elements, "    ")},\n'
        f'    "covers": {_array(covers, "    ")}\n  }},\n'
        f'  "multiplicities": {_array(mults, "  ")},\n'
        f'  "bounds": {_array(bounds, "  ")},\n{optional}'
        f'  "conditions": {{\n    "i": {q(cond.distributive_lattice)},\n'
        f'    "ii": {boolean[cond.cohen_macaulay]},\n    "iii": {iii}{notes}\n  }},\n'
        f'  "mt_level": {report.mt_level},\n'
        f'  "mt_capped": {boolean[report.mt_capped]},\n'
        f'  "assumptions": {_array(list(map(q, report.assumptions)), "  ")}\n}}\n'
    )


def _parse_field(spec: str) -> FieldSpec:
    if spec == "rational":
        return FieldSpec.rationals()
    if spec.startswith("gf:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ValueError(f"bad field spec {spec!r}")
        return FieldSpec.prime_field(p)
    raise ValueError(
        f"bad field spec {spec!r}; use 'rational' or 'gf:<prime>'"
    )


class _Parser(argparse.ArgumentParser):
    """Raises ParseError where argparse would exit with status 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        # unrecognized arguments are quoted raw; keep the error on one line
        raise ParseError(
            "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
        )


@cache
def _parser() -> _Parser:
    """The command line parser, built on the first run and kept.

    parse_args keeps no state between calls, and error and --help read
    sys.stderr and sys.stdout when they run, so one parser serves every
    run of the process.
    """
    parser = _Parser(
        prog="defreg",
        description=(
            "Bound the regularity of the deficiency modules of a quotient"
            " ring from the poset of sums of its primary components."
        ),
    )
    parser.add_argument(
        "--mode",
        required=True,
        choices=("monomial", "graph", "poset"),
        help="input kind: inline monomial ideal, edge list file, or poset file",
    )
    parser.add_argument("--gens", help="monomial generators, e.g. 'x*z, x*w'")
    parser.add_argument(
        "--vars",
        dest="variables",
        metavar="VARS",
        help="ring variables, e.g. 'x, y, z, w'",
    )
    parser.add_argument(
        "--edges", dest="edges_path", metavar="FILE", help="edge list file"
    )
    parser.add_argument(
        "--poset", dest="poset_path", metavar="FILE", help="poset JSON file"
    )
    parser.add_argument(
        "--field",
        default="rational",
        help="coefficient field: 'rational' (default) or 'gf:<prime>'",
    )
    parser.add_argument(
        "--json", dest="json_output", action="store_true", help="emit JSON"
    )
    parser.add_argument(
        "--filtration", action="store_true", help="list filtration layers"
    )
    parser.add_argument(
        "--witnesses", action="store_true", help="list nonvanishing witnesses"
    )
    parser.add_argument(
        "--check", action="store_true", help="show condition check notes"
    )
    parser.add_argument(
        "--hasse", action="store_true", help="list cover relations"
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 3 when the hypotheses are not certified",
    )
    parser.add_argument(
        "--max-poset",
        type=int,
        default=DEFAULT_MAX_ELEMENTS,
        help="element budget for the sum closure",
    )
    parser.add_argument(
        "--max-faces",
        type=int,
        default=DEFAULT_MAX_FACES,
        help="face budget per order complex",
    )
    return parser


def run(argv: Sequence[str] | None = None) -> tuple[int, str]:
    """The exit code of a defreg run on argv, and the text it prints."""
    try:
        args = _parser().parse_args(argv)
        args.field = _parse_field(args.field)
    except ValueError as e:
        return EXIT_PARSE, f"error: {e}\n"
    for flag, budget in (
        ("--max-poset", args.max_poset),
        ("--max-faces", args.max_faces),
    ):
        if budget < 1:
            return EXIT_PARSE, f"error: {flag} must be at least 1, got {budget}\n"
    try:
        # a graph or monomial build raises the face budget's error once a
        # label prefix passes it, as analyze would on the whole poset
        poset = _build_poset(args)
    except (ClosureBudgetExceeded, FaceBudgetExceeded) as e:
        return EXIT_BUDGET, f"error: {e}\n"
    except (ParseError, OSError, ValueError) as e:
        return EXIT_PARSE, f"error: {e}\n"
    try:
        report = analyze(poset, args.field, max_faces=args.max_faces)
    except FaceBudgetExceeded as e:
        return EXIT_BUDGET, f"error: {e}\n"
    text = render_json(report, args) if args.json_output else render_text(report, args)
    if args.strict and not report.conditions.certified:
        return EXIT_STRICT, text
    return EXIT_OK, text


def main(argv: Sequence[str] | None = None) -> int:
    code, text = run(argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
