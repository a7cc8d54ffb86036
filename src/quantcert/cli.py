"""Command-line interface: certify, blocks, veech, orbits.

Every command builds a deterministic report (command echo, inputs, results,
provenance notes, tool version) and renders it as a table or as canonically
ordered JSON.  Two fields may arrive as JSON text already (a JSON ``orbits``
request writes its orbit list from the side pairs, and a JSON ``veech``
request its rectangle list from the intersection points), which the writer
splices in; every other value it walks.  Exit codes: 0 on success (an uncertified
level is a result, not an error), 2 on a ``UsageError`` (raised where the
broken input rule lives), 3 on any other package error.  ``main`` is the only place that
maps an error to an exit code.  A reader that closes stdout early (``| head``)
ends the output, not the command: it still exits 0, with nothing on stderr.

Every integer a request reads is a ``grammar.numeral``.  The argument parser
is built once, at import; ``main(argv)`` may be called any number of times
in one process, and each call parses into a fresh namespace, so no flag or
default carries over from one request to the next.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from json.encoder import encode_basestring_ascii

from . import __version__, blocks, certify, orbits, veech
from .errors import QuantcertError, UsageError
from .grammar import numeral

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: most levels one ``certify N..M`` may ask for
RANGE_BUDGET = 100000


class _JSONText(str):
    """JSON text already written at depth 0, which ``_write`` splices in as is."""


def _dump(report: dict) -> str:
    """``report`` as canonical JSON, exactly ``json.dumps(report, sort_keys=True, indent=2)``.

    json turns its C encoder off when ``indent`` is given and builds the text
    from nested pure-Python generators.  This walks the report once, appends
    every piece to one flat list and joins the list once; per-container joins
    would be faster per call but hold more memory at peak.  A ``_JSONText``
    value is not walked: its text goes in whole, re-indented to its depth.
    """
    out: list[str] = []
    _write(report, "\n", out)
    return "".join(out)


def _write(value, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` indents the line it is on.

    Scalars render as json renders them, subclasses of str, int and float
    included (the Perron solve's float64 prints as its float), except that a
    ``_JSONText`` is already JSON and goes in as is.  Any other type raises
    TypeError, and so does a dict key that is not a str (json would coerce
    it), from ``encode_basestring_ascii``.
    """
    if isinstance(value, str):
        if type(value) is _JSONText:
            out.append(value.replace("\n", newline))
        else:
            out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value == math.inf:
            out.append("Infinity")
        elif value == -math.inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("[")
        lead = inner
        for item in value:
            out.append(lead)
            lead = separator
            _write(item, inner, out)
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        out.append("{")
        lead = inner
        for key, item in sorted(value.items()):
            out.append(lead)
            lead = separator
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(item, inner, out)
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _report(command: str, inputs: dict, results, provenance: list[str]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": provenance,
        "version": __version__,
    }


def _parse_level_range(text: str) -> tuple[int, int]:
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo = numeral(lo_text)
        hi = numeral(hi_text) if dots else lo
    except ValueError:
        raise UsageError(f"invalid level range {text!r}; expected N or N..M") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"invalid level range {text!r}; need 1 <= N <= M")
    if hi - lo + 1 > RANGE_BUDGET:
        raise UsageError(f"level range {text!r} is over RANGE_BUDGET = {RANGE_BUDGET} levels")
    return lo, hi


# ---------------------------------------------------------------------------
# certify

def cmd_certify(args) -> dict:
    lo, hi = _parse_level_range(args.levels)
    results = []
    provenance: list[str] = []
    certified: list[int] = []
    uncertified: list[int] = []
    for p in range(lo, hi + 1):
        record, notes = certify.certify_level(p)
        results.append(record)
        (uncertified if record["route"] == certify.ROUTE_UNCERTIFIED else certified).append(p)
        for note in notes:
            stamped = f"p={p}: {note}"
            if stamped not in provenance:
                provenance.append(stamped)
    report = _report(
        "certify",
        {"levels": args.levels},
        results,
        provenance,
    )
    report["summary"] = {"certified": certified, "uncertified": uncertified}
    return report


def _print_certify_table(report: dict, quiet: bool) -> None:
    if not quiet:
        for cert in report["results"]:
            p = cert["p"]
            route = cert["route"]
            if route == certify.ROUTE_ODD:
                extra = f"odd part {cert['odd_part']}, boundary color {cert['boundary_color']}"
            elif route == certify.ROUTE_EVEN:
                extra = (
                    f"ell {cert['ell']}, signature {tuple(cert['signature'])}, "
                    f"{len(cert['cases'])} subspace cases"
                )
            else:
                extra = "; ".join(cert["failed"])
            print(f"p={p:<4d} {route:<14s} {extra}")
    summary = report["summary"]
    print(f"certified:   {summary['certified']}")
    print(f"uncertified: {summary['uncertified']}")
    for note in report["provenance"]:
        print(f"note: {note}")


# ---------------------------------------------------------------------------
# blocks

def cmd_blocks(args) -> dict:
    if args.level > blocks.LEVEL_BUDGET:
        raise UsageError(f"level {args.level} is over LEVEL_BUDGET = {blocks.LEVEL_BUDGET}")
    tadpole = args.graph.strip() == "tadpole"  # blanks around a name are ignored
    if tadpole:
        if args.tail is None:
            raise UsageError("the tadpole graph needs --tail")
        graph = blocks.tadpole_graph(args.tail)
    else:
        if args.tail is not None:
            raise UsageError("--tail applies to the named tadpole graph only")
        graph = blocks.parse_colored_graph(args.graph)
    result: dict = {
        "graph": {
            "vertices": len(graph.vertices),
            "edges": [list(e) for e in graph.edges],
            "tails": [list(t) for t in graph.tails],
        },
        "level": args.level,
    }
    if tadpole:
        result["loop_colors"] = list(blocks.tadpole_basis(args.tail, args.level))
        result["dimension"] = len(result["loop_colors"])
    else:
        result["dimension"] = blocks.block_dimension(graph, args.level)
    return _report("blocks", {"graph": args.graph, "level": args.level}, result, [])


def _print_blocks_table(report: dict, quiet: bool) -> None:
    result = report["results"]
    print(f"level {result['level']}: dimension {result['dimension']}")
    if "loop_colors" in result and not quiet:
        print(f"loop colors: {result['loop_colors']}")


# ---------------------------------------------------------------------------
# veech

def cmd_veech(args) -> dict:
    if args.mult is not None and args.inter is None:
        raise UsageError("--mult applies to --inter only; a spec gives them as mult=...")
    if args.spec is not None and args.inter is not None:
        raise UsageError("give a graph spec or --inter, not both")
    if args.inter == "-":  # a list too long for one command-line argument
        args.inter = sys.stdin.read().strip()
    if args.inter is not None:
        graph = veech.parse_intersections(args.inter, args.mult or "")
    elif args.spec:
        graph = veech.parse_config_spec(args.spec)
    else:
        raise UsageError("give a graph spec (e.g. A:3) or --inter")
    data = veech.perron(graph)
    dt_c, dt_d = veech.multitwist_matrices(data.mu)
    if args.format == "json":
        text, total_area = veech.flat_surface_json(graph, data)
        rectangles = _JSONText(text)
    else:  # a table prints only the number of rectangles and their total area
        rectangles = sum(count for _i, _j, count in graph.points)
        total_area = veech._area(graph, data.v)
    result = {
        "m": graph.m,
        "k": graph.k,
        "multiplicities": list(graph.multiplicities),
        "mu": data.mu,
        "eigenvector": list(data.v),
        "residual": data.residual,
        "tolerance": veech.DEFAULT_TOL,
        **veech.lattice_certificate(graph),
        "dt_c": dt_c,
        "dt_d": dt_d,
        "rectangles": rectangles,
        "total_area": total_area,
    }
    inputs = {"spec": args.spec, "inter": args.inter, "mult": args.mult}
    return _report("veech", inputs, result, [])


def _print_veech_table(report: dict, quiet: bool) -> None:
    result = report["results"]
    print(
        f"mu = {result['mu']:.12g}   class = {result['graph_class']}   "
        f"lattice = {result['lattice_status']}   "
        f"teichmuller_curve_by_mu = {result['teichmuller_curve_by_mu']}"
    )
    if not quiet:
        print("eigenvector: [" + ", ".join(f"{x:.12g}" for x in result["eigenvector"]) + "]")
        dt_c, dt_d = (
            "[" + ", ".join(f"[{a:.12g}, {b:.12g}]" for a, b in result[key]) + "]"
            for key in ("dt_c", "dt_d")
        )
        print(f"DT_c = {dt_c}, DT_d = {dt_d}")
        print(f"{result['rectangles']} rectangles, total area {result['total_area']:.12g}")


# ---------------------------------------------------------------------------
# orbits

def cmd_orbits(args) -> dict:
    if args.format == "json":
        count, text = orbits.orbit_list_json(args.g, args.n, labeled=args.labeled)
        listing = _JSONText(text)
    else:  # a quiet table prints the count only, so it lists nothing
        count, listing = orbits.orbit_types(args.g, args.n, args.labeled, listed=not args.quiet)
    result = {
        "g": args.g,
        "n": args.n,
        "labeled": args.labeled,
        "count": count,
        "orbits": listing,
        "h2": orbits.h2_bounds(args.g, args.n),
    }
    return _report(
        "orbits", {"g": args.g, "n": args.n, "labeled": args.labeled}, result, []
    )


def _print_orbits_table(report: dict, quiet: bool) -> None:
    result = report["results"]
    print(f"orbits({result['g']}, {result['n']}): {result['count']}")
    if not quiet:
        if result["g"] >= 1:
            print("  nonseparating")
        for pair in result["orbits"]:
            sides = " | ".join(
                f"g={genus},n={list(p) if result['labeled'] else p}" for genus, p in pair
            )
            print(f"  separating: {sides}")
    h2 = result["h2"]
    validity = "" if h2["upper_bound_valid"] else "  (upper bound needs g >= 4)"
    print(f"H^2 bounds: lower {h2['lower_rank']}, upper {h2['upper_bound']}{validity}")


# ---------------------------------------------------------------------------

_TABLE_PRINTERS = {
    "certify": _print_certify_table,
    "blocks": _print_blocks_table,
    "veech": _print_veech_table,
    "orbits": _print_orbits_table,
}


def build_parser() -> argparse.ArgumentParser:
    # --format/--quiet go before or after the subcommand; a flag given after it wins
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default=argparse.SUPPRESS)
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="quantcert",
        description=(
            "Exact certificates for quantum twist representations, block "
            "dimensions, multitwist Veech data and curve-orbit counts."
        ),
    )
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cert = sub.add_parser(
        "certify", parents=[common], help="infiniteness certificates per level"
    )
    p_cert.add_argument("levels", help="a level N or a range N..M")

    p_blocks = sub.add_parser(
        "blocks", parents=[common], help="block dimensions on trivalent graphs"
    )
    p_blocks.add_argument(
        "graph", help="'tadpole' or 'vertices=n; edges=u-v,...; tails=v:color,...'"
    )
    p_blocks.add_argument("--tail", type=numeral, default=None, help="tadpole tail color")
    p_blocks.add_argument("--level", type=numeral, required=True)

    p_veech = sub.add_parser(
        "veech", parents=[common], help="Perron data and multitwist classification"
    )
    p_veech.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="A:n, D:n, E:6|7|8, cycle:n, star:n, or c=..; d=..; inter=..; mult=..",
    )
    p_veech.add_argument("--inter", default=None, help="(i,j,count),... triples")
    p_veech.add_argument("--mult", default=None, help="comma list of multiplicities")

    p_orbits = sub.add_parser(
        "orbits", parents=[common], help="curve orbit counts and H^2 bounds"
    )
    p_orbits.add_argument("g", type=numeral)
    p_orbits.add_argument("n", type=numeral)
    p_orbits.add_argument("--labeled", action="store_true")
    return parser


#: built once at import; parse_args leaves it unchanged, so every request reuses it
_PARSER = build_parser()

_COMMANDS = {
    "certify": cmd_certify,
    "blocks": cmd_blocks,
    "veech": cmd_veech,
    "orbits": cmd_orbits,
}


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        report = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuantcertError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if args.format == "json":
            print(_dump(report))
        else:
            _TABLE_PRINTERS[args.command](report, args.quiet)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop writing, and send what
        # is still buffered to devnull so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
