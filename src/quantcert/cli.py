"""Command-line interface: certify, blocks, veech, orbits.

Every command builds a deterministic report (command echo, inputs, results,
provenance notes, tool version) and renders it as a table or as canonically
ordered JSON.  Exit codes: 0 on success (an uncertified level is a result,
not an error), 2 on usage or parse errors, 3 on internal invariant
violations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, blocks, certify, orbits, veech
from .errors import (
    GraphParseError,
    InvalidColor,
    InvalidGraph,
    NonHyperbolic,
    QuantcertError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(QuantcertError):
    """Bad command-line input (maps to exit code 2)."""


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def _report(command: str, inputs: dict, results, provenance: list[str]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": provenance,
        "version": __version__,
    }


def _parse_level_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"invalid level range {text!r}; expected N or N..M") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"invalid level range {text!r}; need 1 <= N <= M")
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
        cert = certify.certify_level(p)
        results.append(certify.certificate_to_json(cert))
        (certified if cert.certified else uncertified).append(p)
        for note in cert.provenance_notes:
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
    if args.graph == "tadpole":
        if args.tail is None:
            raise UsageError("the tadpole graph needs --tail")
        graph = blocks.tadpole_graph(args.tail)
    else:
        if args.tail is not None:
            raise UsageError("--tail applies to the named tadpole graph only")
        try:
            graph = blocks.parse_colored_graph(args.graph)
        except GraphParseError as exc:
            raise UsageError(str(exc)) from exc
    try:
        dim = blocks.block_dimension(graph, args.level)
        if args.graph == "tadpole":
            loop_colors = blocks.tadpole_basis(args.tail, args.level)
    except (InvalidColor, InvalidGraph, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    result: dict = {
        "graph": {
            "vertices": len(graph.vertices),
            "edges": [list(e) for e in graph.edges],
            "tails": [list(t) for t in graph.tails],
        },
        "level": args.level,
        "dimension": dim,
    }
    if args.graph == "tadpole":
        result["loop_colors"] = list(loop_colors)
    return _report("blocks", {"graph": args.graph, "level": args.level}, result, [])


def _print_blocks_table(report: dict, quiet: bool) -> None:
    result = report["results"]
    print(f"level {result['level']}: dimension {result['dimension']}")
    if "loop_colors" in result and not quiet:
        print(f"loop colors: {result['loop_colors']}")


# ---------------------------------------------------------------------------
# veech

def cmd_veech(args) -> dict:
    try:
        if args.inter:
            graph = veech.parse_intersections(args.inter, args.mult or "")
        elif args.spec:
            graph = veech.parse_config_spec(args.spec)
        else:
            raise UsageError("give a graph spec (e.g. A:3) or --inter")
    except GraphParseError as exc:
        raise UsageError(str(exc)) from exc
    data = veech.perron(graph)
    cert = veech.lattice_certificate(graph)
    dt_c, dt_d = veech.multitwist_matrices(data.mu)
    surface = veech.flat_surface(graph, data)
    result = {
        "m": graph.m,
        "k": graph.k,
        "multiplicities": list(graph.multiplicities),
        "mu": data.mu,
        "eigenvector": list(data.v),
        "residual": data.residual,
        "tolerance": data.tolerance,
        "graph_class": cert.graph_class,
        "lattice_status": cert.status,
        "teichmuller_curve_by_mu": cert.teichmuller_curve_by_mu,
        "dt_c": [[dt_c.a, dt_c.b], [dt_c.c, dt_c.d]],
        "dt_d": [[dt_d.a, dt_d.b], [dt_d.c, dt_d.d]],
        "rectangles": [
            {
                "id": r.point_id,
                "c_component": r.c_index,
                "d_component": r.d_index,
                "width": r.width,
                "height": r.height,
            }
            for r in surface.rectangles
        ],
        "total_area": surface.total_area,
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
        print(f"eigenvector: {[round(x, 10) for x in result['eigenvector']]}")
        print(f"DT_c = {result['dt_c']}, DT_d = {result['dt_d']}")
        print(f"{len(result['rectangles'])} rectangles, total area {result['total_area']:.12g}")


# ---------------------------------------------------------------------------
# orbits

def cmd_orbits(args) -> dict:
    try:
        curve_types = orbits.enumerate_orbits(args.g, args.n, labeled=args.labeled)
        count = orbits.count_orbits(args.g, args.n, labeled=args.labeled)
        bounds = orbits.h2_bounds(args.g, args.n)
    except NonHyperbolic as exc:
        raise UsageError(str(exc)) from exc
    result = {
        "g": args.g,
        "n": args.n,
        "labeled": args.labeled,
        "count": count,
        "orbits": [orbits.curve_type_to_json(ct) for ct in curve_types],
        "h2": {
            "lower_rank": bounds.lower_rank,
            "upper_bound": bounds.upper_bound,
            "upper_bound_valid": bounds.upper_bound_valid,
        },
    }
    return _report(
        "orbits", {"g": args.g, "n": args.n, "labeled": args.labeled}, result, []
    )


def _print_orbits_table(report: dict, quiet: bool) -> None:
    result = report["results"]
    print(f"orbits({result['g']}, {result['n']}): {result['count']}")
    if not quiet:
        for entry in result["orbits"]:
            if entry["kind"] == orbits.NONSEPARATING:
                print("  nonseparating")
            else:
                sides = " | ".join(
                    f"g={s['genus']},n={s.get('punctures', s['puncture_count'])}"
                    for s in entry["sides"]
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
    # --format/--quiet are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", dest="format_sub", choices=("table", "json"), default=None
    )
    common.add_argument("--quiet", dest="quiet_sub", action="store_true")

    parser = argparse.ArgumentParser(
        prog="quantcert",
        description=(
            "Exact certificates for quantum twist representations, block "
            "dimensions, multitwist Veech data and curve-orbit counts."
        ),
    )
    parser.add_argument("--format", choices=("table", "json"), default=None)
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
    p_blocks.add_argument("--tail", type=int, default=None, help="tadpole tail color")
    p_blocks.add_argument("--level", type=int, required=True)

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
    p_orbits.add_argument("g", type=int)
    p_orbits.add_argument("n", type=int)
    p_orbits.add_argument("--labeled", action="store_true")
    return parser


_COMMANDS = {
    "certify": cmd_certify,
    "blocks": cmd_blocks,
    "veech": cmd_veech,
    "orbits": cmd_orbits,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out_format = args.format_sub or args.format or "table"
    quiet = args.quiet_sub or args.quiet
    try:
        report = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuantcertError as exc:
        # anything not wrapped as a usage error by the command is internal
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if out_format == "json":
        print(_dump(report))
    else:
        _TABLE_PRINTERS[args.command](report, quiet)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
