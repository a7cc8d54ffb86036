"""Command-line interface: certify, blocks, veech, orbits.

Every command gives a deterministic report (command echo, inputs, results,
provenance notes, tool version) as a table or as canonically ordered JSON.
``certify`` writes its report as text, in one pass over the levels, from a
template per route and format, and builds no report dict: a range of
``RANGE_BUDGET`` levels would be as many small dicts, walked once more to be
written.  The other commands build a report dict, which ``_dump`` writes as
JSON and a table printer prints.  Two of its fields may arrive as JSON text
already (a JSON ``orbits`` request writes its orbit list from the side pairs,
and a JSON ``veech`` request its rectangle list from the intersection points),
which ``_dump`` splices in; every other value it walks.  Exit codes: 0 on
success (an uncertified level is a result, not an error), 2 on a
``UsageError`` (raised where the broken input rule lives), 3 on any other
package error.  ``main`` is the only place that maps an error to an exit
code.  A reader that closes stdout early (``| head``) ends the output, not
the command: it still exits 0, with nothing on stderr.

Arguments are read by ``_read``: one pass over argv, driven by one table
per subcommand (its positionals, then its flags, each with a converter), in
which every integer is a ``grammar.numeral``.  It reads every argv as the
argparse parser it replaced did (``tests/oracles.build_parser``, the
differential oracle), except that a value ``--`` stays text where argparse
stored an empty list.  A reading error is a ``UsageError`` like any other,
so no request raises ``SystemExit``.  ``main(argv)`` may be called any number
of times in one process: the tables are constants, and each call reads into
a fresh namespace, so no flag or default carries over from one request to the next.
"""

from __future__ import annotations

import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__, blocks, certify, orbits
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

    The writer of the ``blocks``, ``veech`` and ``orbits`` reports; a ``certify``
    report is written as text from its templates, in the same layout.  json
    turns its C encoder off when ``indent`` is given and builds the text
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
#
# A certify report is written as text from these templates, in the layout
# ``_dump`` gives its dict: keys sorted, two spaces per level, and each
# ``%s`` filled with JSON text already.  A record sits at depth 2, in the
# ``results`` list of the report.

_CERTIFY_JSON = """{
  "command": "certify",
  "inputs": {
    "levels": %s
  },
  "provenance": %s,
  "results": [
    %s
  ],
  "summary": {
    "certified": %s,
    "uncertified": %s
  },
  "version": %s
}
"""

_ODD_JSON = """{
      "boundary_color": %%d,
      "odd_part": %%d,
      "p": %%d,
      "route": %s
    }""" % encode_basestring_ascii(certify.ROUTE_ODD)

_EVEN_JSON = """{
      "boundary_color": %%d,
      "cases": [
        %%s
      ],
      "ell": %%d,
      "p": %%d,
      "route": %s,
      "signature": [
        %%d,
        %%d
      ]
    }""" % encode_basestring_ascii(certify.ROUTE_EVEN)

_CASE_JSON = """{
          "multiset": [
            %s
          ],
          "resolution": %s
        }"""

_UNCERTIFIED_JSON = """{
      "failed": [
        %%s
      ],
      "p": %%d,
      "route": %s
    }""" % encode_basestring_ascii(certify.ROUTE_UNCERTIFIED)

#: the table row of an odd-route level; a row starts with the level and its route
_ODD_ROW = "p=%%-4d %-14s odd part %%d, boundary color %%d" % certify.ROUTE_ODD


def _json_list(items: list[str], newline: str) -> str:
    """A JSON list of ``items``, each JSON text already, on the lines ``newline`` indents."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _json_record(record: dict) -> str:
    """The JSON text of one ``certify.certify_level`` record, from its route's template."""
    route = record["route"]
    if route == certify.ROUTE_ODD:
        return _ODD_JSON % (record["boundary_color"], record["odd_part"], record["p"])
    if route == certify.ROUTE_EVEN:
        cases = ",\n        ".join(
            _CASE_JSON % (
                ",\n            ".join(map(encode_basestring_ascii, case["multiset"])),
                encode_basestring_ascii(case["resolution"]),
            )
            for case in record["cases"]
        )
        return _EVEN_JSON % (
            record["boundary_color"], cases, record["ell"], record["p"], *record["signature"]
        )
    failed = ",\n        ".join(map(encode_basestring_ascii, record["failed"]))
    return _UNCERTIFIED_JSON % (failed, record["p"])


def _table_row(record: dict) -> str:
    """The table row of one ``certify.certify_level`` record."""
    route = record["route"]
    if route == certify.ROUTE_ODD:
        return _ODD_ROW % (record["p"], record["odd_part"], record["boundary_color"])
    if route == certify.ROUTE_EVEN:
        extra = (
            f"ell {record['ell']}, signature {tuple(record['signature'])}, "
            f"{len(record['cases'])} subspace cases"
        )
    else:
        extra = "; ".join(record["failed"])
    return f"p={record['p']:<4d} {route:<14s} {extra}"


def cmd_certify(args) -> str:
    """The certify report on ``args.levels`` as the text ``main`` prints.

    One pass over the levels writes each record (JSON) or row (a table,
    which ``--quiet`` leaves out) as it comes from ``certify.certify_level``,
    and collects the two summary lists and the provenance notes, each
    stamped with its level; no report dict is built.
    """
    lo, hi = _parse_level_range(args.levels)
    json_out = args.format == "json"
    write = _json_record if json_out else None if args.quiet else _table_row
    records: list[str] = []
    provenance: list[str] = []
    certified: list[int] = []
    uncertified: list[int] = []
    for p in range(lo, hi + 1):
        record, notes = certify.certify_level(p)
        (uncertified if record["route"] == certify.ROUTE_UNCERTIFIED else certified).append(p)
        if write is not None:
            records.append(write(record))
        for note in notes:
            provenance.append(f"p={p}: {note}")
    if json_out:
        return _CERTIFY_JSON % (
            encode_basestring_ascii(args.levels),
            _json_list(list(map(encode_basestring_ascii, provenance)), "\n  "),
            ",\n    ".join(records),
            _json_list(list(map(str, certified)), "\n    "),
            _json_list(list(map(str, uncertified)), "\n    "),
            encode_basestring_ascii(__version__),
        )
    records.append(f"certified:   {certified}")
    records.append(f"uncertified: {uncertified}")
    records.extend(["note: " + note for note in provenance])
    return "\n".join(records) + "\n"


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
    from . import veech  # only a veech request loads it

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
    "blocks": _print_blocks_table,
    "veech": _print_veech_table,
    "orbits": _print_orbits_table,
}


# ---------------------------------------------------------------------------
# reading argv

#: flags every level reads, before or after the subcommand, as flag -> (dest,
#: converter, required); a switch has no converter, and a choice list is one
_SHARED = {
    "-h": ("help", None, False),
    "--help": ("help", None, False),
    "--format": ("format", ("table", "json"), False),
    "--quiet": ("quiet", None, False),
}

#: subcommand -> its positionals as (dest, converter, required), in order,
#: and its own flags
_ARGUMENTS = {
    "certify": ((("levels", str, True),), {}),
    "blocks": (
        (("graph", str, True),),
        {"--tail": ("tail", numeral, False), "--level": ("level", numeral, True)},
    ),
    "veech": (
        (("spec", str, False),),
        {"--inter": ("inter", str, False), "--mult": ("mult", str, False)},
    ),
    "orbits": (
        (("g", numeral, True), ("n", numeral, True)),
        {"--labeled": ("labeled", None, False)},
    ),
}

#: subcommand -> (positionals, every flag it reads, the defaults of what it may leave out)
_GRAMMAR = {
    command: (
        positionals,
        {**_SHARED, **flags},
        {
            dest: False if convert is None else None
            for dest, convert, required in (*positionals, *flags.values())
            if not required
        },
    )
    for command, (positionals, flags) in _ARGUMENTS.items()
}

#: what -h and --help print, before or after the subcommand
_USAGE = """usage: quantcert [options] COMMAND ARGUMENTS [options]

Exact certificates for quantum twist representations, block dimensions,
multitwist Veech data and curve-orbit counts.

commands:
  certify LEVELS           infiniteness certificates for a level N or a range N..M
  blocks GRAPH --level N [--tail COLOR]
                           block dimensions; GRAPH is tadpole, with --tail,
                           or 'vertices=n; edges=u-v,...; tails=v:color,...'
  veech [SPEC] [--inter TRIPLES] [--mult LIST]
                           Perron data and multitwist class of a spec (A:n, D:n,
                           E:6|7|8, cycle:n, star:n or 'c=..; d=..; inter=..;
                           mult=..') or of (i,j,count),... triples (- reads stdin)
  orbits G N [--labeled]   curve orbit counts and H^2 bounds

options, before or after the command (given on both sides, the one after wins):
  -h, --help               print this text and exit
  --format {table,json}    output format (default: table)
  --quiet                  a table prints its summary lines only
Each option may be written --flag value, --flag=value, or with its name
shortened to a unique prefix (--f json).
"""

#: a token that looks like a negative number: a value, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(token: str, flags: dict):
    """``(flag, text joined to it or None)`` when ``token`` names a flag of
    ``flags``, ``(None, None)`` when it looks like an option of none, and
    None when it is a value.

    A long flag may be shortened to a unique prefix and take its value after
    ``=``; ``-h`` may be followed by more ``h``.  A token that starts with
    ``-`` and names no flag is a value only if it looks like a negative
    number or holds a blank; ``-`` alone is a value.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, explicit = token.partition("=")
    if eq and name in flags:
        return name, explicit
    if token[1] != "-":
        if token[1] == "h":
            return "-h", token[2:]
    else:
        found = [flag for flag in flags if flag.startswith(name)]
        if len(found) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], explicit if eq else None
    if " " in token or _NEGATIVE.match(token):
        return None
    return None, None


def _convert(name: str, convert, text: str):
    """``text`` as the argument ``name`` reads it: through ``convert``, or
    checked against it when it lists the choices."""
    if not callable(convert):
        if text in convert:
            return text
        choices = ", ".join(map(repr, convert))
        raise UsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    try:
        return convert(text)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {convert.__name__} value: {text!r}") from None


def _usage(rest: list[str]) -> str:
    """The text ``--help`` asks for.  An ambiguous flag
    (``--=x``) before the first ``--`` is an error wherever it stands, even
    after ``--help``: every token is sorted before any is acted on."""
    for token in rest:
        if token == "--":
            break
        _option(token, _SHARED)
    return _USAGE


def _read(argv: list[str]) -> SimpleNamespace | str:
    """The arguments of the request ``argv``, or the usage text it asks for.

    One pass: the first value names the subcommand and the next ones fill
    its positionals in order; an option takes the next token as its value
    unless that token is an option too; after the first ``--`` every token
    is a value, and the ``--`` itself is dropped where it stands next to a
    positional; a value with no positional left, or an option no level
    knows, is unrecognized.  Every error raises UsageError at the token that
    breaks the rule, so a ``--help`` after it is not read; a missing or
    unrecognized argument is reported once the pass ends.
    """
    args: dict = {"format": "table", "quiet": False}
    flags, positionals, command = _SHARED, (), None
    extras: list[str] = []
    filled = 0  # positionals given so far
    after_positional = marked = False
    i, end = 0, len(argv)
    while i < end:
        token = argv[i]
        i += 1
        if marked:
            option = None
        elif token == "--":
            if command is None:
                _convert("command", _GRAMMAR, token)
            marked = True
            if not (after_positional or filled < len(positionals)):
                extras.append(token)
            continue
        else:
            option = _option(token, flags)
        if option is None:
            after_positional = command is not None and filled < len(positionals)
            if command is None:
                command = args["command"] = _convert("command", _GRAMMAR, token)
                positionals, flags, defaults = _GRAMMAR[command]
                args.update(defaults)
            elif after_positional:
                dest, convert, _ = positionals[filled]
                args[dest] = _convert(dest, convert, token)
                filled += 1
            else:
                extras.append(token)
            continue
        after_positional = False
        flag, explicit = option
        if flag is None:
            extras.append(token)
            continue
        dest, convert, _ = flags[flag]
        if convert is None:
            if explicit is not None and (flag != "-h" or explicit.strip("h") or not explicit):
                raise UsageError(f"argument {flag}: ignored explicit argument {explicit!r}")
            if dest == "help":
                return _usage(argv[i:])
            args[dest] = True
            continue
        if explicit is None:
            if i == end or argv[i] == "--" or _option(argv[i], flags) is not None:
                raise UsageError(f"argument {flag}: expected one argument")
            explicit = argv[i]
            i += 1
        args[dest] = _convert(flag, convert, explicit)
    if command is None:
        raise UsageError("the following arguments are required: command")
    missing = [dest for dest, _, required in positionals if required and dest not in args]
    missing += [
        flag for flag, (dest, _, required) in flags.items() if required and dest not in args
    ]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**args)


_COMMANDS = {
    "certify": cmd_certify,
    "blocks": cmd_blocks,
    "veech": cmd_veech,
    "orbits": cmd_orbits,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _read(sys.argv[1:] if argv is None else argv)
        if type(args) is str:  # the usage text -h or --help asks for
            print(args, end="")
            return EXIT_OK
        output = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuantcertError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        if type(output) is str:  # certify writes its own text
            print(output, end="")
        elif args.format == "json":
            print(_dump(output))
        else:
            _TABLE_PRINTERS[args.command](output, args.quiet)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop writing, and send what
        # is still buffered to devnull so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
