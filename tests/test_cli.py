import ast
import contextlib
import enum
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    build_parser,
    certify_json,
    certify_report,
    certify_table,
    flat_surface,
    random_connected_bipartite,
)
from quantcert import certify, cli, errors, orbits, veech
from quantcert.cli import EXIT_OK, EXIT_USAGE, main
from test_orbits import no_enumeration


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertifyCommand:
    def test_range_summary(self, capsys):
        code, out, _ = run(capsys, "certify", "1..30")
        assert code == EXIT_OK
        assert "uncertified: [1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 24]" in out

    def test_single_level_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "certify", "7")
        assert code == EXIT_OK
        doc = json.loads(out)
        cert = doc["results"][0]
        assert cert == {
            "p": 7,
            "route": "odd_burau",
            "odd_part": 7,
            "boundary_color": 2,
        }

    def test_level_40_annotated(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "certify", "40")
        doc = json.loads(out)
        assert doc["results"][0]["route"] == "even_coxeter"
        assert any("divides 120" in note for note in doc["provenance"])

    def test_uncertified_is_not_an_error(self, capsys):
        code, out, _ = run(capsys, "certify", "24")
        assert code == EXIT_OK

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "certify", "7..")
        assert code == EXIT_USAGE
        assert "range" in err


#: levels 2^a * {1, 3, 5} = 4k with k >= 4 up to 100000: the even route decides
#: them, as their odd part is below 7
EVEN_ROUTE_LEVELS = sorted(
    p for c in (1, 3, 5) for a in range(2, 17) if 16 <= (p := c << a) <= 100000
)

#: level arguments whose reports hold every route, blanks around numerals
#: included, which the report echoes as given
CERTIFY_TEXT_REQUESTS = ["1..200", "7..9", "16", "20", "24", "40", "60", "\t7 ..\u20039"] + [
    str(p) for p in EVEN_ROUTE_LEVELS
]


class TestCertifyText:
    @pytest.mark.parametrize("levels", CERTIFY_TEXT_REQUESTS, ids=ascii)
    def test_text_matches_the_report_dict(self, capsys, levels):
        """``cmd_certify`` writes its text in one pass; the report dict it built
        before, dumped by json or printed row by row, is its oracle, in both
        formats, with and without --quiet."""
        report = certify_report(levels)
        for out_format, quiet in itertools.product(("table", "json"), (False, True)):
            argv = ["certify", levels, "--format", out_format] + ["--quiet"] * quiet
            code, out, err = run(capsys, *argv)
            assert (code, err) == (EXIT_OK, ""), argv
            want = certify_json(report) if out_format == "json" else certify_table(report, quiet)
            assert out == want, argv

    def test_every_route_is_covered(self):
        routes = {
            record["route"]
            for levels in CERTIFY_TEXT_REQUESTS
            for record in certify_report(levels)["results"]
        }
        assert routes == {certify.ROUTE_ODD, certify.ROUTE_EVEN, certify.ROUTE_UNCERTIFIED}
        even = [
            p
            for p in EVEN_ROUTE_LEVELS
            if certify_report(str(p))["results"][0]["route"] == certify.ROUTE_EVEN
        ]
        assert len(even) == 37 and set(EVEN_ROUTE_LEVELS) - set(even) == {20, 24}


class TestBlocksCommand:
    def test_tadpole_even(self, capsys):
        code, out, _ = run(capsys, "blocks", "tadpole", "--tail", "2", "--level", "16")
        assert code == EXIT_OK
        assert "dimension 5" in out
        assert "[1, 2, 3, 4, 5]" in out

    def test_tadpole_odd(self, capsys):
        code, out, _ = run(capsys, "blocks", "tadpole", "--tail", "4", "--level", "9")
        assert code == EXIT_OK
        assert "dimension 2" in out

    def test_dsl_graph(self, capsys):
        code, out, _ = run(
            capsys,
            "--format",
            "json",
            "blocks",
            "vertices=2; edges=1-2,1-2,1-2",
            "--level",
            "5",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["dimension"] == 5

    def test_malformed_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "blocks", "vertices=2; edges=1*2", "--level", "5")
        assert code == EXIT_USAGE
        assert "1*2" in err

    @pytest.mark.parametrize("tail", ["3", "99"])
    def test_tadpole_tail_outside_palette_exits_2(self, capsys, tail):
        code, _, err = run(capsys, "blocks", "tadpole", "--tail", tail, "--level", "7")
        assert code == EXIT_USAGE
        assert "internal error" not in err
        assert "palette" in err


    @pytest.mark.parametrize(
        "name", [" tadpole", "tadpole ", "\ttadpole\n"], ids=["leading", "trailing", "tab-newline"]
    )
    def test_blanks_around_tadpole_are_ignored(self, capsys, name):
        argv = ("--tail", "2", "--level", "7", "--format", "json")
        code, out, err = run(capsys, "blocks", name, *argv)
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["inputs"]["graph"] == name
        _, plain, _ = run(capsys, "blocks", "tadpole", *argv)
        assert doc["results"] == json.loads(plain)["results"]

    def test_budgets_admit_their_bounds(self, capsys):
        code, out, _ = run(capsys, "blocks", "tadpole", "--tail", "0", "--level", "800")
        assert code == EXIT_OK
        assert "dimension 399" in out
        ring = ",".join(f"{i}-{i % 100 + 1}" for i in range(1, 101))
        rungs = ",".join(f"{i}-{i + 1}" for i in range(1, 101, 2))
        spec = f"vertices=100; edges={ring},{rungs}"
        code, out, _ = run(capsys, "blocks", spec, "--level", "7")
        assert code == EXIT_OK


class TestVeechCommand:
    def test_path_family(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "veech", "A:3")
        assert code == EXIT_OK
        doc = json.loads(out)
        result = doc["results"]
        assert abs(result["mu"] - 2**0.5) < 1e-9
        assert result["graph_class"] == "recessive"
        assert result["lattice_status"] == "finite_index_in_veech"
        assert result["teichmuller_curve_by_mu"] is True
        assert "tolerance" in result

    def test_cycle(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "veech", "cycle:6")
        doc = json.loads(out)
        assert abs(doc["results"]["mu"] - 2.0) <= 1e-9
        assert doc["results"]["graph_class"] == "critical"

    def test_explicit_intersections(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "veech", "--inter", "(1,1,3)", "--mult", "1,1"
        )
        doc = json.loads(out)
        assert abs(doc["results"]["mu"] - 3.0) < 1e-9
        assert doc["results"]["graph_class"] == "dominant"

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "veech", "F:4")
        assert code == EXIT_USAGE

    def test_missing_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "veech")
        assert code == EXIT_USAGE

    def test_table_ignores_the_last_ulp_of_mu(self, capsys):
        # every entry of the cycle:180 eigenvector is 1/sqrt(180) =
        # 0.07453559925 up to rounding noise: a tie in its 11th decimal
        for spec in ("A:3", "cycle:180"):
            report = cli.cmd_veech(cli._read(["veech", spec]))
            docs = [report]
            for way in (math.inf, -math.inf):
                nudged = json.loads(cli._dump(report))
                mu = math.nextafter(report["results"]["mu"], way)
                nudged["results"]["mu"] = mu
                nudged["results"]["dt_c"][0][1] = mu
                nudged["results"]["dt_d"][1][0] = -mu
                nudged["results"]["eigenvector"] = [
                    math.nextafter(x, way) for x in report["results"]["eigenvector"]
                ]
                docs.append(nudged)
            tables = []
            for doc in docs:
                cli._print_veech_table(doc, quiet=False)
                tables.append(capsys.readouterr().out)
            if spec == "A:3":
                assert "DT_c = [[1, 1.41421356237], [0, 1]]" in tables[0]
            assert tables[0] == tables[1] == tables[2], spec


class TestOrbitsCommand:
    def test_genus4(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "orbits", "4", "0")
        doc = json.loads(out)
        assert doc["results"]["count"] == 3
        assert doc["results"]["h2"] == {
            "lower_rank": 3,
            "upper_bound": 4,
            "upper_bound_valid": True,
        }

    def test_genus3_one_puncture(self, capsys):
        code, out, _ = run(capsys, "orbits", "3", "1")
        assert code == EXIT_OK
        assert "orbits(3, 1): 3" in out

    def test_non_hyperbolic_exits_2(self, capsys):
        code, _, err = run(capsys, "orbits", "0", "2")
        assert code == EXIT_USAGE

    def test_quiet_table_lists_nothing(self, capsys, monkeypatch):
        argv = ("orbits", "4", "12", "--labeled", "--quiet")
        expected = run(capsys, *argv)
        assert expected[0] == EXIT_OK
        assert expected[1].splitlines() == [
            "orbits(4, 12): 10228",
            "H^2 bounds: lower 32, upper 45",
        ]
        monkeypatch.setattr(orbits, "_separating_types", no_enumeration)
        assert run(capsys, *argv) == expected
        # the list budget still decides the exit code
        code, _, err = run(capsys, "orbits", "1", "65", "--labeled", "--quiet")
        assert code == EXIT_USAGE
        assert "LIST_BUDGET" in err

    def test_list_short_of_the_closed_form_exits_3(self, capsys, monkeypatch):
        # the table takes the side pairs and JSON the text, from the same generator
        separating_types = orbits._separating_types
        monkeypatch.setattr(
            orbits, "_separating_types", lambda *a: itertools.islice(separating_types(*a), 1, None)
        )
        for out_format in ("table", "json"):
            code, out, err = run(capsys, "orbits", "4", "0", "--format", out_format)
            assert code == 3
            assert out == ""
            assert "internal error" in err
            assert "closed form gives 3" in err


#: one JSON request per subcommand
JSON_REQUESTS = [
    ("--format", "json", "certify", "1..20"),
    ("--format", "json", "blocks", "tadpole", "--tail", "2", "--level", "16"),
    ("--format", "json", "veech", "A:5"),
    ("--format", "json", "orbits", "4", "2", "--labeled"),
]


class Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


class Label(str):
    pass


#: text json must escape: quotes, backslashes, controls, non-ASCII, astral
#: characters, and the brackets and separators the writer itself emits
TRICKY_TEXT = st.text(st.sampled_from('"\\[]{},: \x00\x1f\x7f\n\t\u00e9\u2028\U0001f600a'))
TEXT = st.text() | TRICKY_TEXT | TRICKY_TEXT.map(Label)
FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324])
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.sampled_from([True, False, 1, 0, 1.0, 0.0])
    | FLOATS
    | FLOATS.map(np.float64)
    | st.sampled_from(list(Colour))
    | TEXT
)


def json_trees(children):
    return (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=6).map(tuple)
        | st.dictionaries(TEXT, children, max_size=6)
    )


@st.composite
def deep_trees(draw):
    """A chain of up to 100 nested lists and dicts around one leaf."""
    tree = draw(SCALARS | st.just([]) | st.just({}))
    for wrap_in_dict in draw(st.lists(st.booleans(), max_size=100)):
        tree = {draw(TEXT): tree} if wrap_in_dict else [tree]
    return tree


class TestJsonDiscipline:
    @pytest.mark.parametrize("argv", JSON_REQUESTS)
    def test_round_trip_byte_identical(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) == out.rstrip("\n")

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(doc=st.recursive(SCALARS, json_trees, max_leaves=40) | deep_trees())
    def test_writer_matches_json_dumps(self, doc):
        assert cli._dump(doc) == json.dumps(doc, sort_keys=True, indent=2)

    @pytest.mark.parametrize(
        "doc",
        [{1: "a"}, {"a": [{"b": 0, 2: 0}]}, [np.int64(3)], {"a": {1, 2}}, b"x", 1j],
    )
    def test_non_json_input_raises_type_error(self, doc):
        with pytest.raises(TypeError):
            cli._dump(doc)

    def test_reports_are_written_without_json_dumps(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps was called")

        monkeypatch.setattr(json, "dumps", refuse)
        for argv in JSON_REQUESTS:
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert json.loads(out)["command"] == argv[2]

    def test_veech_rectangles_text_matches_the_records(self, capsys):
        """A JSON veech request writes its rectangle list as text; the report
        a table request builds, which counts the rectangles, with the count
        replaced by the oracle's records and dumped by json, is its oracle,
        floats and total area included."""
        families = {
            "A": (2, 3, 5, 17, 2000),
            "D": (4, 5, 9, 2000),
            "E": (6, 7, 8),
            "cycle": (4, 6, 50, 1998),
            "star": (1, 4, 5, 1999),
        }
        requests = [[f"{name}:{n}"] for name, sizes in families.items() for n in sizes]
        requests += [["--inter", COMPLETE_64], ["--inter", COMPLETE_64 + ",(65,1,1)"]]
        rng = random.Random(5)
        while len(requests) < 120:
            try:
                g = random_connected_bipartite(rng, weighted=True, dense=len(requests) % 4 == 0)
            except errors.DisconnectedGraph:
                continue
            inter = ",".join(f"({i + 1},{j + 1},{count})" for i, j, count in g.points)
            mult = ",".join(map(str, g.multiplicities))
            if len(requests) % 2:
                requests.append(["--inter", inter, "--mult", mult])
            else:
                requests.append([f"c={g.m}; d={g.k}; inter={inter}; mult={mult}"])
        for argv in requests:
            code, out, err = run(capsys, "--format", "json", "veech", *argv)
            assert (code, err) == (EXIT_OK, ""), argv
            report = cli.cmd_veech(cli._read(["veech", *argv]))
            if argv[0] == "--inter":
                graph = veech.parse_intersections(argv[1], argv[3] if len(argv) > 2 else "")
            else:
                graph = veech.parse_config_spec(argv[0])
            records, total_area = flat_surface(graph, veech.perron(graph))
            results = report["results"]
            assert (results["rectangles"], results["total_area"]) == (len(records), total_area)
            results["rectangles"] = records
            assert out == json.dumps(report, sort_keys=True, indent=2) + "\n", argv

    def test_exact_fields_are_integers(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "certify", "16")
        cert = json.loads(out)["results"][0]
        assert isinstance(cert["ell"], int)
        assert all(isinstance(x, int) for x in cert["signature"])

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "--format", "json", "veech", "cycle:6")
        _, second, _ = run(capsys, "--format", "json", "veech", "cycle:6")
        assert first == second


class TestExitCodes:
    def test_flags_work_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "certify", "7", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["p"] == 7

    def test_format_on_both_sides_the_later_wins(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "certify", "7", "--format", "table")
        assert code == EXIT_OK
        assert out.startswith("p=7 ")
        code, out, _ = run(capsys, "--format", "table", "certify", "7", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["results"][0]["p"] == 7

    def test_only_main_catches_package_errors(self):
        """Input errors are raised as UsageErrors where their rule lives and
        reach main untranslated; no other except clause names a package error."""
        package = {
            name
            for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, errors.QuantcertError)
        }
        package |= {"Exception", "BaseException"}  # these catch them all
        caught, in_main = [], []
        for path in sorted((SRC / "quantcert").glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            main_nodes = set()
            for node in ast.walk(tree):
                if path.name == "cli.py" and getattr(node, "name", None) == "main":
                    main_nodes = set(ast.walk(node))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node in main_nodes:
                    in_main.append(node)
                    continue
                parts = ast.walk(node.type) if node.type else [ast.Name("BaseException")]
                names = {getattr(part, "id", getattr(part, "attr", None)) for part in parts}
                if names & package:
                    caught.append((path.name, node.lineno, sorted(names & package)))
        assert caught == []
        assert {"UsageError", "GraphParseError", "InvariantViolation"} <= package
        # main's handlers: the two exit-code mappings and the closed stdout
        assert [ast.unparse(node.type) for node in in_main] == [
            "UsageError", "QuantcertError", "BrokenPipeError"
        ]

    def test_internal_invariant_violation_exits_3(self, capsys, monkeypatch):
        from quantcert.errors import InvariantViolation

        def broken(args):
            raise InvariantViolation("synthetic fault")

        monkeypatch.setitem(cli._COMMANDS, "orbits", broken)
        code, _, err = run(capsys, "orbits", "4", "0")
        assert code == 3
        assert "internal error" in err


#: K_{64,64} and K_{141,141}: more intersection points than vertices, so
#: dominant by counting; the second has 19881 points, inside POINT_BUDGET
COMPLETE_64 = ",".join(f"({i},{j},1)" for i in range(1, 65) for j in range(1, 65))
COMPLETE_141 = ",".join(f"({i},{j},1)" for i in range(1, 142) for j in range(1, 142))


class TestContract:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("veech", "c=x;inter=(1,1,1)"), "c='x'"),
            (("orbits", "-1", "5"), "nonnegative"),
            (("veech", "A:100000"), "VERTEX_BUDGET = 2000"),
            (("veech", "--inter", "(100000,100000,1)"), "VERTEX_BUDGET = 2000"),
            (("veech", "c=100000; inter=(1,1,1)"), "VERTEX_BUDGET = 2000"),
            (("veech", "F:4"), "unknown family"),
            (("veech", "A:x"), "invalid family size"),
            (("orbits", "2", "x"), "invalid numeral value"),
            (("veech", "--inter", "(1,1,99999999999999999999)"), "POINT_BUDGET = 20000"),
            (("veech", "--inter", "(1,1,300000)"), "POINT_BUDGET = 20000"),
            (("veech", "--inter", "(1,1,1)", "--mult", "1,10000000"), "MULTIPLICITY_CAP"),
            (("blocks", "vertices=300000", "--level", "7"), "VERTEX_BUDGET = 100"),
            (("blocks", "vertices=1000000000", "--level", "7"), "VERTEX_BUDGET = 100"),
            (("blocks", "tadpole", "--tail", "0", "--level", "801"), "LEVEL_BUDGET = 800"),
            (("blocks", "vertices=100", "--level", "7"), "and 95 more"),
            (("certify", "1..100001"), "RANGE_BUDGET = 100000"),
            (("certify", "1..1000000000"), "RANGE_BUDGET = 100000"),
            (("orbits", "1", "16", "--labeled"), "LIST_BUDGET = 200000"),
            (("orbits", "1", "18", "--labeled"), "LIST_BUDGET = 200000"),
            (("orbits", "2000", "2000"), "LIST_BUDGET = 200000"),
            (("orbits", "5", "14", "--labeled"), "LIST_BUDGET = 200000"),
            (("orbits", "2", "15", "--labeled", "--format", "json"), "LIST_BUDGET = 200000"),
            (("veech", "A:3", "--mult", "5,5,5"), "--mult applies to --inter only"),
            (("veech", "A:3", "--inter", "(1,1,1),(2,1,1)"), "not both"),
            (("veech", "c=1;d=1;inter=(1,1,1)", "--mult", "2,2"), "applies to --inter only"),
            (("blocks", "vertices=-3", "--level", "5"), "invalid vertex count '-3'"),
            (("veech", "c=1; d=1; inter=(2,2,1),(1,1,1),(1,2,1)"), "c=1 does not match"),
            (("veech", "c=-4; d=0; inter=(1,1,1),(2,1,1)"), "c=-4 does not match"),
            (("veech", "c=3; d=1; inter=(1,1,1),(2,1,1)"), "c=3 does not match"),
            (("veech", "c=2; d=3; inter=(1,1,1),(2,1,1)"), "d=3 does not match"),
            (("veech", "c=2000; inter=(1,1,1)"), "VERTEX_BUDGET = 2000"),
            (("veech", "--inter", "-"), "no intersections given"),  # empty stdin
            (("orbits", "1", "1000000000", "--labeled"), "LIST_BUDGET = 200000"),
            (("orbits", "0", str(10**30), "--labeled"), "LIST_BUDGET = 200000"),
            (("orbits", str(10**30), "0"), "LIST_BUDGET = 200000"),
            (("veech", "--inter", ""), "no intersections given"),
            (("veech", "inter=(1,1,1); mult=1,1; mult=2,2"), "repeated section 'mult'"),
            (("veech", "inter=(1,1,1); inter=(1,2,1)"), "repeated section 'inter'"),
            (("veech", "c=1; d=1; inter=(1,1,1); d=1"), "repeated section 'd'"),
            (
                ("blocks", "vertices=1; vertices=2; edges=1-2,1-2,1-2", "--level", "5"),
                "repeated section 'vertices' at position 11",
            ),
            (
                ("blocks", "vertices=2; edges=1-2; edges=1-2,1-2", "--level", "5"),
                "repeated section 'edges' at position 22",
            ),
            (("veech", "--inter", f"(1,1,{'9' * 5000})"), "numeral too long"),
            (("veech", "--inter", f"({'9' * 5000},1,1)"), "numeral too long"),
            (("veech", f"inter=(1,1,{'9' * 5000})"), "numeral too long"),
            (("certify", "1_0"), "invalid level range '1_0'"),
            (("certify", "+7"), "invalid level range '+7'"),
            (("certify", "\u0661..\u0663"), "invalid level range"),
            (("veech", "A:+4"), "invalid family size '+4'"),
            (("orbits", "1_0", "0"), "invalid numeral value: '1_0'"),
            (("blocks", "tadpole", "--tail", "0_2", "--level", "7"), "invalid numeral value"),
            (("veech", "--inter", "(\u0661,1,1)"), "invalid intersection token at position 0"),
            (("veech", "--inter", "(1,1,1 0)"), "invalid intersection token at position 0"),
            (("veech", "--inter", "(1 2,1,1),(1,1,1)"), "invalid intersection token"),
            (("veech", "--inter", "(1,1,1)", "--mult", "1_0,1"), "invalid multiplicity list"),
            (("veech", "c=1; d=1; inter=(1,1,1); e=1; f=2"), "unknown section 'e' at position 24"),
            (("veech", "c=1; d=1_0; inter=(1,1,1)"), "invalid side size d='1_0'"),
            (
                ("blocks", "vertices=1; edges=1-1; tails=1:+2", "--level", "7"),
                "invalid tail token '1:+2'",
            ),
            (("blocks", "vertices=\u0662; edges=1-2", "--level", "7"), "invalid vertex count"),
            # reading errors keep argparse's phrases
            (("orbits", "x", "0"), "argument g: invalid numeral value: 'x'"),
            (("blocks", "tadpole"), "the following arguments are required: --level"),
            (("orbits",), "the following arguments are required: g, n"),
            (("certify", "-5..3"), "the following arguments are required: levels"),
            ((), "the following arguments are required: command"),
            (("nosuch",), "argument command: invalid choice: 'nosuch'"),
            (("--format", "xml", "certify", "7"), "argument --format: invalid choice: 'xml'"),
            (("certify", "7", "8", "--bogus"), "unrecognized arguments: 8 --bogus"),
            (("certify", "7", "--quiet=x"), "argument --quiet: ignored explicit argument 'x'"),
            (("veech", "--inter"), "argument --inter: expected one argument"),
            (("--help", "--=x"), "ambiguous option: --=x could match --help, --format, --quiet"),
        ],
    )
    def test_bad_input_exits_2_at_once_without_traceback(
        self, capsys, monkeypatch, argv, message
    ):
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert message in err
        assert "Traceback" not in err
        assert elapsed < 0.5

    def test_point_budget_counts_listed_triples(self):
        """Zero-count triples add no points, yet each one listed is parsed."""
        for inter in ("(1,1,1)" + ",(1,1,0)" * 20000, ",".join(["(1,1,0)"] * 20001)):
            start = time.perf_counter()
            code, _, err = run_quietly(["veech", "--inter", inter])
            assert time.perf_counter() - start < 0.5
            assert (code, "POINT_BUDGET = 20000 listed triples" in err) == (EXIT_USAGE, True)
        code, out, err = run_quietly(["veech", "--inter", ",".join(["(1,1,1)"] * 20000)])
        assert (code, err) == (EXIT_OK, "")
        assert "20000 rectangles" in out

    @pytest.mark.parametrize("tail", [",", " ", "\n,"])
    @pytest.mark.parametrize("form", ["--inter", "inter="])
    def test_trailing_commas_and_blanks_are_read_at_once(self, form, tail):
        inter = "(1,1,1)" + tail * (10**5 // len(tail))
        argv = ["veech", "--inter", inter] if form == "--inter" else ["veech", "inter=" + inter]
        start = time.perf_counter()
        code, out, err = run_quietly(argv)
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (EXIT_OK, "")
        assert "1 rectangles" in out

    def test_range_budget_edge_at_the_parser(self):
        assert cli._parse_level_range(f"1..{cli.RANGE_BUDGET}") == (1, cli.RANGE_BUDGET)
        assert cli._parse_level_range("5..100004") == (5, 100004)
        with pytest.raises(cli.UsageError, match="RANGE_BUDGET"):
            cli._parse_level_range("5..100005")

    @pytest.mark.parametrize(
        "argv",
        [
            ("veech", "--inter", COMPLETE_64 + ",(65,1,1)"),
            ("veech", f"inter={COMPLETE_64},(1,65,1)"),
            ("veech", "--inter", COMPLETE_141),
        ],
        ids=["K64_64_plus_c", "K64_64_plus_d", "K141_141"],
    )
    def test_dense_graph_is_dominant_at_once(self, argv):
        start = time.perf_counter()
        code, out, err = run_quietly(["--format", "json", *argv])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, err
        assert '"graph_class": "dominant"' in out
        assert elapsed < 0.5

    def test_inter_list_over_the_argument_limit_reads_from_stdin(self):
        # the K141,141 list is longer than one command-line argument may be on Linux
        assert len(COMPLETE_141) > 131072
        proc = subprocess.run(
            [sys.executable, "-m", "quantcert.cli", "--format", "json", "veech", "--inter", "-"],
            input=f"\n {COMPLETE_141}\n",
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            text=True,
            timeout=60,
        )
        argv = ["--format", "json", "veech", "--inter", COMPLETE_141]
        assert (proc.returncode, proc.stdout, proc.stderr) == run_quietly(argv)

    @pytest.mark.parametrize("between", ["\n", "\t"])
    def test_inter_list_from_stdin_may_span_lines(self, monkeypatch, between):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"(1,1,1),{between}(1,2,1){between}"))
        code, out, err = run_quietly(["veech", "--inter", "-", "--format", "json"])
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["results"]["k"] == 2

    def test_closed_stdout_ends_the_output_not_the_command(self):
        """``certify 1..3000 | head -1``: the 187 KB table outgrows the pipe,
        so the command is still writing when the reader closes it."""
        with subprocess.Popen(
            [sys.executable, "-m", "quantcert.cli", "certify", "1..3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first.startswith(b"p=1 ")
        assert (code, err) == (EXIT_OK, b"")

    def test_dense_graph_parses_without_a_pair_budget(self):
        from quantcert import veech
        from quantcert.errors import DisconnectedGraph

        graph = veech.parse_intersections(COMPLETE_64 + ",(65,1,1)")
        assert (graph.m, graph.k) == (65, 64)
        graph = veech.parse_intersections(f"{COMPLETE_64},(1,1,2),(64,64,1)")
        assert graph.points[0] == (0, 0, 3)
        with pytest.raises(DisconnectedGraph, match="not connected"):
            veech.parse_intersections(COMPLETE_64 + ",(65,1,0)")

    @pytest.mark.parametrize("level", [1 << 40, 3 << 40, 5 << 40])
    def test_even_route_level_certifies_at_once(self, level):
        start = time.perf_counter()
        code, out, err = run_quietly(["--format", "json", "certify", str(level)])
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, err
        assert json.loads(out)["results"][0]["route"] == "even_coxeter"
        assert elapsed < 0.5


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


#: Levels -5..3000; the even-route levels 2^a * {1, 3, 5} are rare, so they
#: are also drawn by name, for a up to 200.
LEVELS = st.integers(-5, 3000) | st.sampled_from(
    [c << a for a in range(2, 201) for c in (1, 3, 5)]
)


class TestContractProperty:
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(lo=LEVELS, hi=LEVELS, as_range=st.booleans())
    def test_certify_exits_0_or_2_with_consistent_output(self, lo, hi, as_range):
        if as_range:
            argv = ["--format", "json", "certify", f"{lo}..{hi}"]
        else:
            argv = ["certify", str(lo)]
        code, out, err = run_quietly(argv)
        assert code in (EXIT_OK, EXIT_USAGE)
        assert "Traceback" not in err
        if code != EXIT_OK:
            return
        if as_range:
            doc = json.loads(out)
            assert json.dumps(doc, sort_keys=True, indent=2) == out.rstrip("\n")
            for cert in doc["results"]:
                if cert["route"] == "even_coxeter":
                    assert cert["signature"] == [4, 1]
        else:
            for line in out.splitlines():
                if "even_coxeter" in line:
                    assert "signature (4, 1)" in line

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(g=st.integers(-2, 30), n=st.integers(-2, 30), labeled=st.booleans())
    def test_orbits_exits_0_or_2_with_consistent_json(self, g, n, labeled):
        argv = ["--format", "json", "orbits", str(g), str(n)] + (["--labeled"] if labeled else [])
        code, out, err = run_quietly(argv)
        assert code in (EXIT_OK, EXIT_USAGE)
        assert "Traceback" not in err
        if code == EXIT_OK:
            result = json.loads(out)["results"]
            assert result["count"] == len(result["orbits"])


SRC = Path(__file__).resolve().parent.parent / "src"

#: one process, in order: each request's flags must not reach the next
JSON_BEFORE = ["--format", "json", "certify", "7"]
TABLE = ["certify", "7"]
QUIET = ["--quiet", "certify", "7"]
READ_ERROR = ["orbits", "x", "3"]
HELP = ["--help"]
USAGE_ERROR = ["certify", "0"]
TAIL_JSON_AFTER = ["blocks", "tadpole", "--tail", "2", "--level", "16", "--format", "json"]
GRAPH_NO_TAIL = ["blocks", "vertices=2; edges=1-2,1-2,1-2", "--level", "5"]
SEQUENCE = [
    JSON_BEFORE, TABLE, READ_ERROR, QUIET, TABLE, HELP, USAGE_ERROR,
    TAIL_JSON_AFTER, GRAPH_NO_TAIL, JSON_BEFORE, QUIET, GRAPH_NO_TAIL, TABLE,
]


def fresh_process_results(argvs, env):
    """(exit code, stdout, stderr) of each distinct argv in its own new interpreter."""
    procs = {
        argv: subprocess.Popen(
            [sys.executable, "-m", "quantcert.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        for argv in dict.fromkeys(map(tuple, argvs))
    }
    results = {}
    for argv, proc in procs.items():
        out, err = proc.communicate(timeout=60)
        results[argv] = (proc.returncode, out, err)
    return results


class TestSharedParser:
    def test_requests_carry_no_state(self, monkeypatch):
        # the fresh processes are the oracle: none has served an earlier request
        env = dict(os.environ, PYTHONPATH=str(SRC))
        expected = fresh_process_results(SEQUENCE, env)
        assert len(expected) == 8
        for argv in SEQUENCE:
            assert run_quietly(argv) == expected[tuple(argv)], argv


#: the argparse parser the reader replaced; parse_args leaves it unchanged
ORACLE = build_parser()
#: every flag, its unique prefixes (--l is --level in blocks and --labeled in
#: orbits), its =value form, and -h with text joined on
FLAG_TOKENS = [
    "-h", "--help", "--he", "-hh", "-hx", "-h=h", "-h=", "--help=x",
    "--format", "--form", "--f", "--format=json", "--fo=table", "--format=xml", "--format=",
    "--quiet", "--q", "--quiet=x", "--qu=",
    "--tail", "--ta", "--t", "--tail=2", "--t=-1", "--tail=1_0",
    "--level", "--le", "--l", "--level=7", "--lev=16", "--level=",
    "--labeled", "--lab", "--labeled=",
    "--inter", "--in", "--inter=(1,1,3)", "--i=(1,1,2)", "--inter=",
    "--mult", "--mu", "--mult=1,1", "--m=2,1",
    "--bogus", "--=x",
]
#: values: the subcommands, names padded with blanks, numerals good,
#: negative and malformed, and the tokens that start with -
VALUE_TOKENS = [
    "certify", "blocks", "veech", "orbits", " certify", "orbits ", "nosuch",
    "json", "table", "tadpole", " tadpole", "tadpole ", "A:3", " A:3", "(1,1,3)", "1,1",
    "vertices=2; edges=1-2,1-2,1-2", "1..5", "7", "16", "2", "3", "0", " 5", "4 ",
    "-1", "-5", "-1.5", "1_0", "-1_0", "x", "+7", "-5..3", "-x", "-", "--", "",
]
READER_TOKENS = st.sampled_from(FLAG_TOKENS + VALUE_TOKENS)
#: per subcommand, the values drawn for each of its positionals in order
POSITIONAL_VALUES = {
    "certify": [["7", "1..5", "-1", "1_0", "-5..3"]],
    "blocks": [["tadpole", " tadpole", "vertices=2; edges=1-2,1-2,1-2", "-"]],
    "veech": [["A:3", " A:3", "-1.5", "c=1; d=1; inter=(1,1,2)"]],
    "orbits": [["3", "-1", "x", "0"], ["2", " 5", "4 ", "-5", "+7"]],
}
#: per subcommand (None: before it), option forms: flag and value, flag=value, prefixes
OPTION_FORMS = {
    None: [["--format", "json"], ["--format=table"], ["--f", "json"], ["--quiet"], ["--q"]],
    "certify": [],
    "blocks": [["--tail", "2"], ["--t=-1"], ["--level", "16"], ["--le=7"], ["--l", "9"]],
    "veech": [["--inter", "(1,1,3)"], ["--in=-"], ["--inter", "-"], ["--mult", "1,1"], ["--m=2"]],
    "orbits": [["--labeled"], ["--lab"], ["--l"]],
}


@st.composite
def reader_argvs(draw):
    """A request assembled from its parts (options before the subcommand,
    then its positionals in order with options drawn in between), with up
    to two tokens inserted, replaced or deleted."""
    command = draw(st.sampled_from(list(POSITIONAL_VALUES)))
    forms = st.sampled_from(OPTION_FORMS[None] + OPTION_FORMS[command])
    pieces = [[draw(st.sampled_from(values))] for values in POSITIONAL_VALUES[command]]
    for piece in draw(st.lists(forms, max_size=3)):
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    head = draw(st.lists(st.sampled_from(OPTION_FORMS[None]), max_size=2))
    argv = [*itertools.chain(*head), command, *itertools.chain(*pieces)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert" or at == len(argv):
            argv.insert(at, draw(READER_TOKENS))
        elif edit == "replace":
            argv[at] = draw(READER_TOKENS)
        else:
            del argv[at]
    return argv


def oracle_read(argv):
    """(exit code, namespace) of ``argv`` under the argparse oracle; the
    namespace is None when it exits, on an error (2) or after help (0)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return EXIT_OK, vars(ORACLE.parse_args(argv))
        except SystemExit as exc:
            return exc.code, None


class TestReaderMatchesArgparse:
    @settings(derandomize=True, database=None, max_examples=3000, deadline=None)
    @given(argv=reader_argvs())
    def test_same_namespace_or_exit_2(self, argv):
        """Where the oracle accepts, the reader gives the same namespace;
        where it prints help, so does the reader; where it exits 2, so does
        ``main``.  argparse stores an empty list for a positional whose one
        token is a second ``--``; the reader keeps the text ``--``, which no
        subcommand accepts."""
        code, namespace = oracle_read(argv)
        if namespace is not None and [] not in namespace.values():
            assert vars(cli._read(argv)) == namespace
            return
        if namespace is None and code == EXIT_OK:
            assert isinstance(cli._read(argv), str)
        with mock.patch.object(sys, "stdin", io.StringIO("(1,1,1)")):  # for --inter -
            reply = run_quietly(argv)
        assert reply[0] == (code if namespace is None else EXIT_USAGE)
        assert "Traceback" not in reply[2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "7", "--format", "json"],
            ["--format", "json", "certify", "7", "--format", "table"],
            ["--quiet", "--format=json", "orbits", "3", "--l", "2", "--q"],
            ["blocks", "--le", "16", "tadpole", "--t=2", "--fo", "json"],
            ["veech", "--inter", "-", "--mult=1,2"],
            ["veech", "--in=(1,1,1)", "--"],
            ["orbits", "-1", "5"],
            ["certify", "--", "-5..3"],
            ["orbits", "3", "2", "--"],
        ],
    )
    def test_accepted_forms(self, argv):
        code, namespace = oracle_read(argv)
        assert code == EXIT_OK
        assert vars(cli._read(argv)) == namespace

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format=--", "certify", "7"],
            ["blocks", "tadpole", "--tail=--", "--level", "7"],
            ["veech", "--inter=--"],
            ["orbits", "3", "--", "--"],
        ],
    )
    def test_a_value_dashdash_stays_text(self, argv):
        """argparse drops the ``--`` of ``--flag=--``, or a positional's one
        token ``--`` after the first, and stores an empty list: a table for
        ``--format=--``, a TypeError traceback for the others.  The reader
        keeps the text, which no argument accepts."""
        assert [] in oracle_read(argv)[1].values()
        code, _, err = run_quietly(argv)
        assert (code, "Traceback" in err) == (EXIT_USAGE, False)
        assert "'--'" in err

    @pytest.mark.parametrize("argv", [["-h"], ["--he", "certify"], ["veech", "A:3", "-hh"]])
    def test_help_prints_static_usage(self, argv):
        code, out, err = run_quietly(argv)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("usage: quantcert")
        assert "--flag=value" in out


def check_contract(argv):
    """Exit 0 or 2, no traceback, and JSON that round-trips byte for byte;
    returns the exit code and stdout."""
    code, out, err = run_quietly(argv)
    assert code in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in err
    if code == EXIT_OK and "json" in argv:
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) == out.rstrip("\n")
    return code, out


def with_format(command, args, where):
    if where == "before":
        return ["--format", "json", command, *args]
    if where == "after":
        return [command, *args, "--format", "json"]
    return [command, *args]


FORMAT_PLACES = st.sampled_from(["before", "after", "table"])
SMALL = st.integers(-2, 12)
SIZE_TEXT = st.integers(-3, 40).map(str) | st.sampled_from(["x", "", "2.5", "2001", "99999999999"])

FAMILY_SPECS = st.builds(
    "{}:{}".format, st.sampled_from(["A", "D", "E", "cycle", "star"]), st.integers(1, 40)
) | st.builds(
    "{}{}{}".format,
    st.sampled_from(["A", "D", "E", "cycle", "star", "F", "", " A"]),
    st.sampled_from([":", " : ", "", "::"]),
    SIZE_TEXT,
)
TRIPLES = st.lists(
    st.builds("({},{},{})".format, st.integers(0, 6), st.integers(0, 6), st.integers(0, 4))
    | st.sampled_from(["(1,1)", "(a,1,1)", "1,1,1", "(1,1,1", "(-1,1,1)", "( 1 , 2 , 2 )", ""]),
    max_size=8,
).map(",".join)
MULTS = st.lists(SMALL.map(str) | st.sampled_from(["x", "", "10000000"]), max_size=9).map(",".join)


@st.composite
def connected_intersections(draw):
    """A connected m x k pattern (row 1 and column 1 full) plus extra counts,
    with matching multiplicities, the default, or a drawn list."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    pairs = [(i, 1) for i in range(1, m + 1)] + [(1, j) for j in range(2, k + 1)]
    triples = [(i, j, draw(st.integers(1, 3))) for i, j in pairs]
    extra = st.tuples(st.integers(1, m), st.integers(1, k), st.integers(0, 3))
    triples += draw(st.lists(extra, max_size=6))
    inter = ",".join(f"({i},{j},{c})" for i, j, c in triples)
    matching = st.lists(st.integers(1, 4), min_size=m + k, max_size=m + k)
    mult = draw(st.none() | matching.map(lambda x: ",".join(map(str, x))) | MULTS)
    if draw(st.booleans()):
        return ["--inter", inter] + ([] if mult is None else ["--mult", mult])
    return [f"c={m}; d={k}; inter={inter}" + ("" if mult is None else f"; mult={mult}")]


VEECH_ARGS = st.one_of(
    FAMILY_SPECS.map(lambda spec: [spec]),
    connected_intersections(),
    st.builds(
        lambda c, d, inter, mult: [f"c={c}; d={d}; inter={inter}; mult={mult}"],
        SIZE_TEXT, SIZE_TEXT, TRIPLES, MULTS,
    ),
    st.builds(lambda inter, mult: ["--inter", inter, "--mult", mult], TRIPLES, MULTS),
    st.builds(lambda inter: [f"inter={inter}; e=1"], TRIPLES),
    st.just([]),
)

COLOR = st.integers(-2, 14)
TRIVALENT_SPECS = st.one_of(
    st.sampled_from(
        [
            "vertices=2; edges=1-2,1-2,1-2",
            "vertices=2; edges=1-1,1-2,2-2",
            "vertices=4; edges=1-2,1-3,1-4,2-3,2-4,3-4",
            "vertices=1; edges=1-1; tails=1:2",
            "vertices=2; edges=1*2",
            "edges=1-2",
            "vertices=x",
            "vertices=101",
        ]
    ),
    st.builds("vertices=1; tails=1:{},1:{},1:{}".format, COLOR, COLOR, COLOR),
    st.builds("vertices=2; edges=1-2,1-2; tails=1:{},2:{}".format, COLOR, COLOR),
    st.builds(
        "vertices=2; edges=1-2; tails=1:{},1:{},2:{},2:{}".format, COLOR, COLOR, COLOR, COLOR
    ),
    st.builds(
        "vertices={}; edges={}".format,
        st.integers(-1, 6),
        st.lists(st.builds("{}-{}".format, st.integers(0, 7), st.integers(0, 7)), max_size=9).map(
            ",".join
        ),
    ),
)
LEVEL = st.integers(3, 40) | st.sampled_from([-3, 0, 801])
BLOCKS_ARGS = st.one_of(
    st.builds(
        lambda tail, level: ["tadpole", "--tail", str(tail), "--level", str(level)],
        st.integers(-3, 30),
        LEVEL | st.just(800),
    ),
    st.builds(lambda graph, level: [graph, "--level", str(level)], TRIVALENT_SPECS, LEVEL),
    st.builds(
        lambda graph, tail, level: [graph]
        + ([] if tail is None else ["--tail", str(tail)])
        + ([] if level is None else ["--level", level]),
        st.just("tadpole") | TRIVALENT_SPECS,
        st.none() | st.integers(-3, 30),
        st.none() | LEVEL.map(str) | st.just("x"),
    ),
)


class TestVeechBlocksProperty:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(args=VEECH_ARGS, where=FORMAT_PLACES)
    def test_veech_exits_0_or_2_with_consistent_json(self, args, where):
        check_contract(with_format("veech", args, where))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(args=BLOCKS_ARGS, where=FORMAT_PLACES)
    def test_blocks_exits_0_or_2_with_consistent_json(self, args, where):
        check_contract(with_format("blocks", args, where))


#: one valid request per input form: a level range, the tadpole flags, a
#: trivalent graph spec, a family, a configuration spec, --inter with
#: --mult, and a surface
FUZZ_REQUESTS = [
    ("certify", "3..9"),
    ("blocks", "tadpole", "--tail", "2", "--level", "16"),
    ("blocks", "vertices=2; edges=1-2,1-2; tails=1:2,2:2", "--level", "9"),
    ("veech", "star:4"),
    ("veech", "c=2; d=1; inter=(1,1,1),(2,1,2); mult=1,2,1"),
    ("veech", "--inter", "(1,1,1),(2,1,2)", "--mult", "1,2,1"),
    ("orbits", "3", "2", "--labeled"),
]
#: numerals, words, the range dots, and any other single character
FUZZ_TOKEN = re.compile(r"[0-9]+|[A-Za-z]+|\.\.|.", re.S)
SEPARATORS = (";", ",", ":", "-", "=", "..")
NUMERAL_SWAPS = ["0", "-1", "+1", "1_0", "\u0661", "1 0", "9" * 5000]
#: swaps that the numeral rule refuses wherever they stand
NOT_NUMERALS = {"+1", "1_0", "\u0661", "1 0"}


@st.composite
def mutated_requests(draw):
    """A valid request with one token-level change in one argument: a blank
    inserted between two tokens, a section repeated, a separator dropped, or
    a numeral swapped.  Returns the request, the changed argv, the kind of
    change and the swapped-in text."""
    request = draw(st.sampled_from(FUZZ_REQUESTS))
    argv = list(request)
    n = draw(st.sampled_from([n for n, arg in enumerate(argv) if n and re.search("[0-9]", arg)]))
    tokens = FUZZ_TOKEN.findall(argv[n])
    numerals = [t for t, tok in enumerate(tokens) if tok.isdigit()]
    separators = [t for t, tok in enumerate(tokens) if tok in SEPARATORS]
    kinds = ["swap"] + ["blank"] * (len(tokens) > 1)
    kinds += ["drop"] * bool(separators) + ["repeat"] * ("=" in argv[n])
    kind, swap = draw(st.sampled_from(kinds)), None
    if kind == "swap":
        swap = draw(st.sampled_from(NUMERAL_SWAPS))
        tokens[draw(st.sampled_from(numerals))] = swap
    elif kind == "blank":
        tokens.insert(draw(st.integers(1, len(tokens) - 1)), draw(st.sampled_from(" \t\n")))
    elif kind == "drop":
        del tokens[draw(st.sampled_from(separators))]
    else:
        tokens.append(";" + draw(st.sampled_from(argv[n].split(";"))))
    argv[n] = "".join(tokens)
    return request, argv, kind, swap


class TestInputGrammarFuzz:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(case=mutated_requests())
    def test_token_mutations_keep_the_contract(self, case):
        request, argv, kind, swap = case
        code, out = check_contract([*argv, "--format", "json"])
        if kind == "blank":
            base_code, base_out = check_contract([*request, "--format", "json"])
            assert code == base_code == EXIT_OK
            assert json.loads(out)["results"] == json.loads(base_out)["results"]
        elif kind == "repeat" or swap in NOT_NUMERALS:
            assert code == EXIT_USAGE
