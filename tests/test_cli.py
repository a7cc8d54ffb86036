import argparse
import contextlib
import enum
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantcert import cli
from quantcert.cli import EXIT_OK, EXIT_USAGE, main


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
            (("orbits", "2", "x"), "invalid int value"),
            (("veech", "--inter", "(1,1,99999999999999999999)"), "POINT_BUDGET = 20000"),
            (("veech", "--inter", "(1,1,300000)"), "POINT_BUDGET = 20000"),
            (("veech", "--inter", "(1,1,1)", "--mult", "1,10000000"), "MULTIPLICITY_CAP"),
            (("blocks", "vertices=300000", "--level", "7"), "VERTEX_BUDGET = 100"),
            (("blocks", "vertices=1000000000", "--level", "7"), "VERTEX_BUDGET = 100"),
            (("blocks", "tadpole", "--tail", "0", "--level", "801"), "LEVEL_BUDGET = 800"),
            (("blocks", "vertices=100", "--level", "7"), "and 95 more"),
            (("certify", "1..100001"), "RANGE_BUDGET = 100000"),
            (("certify", "1..1000000000"), "RANGE_BUDGET = 100000"),
            (("orbits", "1", "16", "--labeled"), "PAIR_BUDGET = 100000"),
            (("orbits", "1", "18", "--labeled"), "PAIR_BUDGET = 100000"),
            (("orbits", "2000", "2000"), "PAIR_BUDGET = 100000"),
            (("orbits", "5", "14", "--labeled"), "LABEL_BUDGET = 500000"),
            (("orbits", "2", "15", "--labeled", "--format", "json"), "LABEL_BUDGET = 500000"),
        ],
    )
    def test_bad_input_exits_2_at_once_without_traceback(self, capsys, argv, message):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects a non-integer itself
            code = exc.code
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert message in err
        assert "Traceback" not in err
        assert elapsed < 0.5

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

    def test_dense_graph_parses_without_a_pair_budget(self):
        from quantcert import veech
        from quantcert.errors import GraphParseError

        graph = veech.parse_intersections(COMPLETE_64 + ",(65,1,1)")
        assert (graph.m, graph.k) == (65, 64)
        graph = veech.parse_intersections(f"{COMPLETE_64},(1,1,2),(64,64,1)")
        assert graph.intersections[0][0] == 3
        with pytest.raises(GraphParseError, match="not connected"):
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects "-5..3" as an option
            code = exc.code
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
ARGPARSE_ERROR = ["orbits", "x", "3"]
HELP = ["--help"]
USAGE_ERROR = ["certify", "0"]
TAIL_JSON_AFTER = ["blocks", "tadpole", "--tail", "2", "--level", "16", "--format", "json"]
GRAPH_NO_TAIL = ["blocks", "vertices=2; edges=1-2,1-2,1-2", "--level", "5"]
SEQUENCE = [
    JSON_BEFORE, TABLE, ARGPARSE_ERROR, QUIET, TABLE, HELP, USAGE_ERROR,
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
    def test_main_builds_no_parser(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        requests = SEQUENCE + [
            ["veech", "A:3"],
            ["veech", "--inter", "(1,1,3)", "--mult", "1,1", "--format", "json"],
            ["orbits", "3", "2", "--labeled"],
            ["blocks", "tadpole", "--level", "7"],
            ["certify", "--help"],
            ["nosuchcommand"],
            ["certify", "1..40", "--quiet", "--format", "table"],
        ]
        for argv in requests:
            assert run_quietly(argv)[0] in (EXIT_OK, EXIT_USAGE)
        assert len(requests) >= 20
        assert built == []

    def test_requests_carry_no_state(self, monkeypatch):
        # the fresh processes are the oracle: none has served an earlier request
        monkeypatch.setenv("COLUMNS", "80")  # the same help layout in and out of process
        env = dict(os.environ, PYTHONPATH=str(SRC))
        expected = fresh_process_results(SEQUENCE, env)
        assert len(expected) == 8
        for argv in SEQUENCE:
            assert run_quietly(argv) == expected[tuple(argv)], argv


def check_contract(argv):
    """Exit 0 or 2, no traceback, and JSON that round-trips byte for byte."""
    code, out, err = run_quietly(argv)
    assert code in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in err
    if code == EXIT_OK and "json" in argv:
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) == out.rstrip("\n")
    return code


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
