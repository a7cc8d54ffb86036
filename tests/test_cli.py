import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestJsonDiscipline:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--format", "json", "certify", "1..20"),
            ("--format", "json", "blocks", "tadpole", "--tail", "2", "--level", "16"),
            ("--format", "json", "veech", "A:5"),
            ("--format", "json", "orbits", "4", "2", "--labeled"),
        ],
    )
    def test_round_trip_byte_identical(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert json.dumps(doc, sort_keys=True, indent=2) == out.rstrip("\n")

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
        from quantcert import cli
        from quantcert.errors import InvariantViolation

        def broken(args):
            raise InvariantViolation("synthetic fault")

        monkeypatch.setitem(cli._COMMANDS, "orbits", broken)
        code, _, err = run(capsys, "orbits", "4", "0")
        assert code == 3
        assert "internal error" in err


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
        from quantcert import cli

        assert cli._parse_level_range(f"1..{cli.RANGE_BUDGET}") == (1, cli.RANGE_BUDGET)
        assert cli._parse_level_range("5..100004") == (5, 100004)
        with pytest.raises(cli.UsageError, match="RANGE_BUDGET"):
            cli._parse_level_range("5..100005")


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects "-5..3" as an option
            code = exc.code
    return code, out.getvalue(), err.getvalue()


#: Levels -5..3000; the even-route levels 2^a * {1, 3, 5} are rare, so they
#: are also drawn by name.
LEVELS = st.integers(-5, 3000) | st.sampled_from(
    [c << a for a in range(2, 12) for c in (1, 3, 5) if c << a <= 3000]
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
