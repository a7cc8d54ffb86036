import json

import pytest

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
