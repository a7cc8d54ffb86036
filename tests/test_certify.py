import math
from fractions import Fraction

import pytest

from oracles import eigenvalue_turns, odd_block, selector_window
from quantcert import certify
from quantcert.certify import (
    FORM_INDEFINITE_ON_SPAN,
    ROUTE_EVEN,
    ROUTE_ODD,
    ROUTE_UNCERTIFIED,
    SCALAR_OBSTRUCTED,
    SURVIVES,
    certify_level,
    eigenvalue_tuple,
    even_certificate,
    odd_certificate,
    odd_part,
    scalar_obstruction,
)
from quantcert.errors import InvariantViolation, NonPrimitiveRoot
from quantcert.roots import twist_exponent


def closed_form_tuple(p, ell):
    """(-z^4, z, 1, -z, -z^4) with z = A^(2k+1), as exponents of zeta_2p, by hand."""
    k = p // 4
    n, e = 2 * p, ell * (2 * k + 1)  # -1 = zeta_2p^p
    return tuple(x % n for x in (4 * e + p, e, 0, e + p, 4 * e + p))


def minus_parameter_order(turn):
    """Order of the negated Burau parameter, from its turn."""
    return ((turn + Fraction(1, 2)) % 1).denominator


class TestEigenvalueTuple:
    def test_middle_eigenvalue_is_one(self):
        lams = eigenvalue_tuple(16, 1)
        assert lams[2] == 0

    def test_lambda0_value(self):
        # zeta = zeta_32^9; -zeta^4 = zeta_32^(36 + 16) = zeta_32^20
        lams = eigenvalue_tuple(16, 1)
        assert lams[0] == 20

    def test_ends_agree_everywhere(self):
        for p in (16, 20, 28, 40):
            for ell in (1, 3, 7):
                if math.gcd(ell, 2 * p) != 1:
                    continue
                lams = eigenvalue_tuple(p, ell)
                assert lams[0] == lams[4]

    def test_product_power_identity(self):
        """(lambda_0 ... lambda_4)^6 = zeta^60 as an exponent identity mod 2p."""
        for p in (16, 20, 28, 40, 48):
            for ell in (1, 7, 11):
                if math.gcd(ell, 2 * p) != 1:
                    continue
                lams = eigenvalue_tuple(p, ell)
                assert (6 * sum(lams) - 60 * lams[1]) % (2 * p) == 0

    def test_rescaling_root_is_primitive(self):
        # gcd(8k, 2k+1) = 1, so zeta = A^(2k+1) is again primitive of order 2p
        for k in range(1, 61):
            assert math.gcd(8 * k, 2 * k + 1) == 1
            p = 4 * k
            if k >= 4:
                assert math.gcd(eigenvalue_tuple(p, 1)[1], 2 * p) == 1

    def test_matches_closed_form_for_every_primitive_selector(self):
        for p in range(16, 201, 4):
            for ell in range(1, 2 * p, 2):
                if math.gcd(ell, 2 * p) == 1:
                    assert eigenvalue_tuple(p, ell) == closed_form_tuple(p, ell)

    def test_matches_closed_form_at_the_first_window_selector(self):
        for p in range(16, 2001, 4):
            ell = selector_window(p)[0]
            assert eigenvalue_tuple(p, ell) == closed_form_tuple(p, ell)

    def test_matches_the_turn_oracle(self):
        """Each exponent e in 0..2p-1 is the turn e/2p of the angle oracle."""
        for p in range(16, 2001, 4):
            for ell in {1, selector_window(p)[0], p // 2 - 1, 2 * p - 1}:
                lams = eigenvalue_tuple(p, ell)
                assert all(0 <= e < 2 * p for e in lams)
                assert tuple(Fraction(e, 2 * p) for e in lams) == eigenvalue_turns(p, ell)

    @pytest.mark.parametrize("p", [12, 8, 4, 18, 30, 17])
    def test_level_must_be_4k_with_k_at_least_4(self, p):
        with pytest.raises(ValueError):
            eigenvalue_tuple(p, 1)

    @pytest.mark.parametrize("ell", [0, 2, 4, 16, 34])
    def test_selector_must_be_primitive(self, ell):
        with pytest.raises(NonPrimitiveRoot):
            eigenvalue_tuple(16, ell)

    def test_even_certificate_builds_the_tuple_once(self, monkeypatch):
        calls = []
        real = certify.eigenvalue_tuple

        def counting(p, ell):
            calls.append((p, ell))
            return real(p, ell)

        monkeypatch.setattr(certify, "eigenvalue_tuple", counting)
        for p in (16, 40, 96, 200):
            calls.clear()
            assert even_certificate(p)["route"] == ROUTE_EVEN
            assert len(calls) == 1, p


def tuple_and_product(p, ell):
    """The eigenvalue tuple and the product exponent that ``scalar_obstruction`` takes."""
    lams = eigenvalue_tuple(p, ell)
    return lams, sum(lams)


class TestScalarObstruction:
    def test_singleton_identity_case(self):
        lams, product = tuple_and_product(16, 1)
        assert scalar_obstruction(16, product, (lams[2],)) == SCALAR_OBSTRUCTED

    def test_span_pattern_survives_identically(self):
        lams, product = tuple_and_product(16, 1)
        assert scalar_obstruction(16, product, (lams[0], lams[2])) == SURVIVES

    def test_double_end_pair_obstructed(self):
        lams, product = tuple_and_product(16, 1)
        assert scalar_obstruction(16, product, (lams[0], lams[4])) == SCALAR_OBSTRUCTED

    def test_middle_pair_obstructed_when_zeta60_nontrivial(self):
        lams, product = tuple_and_product(16, 1)
        assert scalar_obstruction(16, product, (lams[1], lams[3])) == SCALAR_OBSTRUCTED

    def test_all_singletons_obstructed_at_16_1(self):
        lams, product = tuple_and_product(16, 1)
        for lam in lams:
            assert scalar_obstruction(16, product, (lam,)) == SCALAR_OBSTRUCTED

    def test_pair_survivors_at_16_1_are_exactly_the_span_pattern(self):
        lams, product = tuple_and_product(16, 1)
        span = {lams[0], lams[2]}
        survivors = set()
        for i in range(5):
            for j in range(i + 1, 5):
                if scalar_obstruction(16, product, (lams[i], lams[j])) == SURVIVES:
                    survivors.add(frozenset({lams[i], lams[j]}))
        assert survivors == {frozenset(span)}

    def test_matches_the_identity_on_turns(self):
        """(prod lambda)^(6|S|) = (prod_S lambda)^30, decided on the turn oracle."""
        for p in range(16, 401, 4):
            ell = selector_window(p)[0]
            lams, product = tuple_and_product(p, ell)
            turns = eigenvalue_turns(p, ell)
            for subset in [(i,) for i in range(5)] + [
                (i, j) for i in range(5) for j in range(i, 5)
            ]:
                lhs, rhs = 6 * len(subset) * sum(turns), 30 * sum(turns[i] for i in subset)
                holds = (lhs - rhs) % 1 == 0
                want = SURVIVES if holds else SCALAR_OBSTRUCTED
                got = scalar_obstruction(p, product, tuple(lams[i] for i in subset))
                assert got == want, (p, subset)

    def test_size_validated(self):
        lams, product = tuple_and_product(16, 1)
        with pytest.raises(ValueError):
            scalar_obstruction(16, product, lams[:3])
        with pytest.raises(ValueError):
            scalar_obstruction(16, product, ())


class TestOddCertificate:
    def test_parameter_matches_closed_form(self):
        # -A^(-2) when q = 1 mod 4, -A^2 when q = 3 mod 4, with A = zeta_2q
        for q in range(7, 2000, 2):
            basis, turn = odd_block(q)
            assert turn == Fraction(q - 2 if q % 4 == 1 else q + 2, 2 * q), q
            a, b = basis
            assert Fraction(q + twist_exponent(b, q) - twist_exponent(a, q), 2 * q) % 1 == turn

    def test_p7(self):
        cert = odd_certificate(7)
        assert cert["route"] == ROUTE_ODD
        assert cert["boundary_color"] == 2
        basis, turn = odd_block(7)
        assert basis == (2, 4)
        assert minus_parameter_order(turn) == 7

    def test_p9(self):
        assert odd_certificate(9)["route"] == ROUTE_ODD
        assert odd_block(9)[0] == (2, 4)

    def test_p5_uncertified(self):
        assert odd_certificate(5)["route"] == ROUTE_UNCERTIFIED

    def test_p56_uses_odd_part_7(self):
        cert = odd_certificate(56)
        assert cert["route"] == ROUTE_ODD
        assert cert["odd_part"] == 7

    def test_minus_parameter_is_primitive_odd_part_root(self):
        for p in (7, 9, 11, 13, 14, 18, 22, 56, 112):
            cert = odd_certificate(p)
            q = odd_part(p)
            assert cert["odd_part"] == q
            assert minus_parameter_order(odd_block(q)[1]) == q

    def test_every_odd_level_to_19999_agrees_with_the_turn_oracle(self):
        """The oracle's block is 2-dimensional with -parameter of order q, and
        the certificate, which checks the same order on exponents, is odd."""
        for q in range(7, 20000, 2):
            basis, turn = odd_block(q)
            assert len(basis) == 2 and minus_parameter_order(turn) == q, q
            want = {"p": q, "route": ROUTE_ODD, "odd_part": q, "boundary_color": q - 5}
            assert odd_certificate(q) == want, q

    def test_order_check_fires_on_a_wrong_exponent(self, monkeypatch):
        monkeypatch.setattr(certify, "twist_exponent", lambda a, p, ell=1: 0)
        with pytest.raises(InvariantViolation, match="order 1, expected 7"):
            odd_certificate(7)


class TestEvenCertificate:
    def test_p16(self):
        cert = even_certificate(16)
        assert cert["route"] == ROUTE_EVEN
        assert cert["ell"] == 7
        assert cert["signature"] == [4, 1]

    def test_p12_uncertified(self):
        cert = even_certificate(12)
        assert cert["route"] == ROUTE_UNCERTIFIED

    def test_p20_uncertified_with_surviving_case(self):
        cert = even_certificate(20)
        assert cert["route"] == ROUTE_UNCERTIFIED
        assert any("survives the scalar identity" in f for f in cert["failed"])

    def test_p24_uncertified_for_lack_of_license(self):
        cert = even_certificate(24)
        assert cert["route"] == ROUTE_UNCERTIFIED
        assert any("no irreducibility assertion" in f for f in cert["failed"])

    def test_p40_certified_and_annotated(self):
        cert, notes = certify_level(40)
        assert cert["route"] == ROUTE_EVEN
        assert any("divides 120" in note for note in notes)

    def test_case_list_covers_all_distinct_submultisets(self):
        """4 singleton classes + 7 pair classes (ends coincide)."""
        cert = even_certificate(16)
        sizes = [len(c["multiset"]) for c in cert["cases"]]
        assert sizes.count(1) == 4
        assert sizes.count(2) == 7

    def test_exactly_one_span_resolution(self):
        cert, notes = certify_level(16)
        spans = [c for c in cert["cases"] if c["resolution"] == FORM_INDEFINITE_ON_SPAN]
        assert len(spans) == 1
        # the non-machine-checked step is marked
        assert len(notes) == 1 and "asserted" in notes[0]
        others = [c for c in cert["cases"] if c["resolution"] == SCALAR_OBSTRUCTED]
        assert len(others) == len(cert["cases"]) - 1

    def test_span_case_covers_every_certified_level_up_to_2000(self):
        """Only the span case ever resolves by indefiniteness."""
        uncertified = set()
        for p in range(16, 2001, 4):
            cert = even_certificate(p)
            if cert["route"] == ROUTE_UNCERTIFIED:
                uncertified.add(p)
                continue
            resolutions = [c["resolution"] for c in cert["cases"]]
            assert set(resolutions) <= {SCALAR_OBSTRUCTED, FORM_INDEFINITE_ON_SPAN}, p
            assert resolutions.count(FORM_INDEFINITE_ON_SPAN) == 1, p
        assert uncertified == {20, 24, 60}


class TestCertifyLevel:
    def test_odd_route_preferred(self):
        assert certify_level(9)[0]["route"] == ROUTE_ODD
        assert certify_level(112)[0]["route"] == ROUTE_ODD  # odd part 7

    def test_even_route_taken_when_odd_fails(self):
        assert certify_level(16)[0]["route"] == ROUTE_EVEN

    def test_uncertified_collects_reasons(self):
        cert, notes = certify_level(10)
        assert cert["route"] == ROUTE_UNCERTIFIED
        assert len(cert["failed"]) == 2  # odd part too small, not divisible by 4
        assert notes == ()

    def test_exceptional_set_1_to_200(self):
        bad = {p for p in range(1, 201) if certify_level(p)[0]["route"] == ROUTE_UNCERTIFIED}
        assert bad == {1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 24}


class TestCertificateJson:
    def test_odd_schema(self):
        doc, notes = certify_level(7)
        assert doc == {
            "p": 7,
            "route": "odd_burau",
            "odd_part": 7,
            "boundary_color": 2,
        }
        assert notes == ()

    def test_even_schema(self):
        doc = certify_level(16)[0]
        assert doc["p"] == 16
        assert doc["route"] == "even_coxeter"
        assert doc["ell"] == 7
        assert doc["signature"] == [4, 1]
        assert len(doc["cases"]) == 11
        for case in doc["cases"]:
            assert set(case) == {"multiset", "resolution"}
            assert all(isinstance(s, str) for s in case["multiset"])
            assert case["multiset"] == sorted(case["multiset"])

    def test_uncertified_schema(self):
        doc = certify_level(20)[0]
        assert doc["route"] == "uncertified"
        assert doc["failed"]
