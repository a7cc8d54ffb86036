import math

import pytest

from oracles import selector_window
from quantcert import certify
from quantcert.certify import (
    FORM_INDEFINITE_ON_SPAN,
    ROUTE_EVEN,
    ROUTE_ODD,
    ROUTE_UNCERTIFIED,
    SCALAR_OBSTRUCTED,
    SURVIVES,
    UNCERTIFIABLE_LEVELS,
    certificate_to_json,
    certify_level,
    eigenvalue_tuple,
    even_certificate,
    odd_certificate,
    odd_part,
    scalar_obstruction,
)
from quantcert.errors import NonPrimitiveRoot
from quantcert.roots import RootOfUnity, is_one, root_pow


def closed_form_tuple(p, ell):
    """(-z^4, z, 1, -z, -z^4) with z = A^(2k+1), written out by hand."""
    k = p // 4
    n, e = 2 * p, ell * (2 * k + 1)  # -1 = zeta_2p^p
    return (
        RootOfUnity(n, 4 * e + p),
        RootOfUnity(n, e),
        RootOfUnity(n, 0),
        RootOfUnity(n, e + p),
        RootOfUnity(n, 4 * e + p),
    )


def assert_same_tuple(got, want):
    assert got == want
    assert [str(lam) for lam in got] == [str(lam) for lam in want]


class TestEigenvalueTuple:
    def test_middle_eigenvalue_is_one(self):
        lams = eigenvalue_tuple(16, 1)
        assert is_one(lams[2])

    def test_lambda0_value(self):
        # zeta = zeta_32^9; -zeta^4 = zeta_32^(4 + 16) = zeta_32^20
        lams = eigenvalue_tuple(16, 1)
        assert lams[0] == RootOfUnity(32, 20)

    def test_ends_agree_everywhere(self):
        for p in (16, 20, 28, 40):
            for ell in (1, 3, 7):
                if math.gcd(ell, 2 * p) != 1:
                    continue
                lams = eigenvalue_tuple(p, ell)
                assert lams[0] == lams[4]

    def test_product_power_identity(self):
        """(lambda_0 ... lambda_4)^6 = zeta^60 as an exponent identity."""
        for p in (16, 20, 28, 40, 48):
            for ell in (1, 7, 11):
                if math.gcd(ell, 2 * p) != 1:
                    continue
                lams = eigenvalue_tuple(p, ell)
                product = lams[0]
                for lam in lams[1:]:
                    product = product * lam
                zeta = lams[1]
                assert root_pow(product, 6) == root_pow(zeta, 60)

    def test_rescaling_root_is_primitive(self):
        # gcd(8k, 2k+1) = 1, so zeta = A^(2k+1) is again primitive of order 2p
        for k in range(1, 61):
            assert math.gcd(8 * k, 2 * k + 1) == 1
            p = 4 * k
            if k >= 4:
                assert eigenvalue_tuple(p, 1)[1].multiplicative_order() == 2 * p

    def test_matches_closed_form_for_every_primitive_selector(self):
        for p in range(16, 201, 4):
            for ell in range(1, 2 * p, 2):
                if math.gcd(ell, 2 * p) == 1:
                    assert_same_tuple(eigenvalue_tuple(p, ell), closed_form_tuple(p, ell))

    def test_matches_closed_form_at_the_first_window_selector(self):
        for p in range(16, 2001, 4):
            ell = selector_window(p)[0]
            assert_same_tuple(eigenvalue_tuple(p, ell), closed_form_tuple(p, ell))

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
            assert even_certificate(p).route == ROUTE_EVEN
            assert len(calls) == 1, p


class TestScalarObstruction:
    def test_singleton_identity_case(self):
        lams = eigenvalue_tuple(16, 1)
        assert scalar_obstruction(16, 1, (lams[2],)) == SCALAR_OBSTRUCTED

    def test_span_pattern_survives_identically(self):
        lams = eigenvalue_tuple(16, 1)
        assert scalar_obstruction(16, 1, (lams[0], lams[2])) == SURVIVES

    def test_double_end_pair_obstructed(self):
        lams = eigenvalue_tuple(16, 1)
        assert scalar_obstruction(16, 1, (lams[0], lams[4])) == SCALAR_OBSTRUCTED

    def test_middle_pair_obstructed_when_zeta60_nontrivial(self):
        lams = eigenvalue_tuple(16, 1)
        assert scalar_obstruction(16, 1, (lams[1], lams[3])) == SCALAR_OBSTRUCTED

    def test_all_singletons_obstructed_at_16_1(self):
        lams = eigenvalue_tuple(16, 1)
        for lam in lams:
            assert scalar_obstruction(16, 1, (lam,)) == SCALAR_OBSTRUCTED

    def test_pair_survivors_at_16_1_are_exactly_the_span_pattern(self):
        lams = eigenvalue_tuple(16, 1)
        span = {lams[0], lams[2]}
        survivors = set()
        for i in range(5):
            for j in range(i + 1, 5):
                if scalar_obstruction(16, 1, (lams[i], lams[j])) == SURVIVES:
                    survivors.add(frozenset({lams[i], lams[j]}))
        assert survivors == {frozenset(span)}

    def test_size_validated(self):
        lams = eigenvalue_tuple(16, 1)
        with pytest.raises(ValueError):
            scalar_obstruction(16, 1, lams[:3])


class TestOddCertificate:
    def test_parameter_matches_closed_form(self):
        # -A^(-2) when q = 1 mod 4, -A^2 when q = 3 mod 4, with A = zeta_2q
        for q in range(7, 2000, 2):
            want = RootOfUnity(2 * q, q - 2 if q % 4 == 1 else q + 2)
            got = odd_certificate(q).odd.burau_parameter
            assert got == want and str(got) == str(want), q

    def test_p7(self):
        cert = odd_certificate(7)
        assert cert.route == ROUTE_ODD
        assert cert.odd.boundary_color == 2
        assert cert.odd.loop_colors == (2, 4)
        assert cert.odd.minus_parameter_order == 7
        assert cert.odd.triangle_group_excluded_set_check

    def test_p9(self):
        cert = odd_certificate(9)
        assert cert.route == ROUTE_ODD
        assert cert.odd.loop_colors == (2, 4)

    def test_p5_uncertified(self):
        assert odd_certificate(5).route == ROUTE_UNCERTIFIED

    def test_p56_uses_odd_part_7(self):
        cert = odd_certificate(56)
        assert cert.route == ROUTE_ODD
        assert cert.odd.odd_part == 7

    def test_minus_parameter_is_primitive_odd_part_root(self):
        for p in (7, 9, 11, 13, 14, 18, 22, 56, 112):
            cert = odd_certificate(p)
            q = odd_part(p)
            assert cert.odd.minus_parameter_order == q
            minus = RootOfUnity(2, 1) * cert.odd.burau_parameter
            assert minus.multiplicative_order() == q


class TestEvenCertificate:
    def test_p16(self):
        cert = even_certificate(16)
        assert cert.route == ROUTE_EVEN
        assert cert.even.ell == 7
        assert cert.even.profile.signature == (4, 1)

    def test_p12_uncertified(self):
        cert = even_certificate(12)
        assert cert.route == ROUTE_UNCERTIFIED

    def test_p20_uncertified_with_surviving_case(self):
        cert = even_certificate(20)
        assert cert.route == ROUTE_UNCERTIFIED
        assert any("survives the scalar identity" in f for f in cert.failed)

    def test_p24_uncertified_for_lack_of_license(self):
        cert = even_certificate(24)
        assert cert.route == ROUTE_UNCERTIFIED
        assert any("no irreducibility assertion" in f for f in cert.failed)

    def test_p40_certified_and_annotated(self):
        cert = even_certificate(40)
        assert cert.route == ROUTE_EVEN
        assert any("divides 120" in note for note in cert.even.notes)

    def test_case_list_covers_all_distinct_submultisets(self):
        """4 singleton classes + 7 pair classes (ends coincide)."""
        cert = even_certificate(16)
        sizes = [len(c.eigen_multiset) for c in cert.even.cases]
        assert sizes.count(1) == 4
        assert sizes.count(2) == 7

    def test_exactly_one_span_resolution(self):
        cert = even_certificate(16)
        spans = [c for c in cert.even.cases if c.resolution == FORM_INDEFINITE_ON_SPAN]
        assert len(spans) == 1
        assert "asserted" in spans[0].note  # the non-machine-checked step is marked
        others = [c for c in cert.even.cases if c.resolution == SCALAR_OBSTRUCTED]
        assert len(others) == len(cert.even.cases) - 1

    def test_span_case_covers_every_certified_level_up_to_2000(self):
        """Only the span case ever resolves by indefiniteness."""
        uncertified = set()
        for p in range(16, 2001, 4):
            cert = even_certificate(p)
            if not cert.certified:
                uncertified.add(p)
                continue
            resolutions = [c.resolution for c in cert.even.cases]
            assert set(resolutions) <= {SCALAR_OBSTRUCTED, FORM_INDEFINITE_ON_SPAN}, p
            assert resolutions.count(FORM_INDEFINITE_ON_SPAN) == 1, p
        assert uncertified == {20, 24, 60}


class TestCertifyLevel:
    def test_odd_route_preferred(self):
        assert certify_level(9).route == ROUTE_ODD
        assert certify_level(112).route == ROUTE_ODD  # odd part 7

    def test_even_route_taken_when_odd_fails(self):
        assert certify_level(16).route == ROUTE_EVEN

    def test_uncertified_collects_reasons(self):
        cert = certify_level(10)
        assert cert.route == ROUTE_UNCERTIFIED
        assert len(cert.failed) == 2  # odd part too small, not divisible by 4

    def test_exceptional_set_1_to_200(self):
        bad = {p for p in range(1, 201) if not certify_level(p).certified}
        assert bad == set(UNCERTIFIABLE_LEVELS)


class TestCertificateJson:
    def test_odd_schema(self):
        doc = certificate_to_json(certify_level(7))
        assert doc == {
            "p": 7,
            "route": "odd_burau",
            "odd_part": 7,
            "boundary_color": 2,
        }

    def test_even_schema(self):
        doc = certificate_to_json(certify_level(16))
        assert doc["p"] == 16
        assert doc["route"] == "even_coxeter"
        assert doc["ell"] == 7
        assert doc["signature"] == [4, 1]
        assert len(doc["cases"]) == 11
        for case in doc["cases"]:
            assert set(case) == {"multiset", "resolution"}
            assert all(isinstance(s, str) for s in case["multiset"])

    def test_uncertified_schema(self):
        doc = certificate_to_json(certify_level(20))
        assert doc["route"] == "uncertified"
        assert doc["failed"]
