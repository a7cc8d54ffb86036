import math

import pytest

from oracles import gram_ratio_float, selector_window
from quantcert import hermitian
from quantcert.errors import InvariantViolation, NonPrimitiveRoot
from quantcert.hermitian import find_indefinite_ell, gram_profile, gram_ratio_sign


class TestGramRatioSign:
    def test_anchor_p16_ell7(self):
        assert gram_ratio_sign(0, 16, 7) == 1
        assert gram_ratio_sign(1, 16, 7) == -1
        assert gram_ratio_sign(2, 16, 7) == -1
        assert gram_ratio_sign(3, 16, 7) == 1

    def test_outer_ratios_always_positive(self):
        for p in (16, 20, 28, 40):
            for ell in range(1, 2 * p, 2):
                if math.gcd(ell, 2 * p) != 1:
                    continue
                assert gram_ratio_sign(0, p, ell) == 1
                assert gram_ratio_sign(3, p, ell) == 1

    def test_selector_must_be_primitive(self):
        with pytest.raises(NonPrimitiveRoot):
            gram_ratio_sign(1, 16, 4)

    def test_no_factor_vanishes(self):
        """For k >= 4 and a primitive selector every ratio sign is +-1."""
        for p in range(16, 801, 4):
            for ell in range(1, 2 * p, 2):
                if math.gcd(ell, 2 * p) == 1:
                    for s in range(4):
                        assert gram_ratio_sign(s, p, ell) in (1, -1), (s, p, ell)

    def test_level_must_be_4k_with_k_at_least_4(self):
        with pytest.raises(ValueError):
            gram_ratio_sign(1, 18, 1)
        with pytest.raises(ValueError):
            gram_ratio_sign(1, 12, 1)

    @pytest.mark.parametrize("p", [16, 20, 28, 40, 48, 100])
    def test_float_cross_check(self, p):
        """Exact signs match the float product forms away from zero."""
        for ell in range(1, 2 * p, 2):
            if math.gcd(ell, 2 * p) != 1:
                continue
            for s in (1, 2):
                value = gram_ratio_float(s, p, ell)
                if abs(value) > 1e-6:
                    assert gram_ratio_sign(s, p, ell) == (1 if value > 0 else -1), (
                        s,
                        p,
                        ell,
                    )


class TestGramProfile:
    def test_signature_anchor(self):
        profile = gram_profile(16, 7)
        assert profile.diagonal_signs == (1, 1, -1, 1, 1)
        assert profile.signature == (4, 1)
        assert profile.indefinite

    def test_selector_one_is_definite_but_complete(self):
        profile = gram_profile(16, 1)
        assert sum(profile.signature) == 5
        assert profile.signature == (5, 0)

    def test_p40_ell17_middle_window(self):
        profile = gram_profile(40, 17)
        assert profile.diagonal_signs == (1, 1, -1, 1, 1)

    def test_diagonal_is_running_product(self):
        profile = gram_profile(28, 11)
        d = [1]
        for r in profile.ratios:
            d.append(d[-1] * r)
        assert profile.diagonal_signs == tuple(d)

    def test_window_negativity(self):
        """Inside 4k/3 < ell < 2k the middle ratios are both negative."""
        for p in (16, 20, 28, 40, 60, 100):
            k = p // 4
            for ell in selector_window(p):
                assert 4 * k < 3 * ell and ell < 2 * k
                profile = gram_profile(p, ell)
                assert profile.ratios[1] == -1 and profile.ratios[2] == -1
                assert profile.diagonal_signs == (1, 1, -1, 1, 1)


class TestFindIndefiniteEll:
    def test_p16(self):
        assert find_indefinite_ell(16) == 7

    def test_p28(self):
        assert find_indefinite_ell(28) == 11

    def test_small_k_unavailable(self):
        assert find_indefinite_ell(12) is None
        assert find_indefinite_ell(8) is None

    def test_found_for_all_levels_up_to_400(self):
        for p in range(16, 401, 4):
            ell = find_indefinite_ell(p)
            assert ell is not None
            assert gram_profile(p, ell).indefinite

    def test_first_window_selector_up_to_2000(self):
        """Every window selector is indefinite, so the first one is taken."""
        for p in range(16, 2001, 4):
            assert find_indefinite_ell(p) == selector_window(p)[0]

    def test_window_without_indefinite_profile_raises(self, monkeypatch):
        definite = gram_profile(16, 1)
        monkeypatch.setattr(hermitian, "gram_profile", lambda p, ell: definite)
        with pytest.raises(InvariantViolation):
            find_indefinite_ell(16)
