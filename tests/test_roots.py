import math
from fractions import Fraction

import pytest

from oracles import twist_turn
from quantcert.blocks import level_colors
from quantcert.errors import InvalidColor, NonPrimitiveRoot
from quantcert.roots import RootOfUnity, _check_selector, _sin_sign, twist_exponent


def quantum_integer_sign(n, p, ell):
    """Sign of [n] = sin(n*beta)/sin(beta), beta = 2*pi*ell/p, by the residue rule."""
    _check_selector(ell, p)
    return _sin_sign(n * ell, p) * _sin_sign(ell, p)


class TestRootOfUnity:
    def test_exponent_reduced_on_construction(self):
        assert RootOfUnity(32, 540).exponent == 28
        assert RootOfUnity(10, -3).exponent == 7
        assert RootOfUnity(10, -3) == RootOfUnity(10, 7)
        with pytest.raises(ValueError):
            RootOfUnity(0, 1)


class TestQuantumIntegerSign:
    def test_one_is_positive(self):
        assert quantum_integer_sign(1, 16, 7) == 1

    def test_two_at_level_16(self):
        # 2*7 = 14 mod 16 lies above 8, denominator residue 7 lies below
        assert quantum_integer_sign(2, 16, 7) == -1

    def test_vanishing(self):
        assert quantum_integer_sign(16, 16, 7) == 0

    def test_non_primitive_selector_rejected(self):
        with pytest.raises(NonPrimitiveRoot):
            quantum_integer_sign(2, 16, 6)
        with pytest.raises(NonPrimitiveRoot):
            quantum_integer_sign(2, 15, 5)

    @pytest.mark.parametrize("p,ell", [(16, 7), (15, 7), (9, 1), (40, 17), (11, 3)])
    def test_float_cross_check(self, p, ell):
        """Exact signs agree with float sin(n*beta)/sin(beta) away from zero."""
        beta = 2 * math.pi * ell / p
        for n in range(-2 * p, 2 * p + 1):
            value = math.sin(n * beta) / math.sin(beta)
            if abs(value) > 1e-6:
                assert quantum_integer_sign(n, p, ell) == (1 if value > 0 else -1), n

    @pytest.mark.parametrize("p,ell", [(16, 7), (13, 1), (28, 11)])
    def test_negation_antisymmetry(self, p, ell):
        for n in range(1, 2 * p):
            s = quantum_integer_sign(n, p, ell)
            if s != 0:
                assert quantum_integer_sign(-n, p, ell) == -s

    @pytest.mark.parametrize("p", [7, 9, 11, 13, 16, 20])
    def test_reflection_at_selector_one(self, p):
        """[p - n] and [n] carry opposite signs at ell = 1.

        sin(2*pi*(p - n)/p) = -sin(2*pi*n/p), so the reflection n -> p - n
        negates the numerator while fixing the denominator; the float
        evaluation pins the same answer.
        """
        beta = 2 * math.pi / p
        for n in range(1, p):
            s = quantum_integer_sign(n, p, 1)
            if s != 0:
                assert quantum_integer_sign(p - n, p, 1) == -s
                value = math.sin((p - n) * beta) / math.sin(beta)
                if abs(value) > 1e-6:
                    assert (1 if value > 0 else -1) == -s


class TestTwistEigenvalue:
    def test_color_zero_is_trivial(self):
        for p in (5, 7, 16):
            assert twist_exponent(0, p) == 0

    def test_even_color(self):
        # a(a+2) = 8; the even color's sign +1 adds no shift
        assert twist_exponent(2, 5) == 8

    def test_odd_color_folds_sign(self):
        # a(a+2) = 15; the odd color's sign -1 is an exponent shift by p = 16,
        # so the eigenvalue over zeta_32^15 is zeta_32^16 = -1
        assert twist_exponent(3, 16) == 31
        assert (twist_exponent(3, 16) - 15) % 32 == 16

    def test_invalid_color(self):
        with pytest.raises(InvalidColor):
            twist_exponent(1, 7)  # odd color at odd level
        with pytest.raises(InvalidColor):
            twist_exponent(7, 16)  # beyond the even palette

    def test_matches_the_turn_oracle(self):
        for p in range(5, 101):
            for ell in (1, 3, 7, 2 * p - 1):
                if math.gcd(ell, 2 * p) == 1:
                    for a in level_colors(p):
                        e = twist_exponent(a, p, ell)
                        assert 0 <= e < 2 * p
                        assert Fraction(e, 2 * p) == twist_turn(a, p, ell), (a, p, ell)


def twist_order(a, p):
    return 2 * p // math.gcd(2 * p, twist_exponent(a, p))


class TestTwistOrder:
    def test_examples(self):
        assert twist_order(0, 7) == 1
        assert twist_order(2, 5) == 5
        assert twist_order(2, 16) == 4

    def test_divides_2p_everywhere(self):
        for p in range(5, 101):
            for a in level_colors(p):
                assert 2 * p % twist_order(a, p) == 0
                assert twist_order(a, p) == twist_turn(a, p).denominator
