import math

import pytest

from quantcert.errors import InvalidColor, NonPrimitiveRoot
from quantcert.roots import RootOfUnity, _check_selector, _sin_sign, twist_eigenvalue


def quantum_integer_sign(n, p, ell):
    """Sign of [n] = sin(n*beta)/sin(beta), beta = 2*pi*ell/p, by the residue rule."""
    _check_selector(ell, p)
    return _sin_sign(n * ell, p) * _sin_sign(ell, p)


class TestRootOfUnity:
    def test_exponent_reduced_on_construction(self):
        assert RootOfUnity(32, 540).exponent == 28
        assert RootOfUnity(10, -3).exponent == 7

    def test_equality_across_orders(self):
        assert RootOfUnity(4, 1) == RootOfUnity(8, 2)
        assert RootOfUnity(4, 1) != RootOfUnity(8, 3)
        assert RootOfUnity(6, 3) == RootOfUnity(2, 1)
        assert hash(RootOfUnity(4, 1)) == hash(RootOfUnity(8, 2))

    def test_product_at_lcm(self):
        z = RootOfUnity(4, 1) * RootOfUnity(6, 1)
        assert z == RootOfUnity(12, 5)

    def test_inverse_and_order(self):
        z = RootOfUnity(10, 8)
        assert (z * z.inverse()).exponent == 0
        assert z.multiplicative_order() == 5

    def test_minus_one(self):
        assert RootOfUnity.minus_one(10) == RootOfUnity(2, 1)


class TestRootPow:
    def test_pow_reduces_modulo_order(self):
        assert RootOfUnity(32, 9) ** 60 == RootOfUnity(32, 28)

    def test_pow_zero_is_identity(self):
        assert RootOfUnity(32, 9) ** 0 == RootOfUnity(32, 0)

    def test_pow_hits_minus_one(self):
        # 21 * 120 = 2520 = 40 mod 80, which is -1, not 1
        z = RootOfUnity(80, 21) ** 120
        assert z == RootOfUnity(80, 40)
        assert z.exponent != 0
        assert z == RootOfUnity.minus_one(80)

    def test_group_action(self):
        z = RootOfUnity(48, 7)
        for m in (-3, 0, 5, 11):
            for mp in (-2, 4, 9):
                assert (z**m) ** mp == z ** (m * mp)


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
            assert twist_eigenvalue(0, p) == RootOfUnity(2 * p, 0)

    def test_even_color(self):
        # a(a+2) = 8; the even color's sign +1 adds no shift
        ev = twist_eigenvalue(2, 5)
        assert ev == RootOfUnity(10, 8)
        assert ev * RootOfUnity(10, -8) == RootOfUnity(10, 0)

    def test_odd_color_folds_sign(self):
        # a(a+2) = 15; the odd color's sign -1 is an exponent shift by p = 16
        ev = twist_eigenvalue(3, 16)
        assert ev == RootOfUnity(32, 31)
        assert ev * RootOfUnity(32, -15) == RootOfUnity.minus_one(32)

    def test_invalid_color(self):
        with pytest.raises(InvalidColor):
            twist_eigenvalue(1, 7)  # odd color at odd level
        with pytest.raises(InvalidColor):
            twist_eigenvalue(7, 16)  # beyond the even palette


def twist_order(a, p):
    return twist_eigenvalue(a, p).multiplicative_order()


class TestTwistOrder:
    def test_examples(self):
        assert twist_order(0, 7) == 1
        assert twist_order(2, 5) == 5
        assert twist_order(2, 16) == 4

    def test_divides_2p_everywhere(self):
        from quantcert.blocks import level_colors

        for p in range(5, 101):
            for a in level_colors(p):
                assert 2 * p % twist_order(a, p) == 0
