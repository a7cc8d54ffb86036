import pytest

from quantcert.burau import (
    CyclotomicInt,
    ExceedsCap,
    FiniteOfOrder,
    burau_closure_oracle,
    burau_is_finite,
    burau_matrices,
    cyclotomic_polynomial,
    mat_identity,
    mat_mul,
    minus_q_order,
)
from quantcert.roots import RootOfUnity


def parameter_with_minus_q_order(n: int) -> RootOfUnity:
    """q = -zeta_n, so that -q is a primitive n-th root of unity."""
    return RootOfUnity(2 * n, n + 2)


class TestCyclotomic:
    def test_small_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_root_has_right_order(self):
        for n in (5, 7, 10, 12, 14):
            z = CyclotomicInt.root(n, 1)
            power = CyclotomicInt.integer(n, 1)
            for m in range(1, n):
                power = power * z
                assert not (power - CyclotomicInt.integer(n, 1)).is_zero(), (n, m)
            power = power * z
            assert (power - CyclotomicInt.integer(n, 1)).is_zero()

    def test_ring_arithmetic(self):
        z = CyclotomicInt.root(5, 1)
        total = z
        for e in (2, 3, 4):
            total = total + CyclotomicInt.root(5, e)
        # 1 + z + z^2 + z^3 + z^4 = 0
        assert (total + CyclotomicInt.integer(5, 1)).is_zero()

    @pytest.mark.parametrize("n", [5, 7, 12, 14, 22])
    def test_complex_embedding_homomorphism(self, n):
        """Exact products agree with the complex embedding zeta -> e^(2 pi i/n)."""
        import cmath
        import random

        def embed(x):
            return sum(
                c * cmath.exp(2j * cmath.pi * e / n) for e, c in enumerate(x.coeffs)
            )

        rng = random.Random(n)
        deg = len(cyclotomic_polynomial(n)) - 1
        for _ in range(40):
            a = CyclotomicInt(n, tuple(rng.randint(-3, 3) for _ in range(deg)))
            b = CyclotomicInt(n, tuple(rng.randint(-3, 3) for _ in range(deg)))
            assert abs(embed(a * b) - embed(a) * embed(b)) < 1e-8
            assert abs(embed(a + b) - (embed(a) + embed(b))) < 1e-12


class TestBurauMatrices:
    @pytest.mark.parametrize("q", [RootOfUnity(5, 1), RootOfUnity(7, 3), RootOfUnity(10, 7)])
    def test_braid_relation(self, q):
        image = burau_matrices(q)
        lhs = mat_mul(mat_mul(image.sigma1, image.sigma2), image.sigma1)
        rhs = mat_mul(mat_mul(image.sigma2, image.sigma1), image.sigma2)
        assert lhs == rhs

    def test_eigenvalue_contract_checked_on_build(self):
        # trace 1 - q and determinant -q, i.e. eigenvalues {1, -q};
        # burau_matrices raises if this fails, so construction is the test
        burau_matrices(RootOfUnity(7, 3))

    def test_inverses(self):
        image = burau_matrices(RootOfUnity(9, 2))
        ident = mat_identity(9)
        assert mat_mul(image.sigma1, image.sigma1_inv) == ident
        assert mat_mul(image.sigma2, image.sigma2_inv) == ident

    def test_degenerate_flag(self):
        assert burau_matrices(RootOfUnity(2, 1)).degenerate  # q = -1, -q = 1
        assert not burau_matrices(RootOfUnity(1, 0)).degenerate  # q = 1, -q = -1
        assert not burau_matrices(RootOfUnity(5, 1)).degenerate


class TestMinusQOrder:
    def test_construction_helper(self):
        for n in (2, 3, 4, 5, 7, 9, 11):
            assert minus_q_order(parameter_with_minus_q_order(n)) == n


class TestBurauIsFinite:
    def test_finite_orders(self):
        for n in (2, 3, 4, 5):
            assert burau_is_finite(n)

    def test_infinite_orders(self):
        for n in (1, 6, 7, 9, 11, 100):
            assert not burau_is_finite(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            burau_is_finite(0)


class TestClosureOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_finite_orders_close(self, n):
        result = burau_closure_oracle(parameter_with_minus_q_order(n), 10000)
        assert isinstance(result, FiniteOfOrder)
        assert result.order <= 10000
        assert burau_is_finite(n)

    def test_smallest_group_is_symmetric_on_three_letters(self):
        # -q of order 2 forces q = 1; the image is generated by two
        # involutions whose product has order 3
        result = burau_closure_oracle(parameter_with_minus_q_order(2), 100)
        assert result == FiniteOfOrder(order=6)

    @pytest.mark.parametrize("n", [7, 9, 11])
    def test_infinite_orders_exceed(self, n):
        result = burau_closure_oracle(parameter_with_minus_q_order(n), 5000)
        assert isinstance(result, ExceedsCap)
        assert not burau_is_finite(n)

    def test_minus_one_generates_sl2z(self):
        """q = -1 gives -q of order 1: unipotent generators of SL_2(Z)."""
        q = RootOfUnity(2, 1)
        assert minus_q_order(q) == 1
        assert isinstance(burau_closure_oracle(q, 5000), ExceedsCap)
        assert not burau_is_finite(1)

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            burau_closure_oracle(RootOfUnity(5, 1), 0)
