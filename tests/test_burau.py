import math

import pytest

from quantcert import burau
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
from quantcert.errors import InvariantViolation
from quantcert.roots import RootOfUnity

#: group orders of the finite images, by the order of -q (Coxeter)
FINITE_GROUP_ORDERS = {2: 6, 3: 24, 4: 96, 5: 600}


def parameter_with_minus_q_order(n: int) -> RootOfUnity:
    """q = -zeta_n, so that -q is a primitive n-th root of unity."""
    return RootOfUnity(2 * n, n + 2)


def _scalar_closure(q: RootOfUnity, cap: int) -> FiniteOfOrder | ExceedsCap:
    """Element-at-a-time closure over tuples of CyclotomicInt: the oracle."""
    image = burau_matrices(q)
    gens = (image.sigma1, image.sigma2, image.sigma1_inv, image.sigma2_inv)
    ident = mat_identity(q.order)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > cap:
                        return ExceedsCap(cap=cap, explored=len(seen))
        frontier = new
    return FiniteOfOrder(order=len(seen))


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

    def test_cap_20000_probe_at_zeta_14(self):
        assert burau_closure_oracle(RootOfUnity(14, 1), 20000) == ExceedsCap(20000, 20001)

    def test_guard_raises_instead_of_wrapping(self, monkeypatch):
        # at q = -1 the entries grow along Fibonacci-like words, so a low
        # bound is passed after a few layers rather than at the identity
        monkeypatch.setattr(burau, "INT32_BOUND", 16)
        with pytest.raises(InvariantViolation, match="int32"):
            burau_closure_oracle(RootOfUnity(2, 1), 10**6)

    def test_cap_validated(self):
        with pytest.raises(ValueError):
            burau_closure_oracle(RootOfUnity(5, 1), 0)


class TestClosureAgainstScalarOracle:
    """The layer closure equals the element-at-a-time closure exactly."""

    #: every cyclotomic order n with phi(n) <= 8 (the largest is 30)
    ORDERS = [n for n in range(1, 31) if sum(math.gcd(k, n) == 1 for k in range(n)) <= 8]

    @pytest.mark.parametrize("n", ORDERS)
    def test_every_exponent(self, n):
        for e in range(n):  # e = 0 is q = 1; (2, 1) is q = -1
            q = RootOfUnity(n, e)
            caps = [1, 700]
            order = FINITE_GROUP_ORDERS.get(minus_q_order(q))
            if order is not None:
                caps += [order, order - 1]
            for cap in caps:
                expected = _scalar_closure(q, cap)
                assert burau_closure_oracle(q, cap) == expected, (n, e, cap)
                if order is not None and cap >= order:
                    assert expected == FiniteOfOrder(order)
                else:
                    assert expected == ExceedsCap(cap, cap + 1)
