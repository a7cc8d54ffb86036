import ast
import cmath
import functools
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import integer_step
from quantcert import burau
from quantcert.burau import (
    ExceedsCap,
    FiniteOfOrder,
    _step,
    _times_root,
    burau_closure_oracle,
    burau_is_finite,
    cyclotomic_polynomial,
    minus_q_order,
)
from quantcert.errors import InvariantViolation
from quantcert.roots import RootOfUnity

#: group orders of the finite images, by the order of -q (Coxeter)
FINITE_GROUP_ORDERS = {2: 6, 3: 24, 4: 96, 5: 600}

EIGENVALUES = "generator eigenvalues are not {1, -q}"
COMMUTE = "generators commute"
BRAID = "braid relation fails"

#: every (source column, twisted) rule; a table is one rule for each generator
RULES = ((0, False), (0, True), (1, False), (1, True))
#: the tables that pass the contract check: the true one, its generators
#: swapped, and both of those conjugated by diag(1, q), which turns sigma1
#: into [[-q, q], [0, 1]] and sigma2 into [[1, 0], [1, -q]]
PASSING_TABLES = (
    ((0, False), (1, True)),
    ((1, True), (0, False)),
    ((0, True), (1, False)),
    ((1, False), (0, True)),
)


def parameter_with_minus_q_order(n: int) -> RootOfUnity:
    """q = -zeta_n, so that -q is a primitive n-th root of unity."""
    return RootOfUnity(2 * n, n + 2)


# ---------------------------------------------------------------------------
# the scalar oracle: Z[zeta_n] as tuples of ints, reduced by long division
# against cyclotomic_polynomial(n), which TestCyclotomic pins to literals

def _reduce(coeffs: list[int], n: int) -> tuple[int, ...]:
    """``coeffs`` (low to high) modulo the monic Phi_n, by long division."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    coeffs = list(coeffs) + [0] * (deg - len(coeffs))
    for j in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[j]
        if c:
            for i, p in enumerate(phi):
                coeffs[j - deg + i] -= c * p
    return tuple(coeffs[:deg])


def _root(n: int, e: int) -> tuple[int, ...]:
    return _monomial(n, e % n)


@functools.lru_cache(maxsize=None)
def _monomial(n: int, k: int) -> tuple[int, ...]:
    return _reduce([0] * k + [1], n)


@functools.lru_cache(maxsize=None)
def _mul(a: tuple[int, ...], b: tuple[int, ...], n: int) -> tuple[int, ...]:
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                conv[i + j] += x * y
    return _reduce(conv, n)


def _mat_mul(m, g, n):
    def dot(x, y, z, w):
        return tuple(s + t for s, t in zip(_mul(x, y, n), _mul(z, w, n)))

    a, b, c, d = m
    e, f, h, k = g
    return (dot(a, e, b, h), dot(a, f, b, k), dot(c, e, d, h), dot(c, f, d, k))


def _generators(q: RootOfUnity):
    """sigma1, sigma2 as in the burau module docstring, then their inverses."""
    n = q.order
    one, zero = _reduce([1], n), _reduce([], n)
    qq, qi = _root(n, q.exponent), _root(n, -q.exponent)
    mq, mqi = tuple(-c for c in qq), tuple(-c for c in qi)
    return (mq, one, zero, one), (one, zero, qq, mq), (mqi, qi, zero, one), (one, zero, one, mqi)


def _scalar_closure(q: RootOfUnity, cap: int) -> FiniteOfOrder | ExceedsCap:
    """Element-at-a-time closure over 4-tuples of coefficient tuples: the oracle.

    It multiplies by all four generators, inverses included, so it closes the
    group itself.  That makes it the independent check of the argument in
    ``burau_closure_oracle``, which multiplies by sigma1 and sigma2 only:
    TestClosureAgainstScalarOracle compares the two at caps 1, 700, |G| and
    |G| - 1 for every n with phi(n) <= 8.
    """
    gens = _generators(q)
    one, zero = _reduce([1], q.order), _reduce([], q.order)
    ident = (one, zero, zero, one)
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                prod = _mat_mul(m, g, q.order)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
                    if len(seen) > cap:
                        return ExceedsCap(cap=cap, explored=len(seen))
        frontier = new
    return FiniteOfOrder(order=len(seen))


def _identity_block(n: int) -> np.ndarray:
    ident = np.zeros((1, 4, len(cyclotomic_polynomial(n)) - 1), dtype=np.int32)
    ident[0, 0, 0] = ident[0, 3, 0] = 1
    return ident


def _times(q: RootOfUnity) -> np.ndarray:
    """The "times q" matrix in float64, as ``burau_closure_oracle`` passes it."""
    return _times_root(q.order, q.exponent)


def _step_times_minus_q(block, g, times, out=None):
    """A corrupted step that multiplies by -q where its rules say q."""
    return _step(block, g, -times, out)


def _embed(coeffs, n: int) -> complex:
    return sum(int(c) * cmath.exp(2j * cmath.pi * e / n) for e, c in enumerate(coeffs))


class TestCyclotomic:
    def test_small_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(10) == (1, -1, 1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_root_has_right_order(self):
        # Z = "times zeta": Z^m != I for 0 < m < n, Z^n = I
        for n in (5, 7, 10, 12, 14):
            z = _times_root(n, 1).astype(np.int64)
            ident = np.eye(len(z), dtype=np.int64)
            power = ident
            for m in range(1, n):
                power = power @ z
                assert not np.array_equal(power, ident), (n, m)
            assert np.array_equal(power @ z, ident), n

    def test_ring_arithmetic(self):
        # 1 + z + z^2 + z^3 + z^4 = 0, summing the rows of 1 times Z^k
        z = _times_root(5, 1).astype(np.int64)
        one = np.array([1, 0, 0, 0])
        assert not sum(one @ np.linalg.matrix_power(z, k) for k in range(5)).any()

    def test_times_root_rows_match_the_scalar_oracle(self):
        """Row i of "times zeta_n^e" is zeta_n^(i + e), reduced by long division."""
        for n in range(1, 121):
            deg = len(cyclotomic_polynomial(n)) - 1
            for e in range(-n, 2 * n):
                rows = np.array([_root(n, i + e) for i in range(deg)], dtype=np.int64)
                assert np.array_equal(_times_root(n, e), rows), (n, e)

    def test_cached_table_is_read_only(self):
        table = burau._powers(7)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 5
        first = _times_root(7, 3)
        expected = first.copy()
        first[...] = 99
        assert np.array_equal(_times_root(7, 3), expected)

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 12, 30])
    def test_times_inverse_root_is_identity(self, n):
        for e in range(-n, 2 * n):
            prod = _times_root(n, e) @ _times_root(n, -e)
            assert np.array_equal(prod, np.eye(len(prod), dtype=prod.dtype)), (n, e)

    @pytest.mark.parametrize("n", [5, 7, 12, 14, 22])
    def test_complex_embedding_homomorphism(self, n):
        """Exact products agree with the complex embedding zeta -> e^(2 pi i/n).

        Checked for "times zeta^e" on coefficient rows, and for the scalar
        oracle's products.
        """
        rng = random.Random(n)
        deg = len(cyclotomic_polynomial(n)) - 1
        for _ in range(40):
            a = tuple(rng.randint(-3, 3) for _ in range(deg))
            b = tuple(rng.randint(-3, 3) for _ in range(deg))
            e = rng.randrange(-n, 2 * n)
            shifted = np.array(a) @ _times_root(n, e)
            root = cmath.exp(2j * cmath.pi * e / n)
            assert abs(_embed(shifted, n) - _embed(a, n) * root) < 1e-8
            assert abs(_embed(_mul(a, b, n), n) - _embed(a, n) * _embed(b, n)) < 1e-8


class TestBurauMatrices:
    """The generator rules that the closure runs, and their contract check."""

    @pytest.mark.parametrize(
        "q", [RootOfUnity(1, 0), RootOfUnity(2, 1), RootOfUnity(7, 3), RootOfUnity(48, 5)]
    )
    def test_rules_step_identity_to_docstring_matrices(self, q):
        ident, times = _identity_block(q.order), _times(q)
        for g, expected in zip(range(len(burau._GENERATORS)), _generators(q)):
            assert _step(ident, g, times)[0].tolist() == [list(row) for row in expected], g

    @pytest.mark.parametrize("q", [RootOfUnity(5, 1), RootOfUnity(7, 3), RootOfUnity(10, 7)])
    def test_braid_relation(self, q):
        times = _times(q)

        def word(*gens):
            out = _identity_block(q.order)
            for g in gens:
                out = _step(out, g, times)
            return out

        assert np.array_equal(word(0, 1, 0), word(1, 0, 1))

    @pytest.mark.parametrize(
        "name, corrupted, message",
        [
            # every rule gives a matrix with eigenvalues {1, -q}, so only a
            # wrong step breaks them: sigma1 becomes [[q, 1], [0, 1]]
            ("_step", _step_times_minus_q, EIGENVALUES),
            # sigma2 = sigma1 passes the eigenvalue and braid checks
            ("_GENERATORS", ((0, False), (0, False)), COMMUTE),
            # sigma1 alone conjugated, to [[-q, q], [0, 1]]
            ("_GENERATORS", ((0, True), (1, True)), BRAID),
        ],
        ids=["eigenvalues", "commute", "braid"],
    )
    def test_corrupted_rule_raises_its_own_message(self, monkeypatch, name, corrupted, message):
        burau._check_generators()
        monkeypatch.setattr(burau, name, corrupted)
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            burau._check_generators()

    @pytest.mark.parametrize("table", range(len(PASSING_TABLES)))
    @pytest.mark.parametrize("field", range(4))
    def test_every_single_field_corruption_raises(self, monkeypatch, table, field):
        """One flipped field of a passing table breaks the braid relation.

        A passing table has two sources and two twists that differ; one flip
        makes one of them equal, which is not yet a commuting pair.  Over the
        four passing tables these flips reach every table that is neither
        passing nor commuting.
        """
        rules = [list(rule) for rule in PASSING_TABLES[table]]
        rule, position = divmod(field, 2)
        old = rules[rule][position]
        rules[rule][position] = not old if position else 1 - old
        monkeypatch.setattr(burau, "_GENERATORS", tuple(map(tuple, rules)))
        with pytest.raises(InvariantViolation, match=f"^{re.escape(BRAID)}$"):
            burau._check_generators()

    @pytest.mark.parametrize("rule", RULES)
    def test_commuting_tables_raise(self, monkeypatch, rule):
        """sigma1 = sigma2 passes the eigenvalue and braid checks.

        Without the commutation check its closure at q = zeta_7^3, whose
        image is infinite, would be a finite group of order 14.
        """
        monkeypatch.setattr(burau, "_GENERATORS", (rule, rule))
        with pytest.raises(InvariantViolation, match=f"^{re.escape(COMMUTE)}$"):
            burau._check_generators()

    def test_closure_runs_no_check(self, monkeypatch):
        """The contract is proved at import; a closure does not re-check it."""

        def refuse():
            raise AssertionError("the closure checked the generators")

        monkeypatch.setattr(burau, "_check_generators", refuse)
        assert burau_closure_oracle(RootOfUnity(7, 3), 700) == ExceedsCap(700, 701)

    def test_module_body_checks_the_generators(self):
        """``burau`` calls ``_check_generators()``, with no arguments, at module level."""
        tree = ast.parse(Path(burau.__file__).read_text(), filename=burau.__file__)
        calls = [
            ast.unparse(node)
            for node in tree.body
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
        ]
        assert calls == ["_check_generators()"]

    @pytest.mark.parametrize("table", PASSING_TABLES[1:])
    def test_other_passing_tables_close_like_the_true_one(self, monkeypatch, table):
        """The swapped and conjugated tables generate a conjugate group."""
        monkeypatch.setattr(burau, "_GENERATORS", table)
        for n in range(1, 25):
            for e in range(n):
                q = RootOfUnity(n, e)
                order = FINITE_GROUP_ORDERS.get(minus_q_order(q))
                expected = ExceedsCap(700, 701) if order is None else FiniteOfOrder(order)
                assert burau_closure_oracle(q, 700) == expected, (n, e)

    def test_eigenvalue_contract_checked_on_build(self):
        # trace 1 - q and sigma^2 = (1 - q) sigma + q, on the stepped rows
        q = RootOfUnity(7, 3)
        ident, times = _identity_block(7), _times(q)
        one_minus_q = tuple(a - b for a, b in zip(_reduce([1], 7), _root(7, 3)))
        q_ident = ident @ times
        for g in (0, 1):
            m = _step(ident, g, times)
            assert tuple(m[0, 0] + m[0, 3]) == one_minus_q
            assert np.array_equal(_step(m, g, times), m - m @ times + q_ident)

    def test_step_is_exact_at_the_guard_edge(self):
        """The float64 product equals the int64 oracle on the largest entries
        the guard admits, (INT32_BOUND - 1) // growth in size.

        For each column j of the "times q" matrix, one block element has
        all four entries that bound with the signs of column j, so product
        entry j of either generator is the largest sum the guard allows;
        eight more elements have random signs.
        """
        rng = np.random.default_rng(30)
        for n in range(1, 121):
            for e in sorted({0, 1, n - 1, int(rng.integers(n))}):
                times = _times_root(n, e)
                growth = 1 + int(np.abs(times).sum(axis=0).max())
                edge = (burau.INT32_BOUND - 1) // growth
                deg = len(times)
                extreme = np.repeat(np.where(times.T < 0, -1, 1)[:, None], 4, axis=1)
                signs = np.concatenate([extreme, rng.choice((-1, 1), size=(8, 4, deg))])
                block = (edge * signs).astype(np.int32)
                for g in range(len(burau._GENERATORS)):
                    step = _step(block, g, times)
                    assert np.array_equal(step, integer_step(block, g, times)), (n, e, g)


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

    def test_high_degree_closure_at_cap_700(self):
        """Degrees past the scalar oracle's reach, up to phi(59) = 58.

        Every n <= 60 with q = 1, zeta_n, zeta_n^-1 and every q whose -q has
        order 2..5 closes to Coxeter's order or exceeds the cap.
        """
        for n in range(1, 61):
            finite = {e for e in range(n) if minus_q_order(RootOfUnity(n, e)) in FINITE_GROUP_ORDERS}
            for e in sorted({0, 1, n - 1} | finite):
                q = RootOfUnity(n, e)
                order = FINITE_GROUP_ORDERS.get(minus_q_order(q))
                expected = ExceedsCap(700, 701) if order is None else FiniteOfOrder(order)
                assert burau_closure_oracle(q, 700) == expected, (n, e)

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
