"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are stated inline; timed criteria assert their budget.
"""

import math
import time
from fractions import Fraction

from oracles import (
    ANOSOV,
    PARABOLIC,
    adjacency,
    chain_graph,
    cut_identity_check,
    dense_graph,
    dumbbell_graph,
    gram_ratio_float,
    selector_window,
    sl2,
    sl2_inverse,
    sl2_mul,
    sl2_type,
    spectral_radius,
    theta_graph,
)
from quantcert import blocks, burau, certify, hermitian, orbits, veech
from quantcert.roots import RootOfUnity, twist_exponent


def _report(number: int, label: str) -> None:
    print(f"[acceptance] criterion {number:02d} {label}: PASS")


def test_criterion_01_exceptional_set():
    """certify 1..200 marks exactly {1..6, 8, 10, 12, 20, 24} uncertified,
    with 40 certified through the exact obstructions and annotated;
    single-threaded runtime under 10 s."""
    start = time.monotonic()
    certs = {p: certify.certify_level(p) for p in range(1, 201)}
    elapsed = time.monotonic() - start
    uncertified = {p for p, (c, _) in certs.items() if c["route"] == certify.ROUTE_UNCERTIFIED}
    assert uncertified == {1, 2, 3, 4, 5, 6, 8, 10, 12, 20, 24}
    cert40, notes40 = certs[40]
    assert cert40["route"] == certify.ROUTE_EVEN
    assert any("divides 120" in note for note in notes40)
    assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"
    _report(1, f"exceptional set 1..200 ({elapsed:.2f}s)")


def test_criterion_02_dimension_anchors():
    """Tadpole dimensions: 2 at (odd p, tail p-5) with the stated loop
    colors for all odd p <= 99; 5 at (p = 4k >= 16, tail 2k-6) with loop
    colors {k-3..k+1}; enumeration agrees with the eliminator.  Exact,
    under 1 s."""
    start = time.monotonic()
    for p in range(7, 100, 2):
        k = p // 4
        expected = (2 * k - 2, 2 * k) if p % 4 == 1 else (2 * k, 2 * k + 2)
        basis = blocks.tadpole_basis(p - 5, p)
        assert basis == expected, p
        graph = blocks.tadpole_graph(p - 5)
        assert blocks.block_dimension(graph, p) == 2
        assert blocks.block_dimension_bruteforce(graph, p) == 2
    for p in range(16, 201, 4):
        k = p // 4
        basis = blocks.tadpole_basis(2 * k - 6, p)
        assert basis == tuple(range(k - 3, k + 2)), p
        graph = blocks.tadpole_graph(2 * k - 6)
        assert blocks.block_dimension(graph, p) == 5
        assert blocks.block_dimension_bruteforce(graph, p) == 5
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"dimension anchors took {elapsed:.2f}s"
    _report(2, f"dimension anchors ({elapsed:.2f}s)")


def test_criterion_03_signature_anchor():
    """gram_profile(16, 7) is (+, +, -, +, +) with signature (4, 1); for
    every p = 4k <= 400, k >= 4, and admissible ell in (4k/3, 2k), the
    middle ratios are negative and the outer ones positive; exact signs
    agree with the float trig products wherever |value| > 1e-6."""
    profile = hermitian.gram_profile(16, 7)
    assert profile.diagonal_signs == (1, 1, -1, 1, 1)
    assert profile.signature == (4, 1)
    for p in range(16, 401, 4):
        for ell in selector_window(p):
            prof = hermitian.gram_profile(p, ell)
            assert prof.ratios[0] == 1 and prof.ratios[3] == 1
            assert prof.ratios[1] == -1 and prof.ratios[2] == -1
            for s in (1, 2):
                value = gram_ratio_float(s, p, ell)
                if abs(value) > 1e-6:
                    assert prof.ratios[s] == (1 if value > 0 else -1)
    _report(3, "signature anchor and window signs up to p = 400")


def test_criterion_04_scalar_obstructions():
    """At p = 16, ell = 1: every singleton case is obstructed; the only
    surviving pair multiset is {-zeta^4, 1}; the pair {zeta, -zeta} is
    obstructed by exponent arithmetic mod 2p = 32."""
    lams = certify.eigenvalue_tuple(16, 1)
    product = sum(lams)
    for lam in lams:
        assert certify.scalar_obstruction(16, product, (lam,)) == certify.SCALAR_OBSTRUCTED
    survivors = set()
    for i in range(5):
        for j in range(i + 1, 5):
            pair = (lams[i], lams[j])
            if certify.scalar_obstruction(16, product, pair) == certify.SURVIVES:
                survivors.add(frozenset(pair))
    assert survivors == {frozenset({lams[0], lams[2]})}  # the {-zeta^4, 1} class
    assert (lams[0], lams[2]) == (20, 0)  # -zeta^4 = zeta_32^20
    assert certify.scalar_obstruction(16, product, (lams[1], lams[3])) == (
        certify.SCALAR_OBSTRUCTED
    )
    _report(4, "scalar obstructions at (p, ell) = (16, 1)")


def test_criterion_05_burau_oracle_equivalence():
    """Exact closure terminates for -q of order 2, 3, 4, 5 and exceeds a
    5000-element cap for orders 7, 9, 11, matching the finite-order rule;
    total runtime under 60 s."""
    start = time.monotonic()
    for n in (2, 3, 4, 5):
        q = RootOfUnity(2 * n, n + 2)  # -q = zeta_n
        assert burau.minus_q_order(q) == n
        result = burau.burau_closure_oracle(q, 10000)
        assert isinstance(result, burau.FiniteOfOrder), n
        assert burau.burau_is_finite(n)
    for n in (7, 9, 11):
        q = RootOfUnity(2 * n, n + 2)
        assert burau.minus_q_order(q) == n
        result = burau.burau_closure_oracle(q, 5000)
        assert isinstance(result, burau.ExceedsCap), n
        assert not burau.burau_is_finite(n)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"closure runs took {elapsed:.2f}s"
    _report(5, f"closure oracle vs finite-order rule ({elapsed:.2f}s)")


def test_criterion_06_perron_anchors():
    """|mu(A_n) - 2cos(pi/(n+1))| <= 1e-9 for n <= 50; mu = 2 within 1e-9
    on the critical corpus; the exact classifier matches the
    spectral radius on 100+ random connected bipartite graphs with at most
    12 vertices."""
    for n in range(2, 51):
        data = veech.perron(veech.path_family(n))
        assert abs(data.mu - 2 * math.cos(math.pi / (n + 1))) <= 1e-9, n
    critical_corpus = [
        veech.cycle_family(4),
        veech.cycle_family(6),
        veech.cycle_family(8),
        veech.cycle_family(10),
        veech.star_family(4),
        veech.ConfigurationGraph(1, 1, ((0, 0, 2),), (1, 1)),
    ]
    for g in critical_corpus:
        data = veech.perron(g)
        assert abs(data.mu - 2.0) <= 1e-9
        assert veech.classify_graph(g) == veech.CRITICAL

    import random

    rng = random.Random(99)
    checked = 0
    while checked < 100:
        m = rng.randint(1, 6)
        k = rng.randint(1, 12 - m) if m < 11 else 1
        inter = [[0] * k for _ in range(m)]
        for i in range(m):
            inter[i][rng.randrange(k)] += 1
        for j in range(k):
            if not any(row[j] for row in inter):
                inter[rng.randrange(m)][j] += 1
        for _ in range(rng.randint(0, 4)):
            inter[rng.randrange(m)][rng.randrange(k)] += 1
        try:
            g = dense_graph(inter, (1,) * (m + k))
        except Exception:
            continue
        radius = spectral_radius(adjacency(g))
        if radius < 2 - 1e-9:
            expected = veech.RECESSIVE
        elif radius <= 2 + 1e-9:
            expected = veech.CRITICAL
        else:
            expected = veech.DOMINANT
        assert veech.classify_graph(g) == expected, (inter, radius)
        checked += 1
    _report(6, f"Perron anchors and {checked} random classifications")


def test_criterion_07_sl2_trichotomy():
    """DT_c and DT_d are parabolic for mu in {0.5, 1, 2, 3}; the mixed
    product DT_c DT_d^-1 is Anosov with trace 2 + mu^2, in exact rationals."""
    for mu in (0.5, 1.0, 2.0, 3.0):
        dt_c, dt_d = (sl2(*top, *bottom) for top, bottom in veech.multitwist_matrices(mu))
        assert sl2_type(dt_c) == PARABOLIC
        assert sl2_type(dt_d) == PARABOLIC
        mixed = sl2_mul(dt_c, sl2_inverse(dt_d))
        assert mixed[0] + mixed[3] == 2 + Fraction(mu) ** 2
        assert sl2_type(mixed) == ANOSOV
    _report(7, "SL2 trace trichotomy of the multitwist matrices")


def test_criterion_08_orbit_count_anchors():
    """N_g = floor(g/2) + 1 and N_{g,1} = g for 2 <= g <= 20; the (4, 0)
    bounds are (3, 4); the lower rank certifies non-vanishing for g >= 2."""
    for g in range(2, 21):
        assert orbits.count_orbits(g, 0) == g // 2 + 1
        assert orbits.count_orbits(g, 1) == g
    bounds = orbits.h2_bounds(4, 0)
    assert (bounds["lower_rank"], bounds["upper_bound"]) == (3, 4)
    for g in range(2, 21):
        assert orbits.h2_bounds(g, 0)["lower_rank"] >= 1
    _report(8, "orbit-count anchors and degree-2 bounds")


def test_criterion_09_fusion_marginalization():
    """Cut-and-sum reproduces the block dimension on 20+ (graph, cut, p)
    triples spanning tadpole, theta and dumbbell shapes for p in
    {5, 7, 8, 16}.  Exact integer identity."""
    triples = []
    for p in (5, 7, 8, 16):
        triples.extend(
            [
                (blocks.tadpole_graph(0), (0,), p),
                (blocks.tadpole_graph(2), (0,), p),
                (theta_graph(), (0,), p),
                (theta_graph(), (0, 1), p),
                (dumbbell_graph(), (1,), p),
                (dumbbell_graph(), (0,), p),
            ]
        )
    triples.append((chain_graph(), (2,), 8))
    triples.append((chain_graph(), (1,), 5))
    assert len(triples) >= 20
    for graph, cut, p in triples:
        assert cut_identity_check(graph, cut, p), (graph, cut, p)
    _report(9, f"fusion marginalization on {len(triples)} triples")


def test_criterion_10_twist_orders():
    """max over colors of the twist eigenvalue order divides 2p for 5 <= p <= 100."""
    for p in range(5, 101):
        orders = [
            2 * p // math.gcd(2 * p, twist_exponent(a, p)) for a in blocks.level_colors(p)
        ]
        assert all(2 * p % order == 0 for order in orders)
        assert 2 * p % max(orders) == 0
    _report(10, "twist orders divide 2p for 5 <= p <= 100")
