import hashlib
import itertools
import math
import random
import time

import numpy as np
import pytest

from oracles import (
    chain_graph,
    cut_identity_check,
    dumbbell_graph,
    handle_table_product,
    slice_sum_dimension,
    theta_graph,
    verlinde_dimension,
)
from quantcert.blocks import (
    ColoredGraph,
    _admissible,
    _fits,
    _geometry,
    _handle,
    _loop_positions,
    block_dimension,
    block_dimension_bruteforce,
    in_palette,
    level_colors,
    parse_colored_graph,
    tadpole_basis,
    tadpole_graph,
)
from quantcert.errors import GraphParseError, InvalidColor, InvalidGraph
from quantcert.roots import twist_exponent


class TestLevelColors:
    def test_odd_levels(self):
        assert level_colors(5) == (0, 2)
        assert level_colors(7) == (0, 2, 4)
        assert level_colors(13) == (0, 2, 4, 6, 8, 10)

    def test_even_levels(self):
        assert level_colors(16) == (0, 1, 2, 3, 4, 5, 6)
        assert level_colors(6) == (0, 1)

    def test_too_small(self):
        with pytest.raises(ValueError):
            level_colors(4)


class TestInPalette:
    def test_matches_palette_scan(self):
        """The range-and-parity test against the enumerated palette."""
        for p in range(5, 151):
            cols = level_colors(p)
            for c in range(-2, p + 1):
                assert in_palette(c, p) == (c in cols), (c, p)

    def test_tadpole_interval_matches_full_palette_filter(self):
        for p in [*range(5, 151), *range(795, 801)]:
            cols = level_colors(p)
            for i in range(-2, p + 1):
                if i in cols:
                    expected = tuple(a for a in cols if _admissible(a, a, i, p))
                    assert tadpole_basis(i, p) == expected, (i, p)
                else:
                    with pytest.raises(InvalidColor):
                        tadpole_basis(i, p)

    @pytest.mark.parametrize("p", [-1, 0, 4])
    def test_small_levels_raise_value_error(self, p):
        with pytest.raises(ValueError, match="level must be at least 5"):
            in_palette(0, p)
        with pytest.raises(ValueError, match="level must be at least 5"):
            _admissible(0, 0, 0, p)
        with pytest.raises(ValueError, match="level must be at least 5"):
            tadpole_basis(0, p)
        with pytest.raises(ValueError, match="level must be at least 5"):
            twist_exponent(0, p)


class TestIsAdmissible:
    def test_trivial_triple(self):
        assert _admissible(0, 0, 0, 7)

    def test_triangle_triple(self):
        assert _admissible(2, 2, 2, 7)

    def test_level_bound_even(self):
        # 6 + 6 + 2 = 14 exceeds the even bound p - 4 = 12
        assert not _admissible(6, 6, 2, 16)

    def test_triangle_inequality_even(self):
        # 6 > 2 + 2: fails the triangle inequality regardless of the bound
        assert not _admissible(2, 2, 6, 16)
        assert _admissible(2, 4, 6, 16)

    def test_parity(self):
        assert not _admissible(2, 2, 1, 16)

    def test_invalid_color_raises(self):
        assert not _admissible(1, 2, 3, 7)  # odd colors do not exist at odd level
        assert not _admissible(0, 0, 8, 16)


class TestTadpoleBasis:
    def test_boundary_p_minus_5_odd(self):
        assert tadpole_basis(6, 11) == (4, 6)  # p = 4k+3, k = 2: {2k, 2k+2}
        assert tadpole_basis(4, 9) == (2, 4)  # p = 4k+1, k = 2: {2k-2, 2k}

    def test_boundary_zero_gives_all_colors(self):
        # (a, a, 0) is admissible for every color a: the closed-torus count
        for p in (5, 7, 9, 16):
            assert tadpole_basis(0, p) == level_colors(p)

    def test_even_window(self):
        assert tadpole_basis(2, 16) == (1, 2, 3, 4, 5)
        assert tadpole_basis(4, 20) == (2, 3, 4, 5, 6)  # k = 5: {k-3..k+1}

    def test_invalid_tail(self):
        with pytest.raises(InvalidColor):
            tadpole_basis(3, 7)


class TestColoredGraph:
    def test_trivalence_enforced(self):
        with pytest.raises(InvalidGraph):
            ColoredGraph(vertices=(1,), edges=((1, 1),))  # degree 2
        with pytest.raises(InvalidGraph):
            ColoredGraph(vertices=(1, 2), edges=((1, 2),), tails=((1, 0),))

    def test_loop_counts_twice(self):
        g = tadpole_graph(0)
        assert len(g.edges) == 1 and len(g.tails) == 1

    def test_corpus_graphs_are_valid(self):
        theta_graph()
        dumbbell_graph()
        chain_graph()


class TestBlockDimension:
    def test_tadpole_dimension_2(self):
        assert block_dimension(tadpole_graph(4), 9) == 2

    def test_tadpole_dimension_5(self):
        assert block_dimension(tadpole_graph(2), 16) == 5

    def test_tadpole_tail_zero(self):
        assert block_dimension(tadpole_graph(0), 5) == 2
        assert block_dimension(tadpole_graph(0), 7) == 3

    def test_dimension_equals_basis_length(self):
        for p in (5, 7, 9, 16, 20, 799, 800):
            for i in level_colors(p):
                assert block_dimension(tadpole_graph(i), p) == len(tadpole_basis(i, p))

    def test_h_is_the_tadpole_basis_length_at_every_position(self):
        """The loop-position rule gives len(tadpole_basis) at every palette
        position, and so does the closed form top + 1 - x for step | x (0
        otherwise) that ``block_dimension`` and ``_handle`` build on."""
        for p in range(5, 801):
            bound, step, _ = _geometry(p)
            top = bound // 2
            h = [len(_loop_positions(x, bound, step)) for x in range(top + 1)]
            assert h == [len(tadpole_basis(c, p)) for c in level_colors(p)], p
            assert h == [top + 1 - x if x % step == 0 else 0 for x in range(top + 1)], p

    def test_out_of_palette_tail_gives_zero(self):
        assert block_dimension(tadpole_graph(3), 7) == 0

    @pytest.mark.parametrize("p", [5, 7, 8, 16, 20])
    def test_dp_matches_bruteforce(self, p):
        graphs = [
            tadpole_graph(0),
            tadpole_graph(2),
            theta_graph(),
            dumbbell_graph(),
            chain_graph(),
        ]
        for g in graphs:
            assert block_dimension(g, p) == block_dimension_bruteforce(g, p)

    def test_disconnected_graph_multiplies(self):
        two_tadpoles = ColoredGraph(
            vertices=(1, 2),
            edges=((1, 1), (2, 2)),
            tails=((1, 0), (2, 0)),
        )
        for p in (5, 7, 16):
            single = block_dimension(tadpole_graph(0), p)
            assert block_dimension(two_tadpoles, p) == single**2

    @pytest.mark.parametrize("p", [5, 7, 8, 16, 20])
    def test_dumbbell_decomposes_over_the_bridge(self, p):
        """dim(dumbbell) = sum over bridge colors of the two tadpole sizes."""
        expected = sum(
            len(tadpole_basis(c, p)) ** 2 for c in level_colors(p)
        )
        assert block_dimension(dumbbell_graph(), p) == expected


def _eliminate(graph: ColoredGraph, p: int) -> int:
    """Sum-product oracle: admissibility tables summed out edge by edge.

    Each vertex contributes its admissibility table over its sorted edge
    variables (object arrays of Python ints); edges are summed out one at a
    time, always the one whose merged scope is smallest.  It counts the same
    colorings as the brute force without enumerating whole assignments.
    """
    cols = np.array(level_colors(p), dtype=object)
    n = len(cols)
    factors: list[tuple[tuple[int, ...], np.ndarray]] = []
    for v in graph.vertices:
        tails, slots = graph.vertex_slots(v)
        scope = tuple(sorted(set(slots)))
        axes = [cols.reshape([n if x == e else 1 for x in scope]) for e in slots]
        tails_ok = all(in_palette(t, p) for t in tails)
        table = np.array(_fits(*tails, *axes, p) & tails_ok, dtype=object)
        factors.append((scope, table))
    remaining = list(range(len(graph.edges)))
    while remaining:
        scopes = {
            x: sorted(set().union(*(s for s, _t in factors if x in s)))
            for x in remaining
        }
        var = min(remaining, key=lambda x: len(scopes[x]))
        merged = scopes[var]
        product = 1
        for scope, table in factors:
            if var in scope:
                shape = [n if x in scope else 1 for x in merged]
                product = product * table.reshape(shape)
        summed = np.array(product.sum(axis=merged.index(var)), dtype=object)
        factors = [f for f in factors if var not in f[0]]
        factors.append((tuple(x for x in merged if x != var), summed))
        remaining.remove(var)
    return math.prod(int(table) for _scope, table in factors)


def _k4() -> ColoredGraph:
    """The complete graph on four vertices: closed, first Betti number 3."""
    return ColoredGraph((1, 2, 3, 4), ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))


def _ring_of_tadpoles(k: int) -> ColoredGraph:
    """A k-cycle whose every vertex carries a pendant tadpole."""
    ring = tuple((i, i % k + 1) for i in range(1, k + 1))
    pendants = tuple((i, k + i) for i in range(1, k + 1))
    loops = tuple((k + i, k + i) for i in range(1, k + 1))
    return ColoredGraph(tuple(range(1, 2 * k + 1)), ring + pendants + loops)


def _caterpillar(n: int) -> ColoredGraph:
    """A path of n vertices, tail color 2v at vertex v and a second tail at each end."""
    edges = tuple((v, v + 1) for v in range(1, n))
    tails = tuple((v, 2 * v) for v in range(1, n + 1)) + ((1, 2), (n, 2 * n))
    return ColoredGraph(tuple(range(1, n + 1)), edges, tails)


def _prism(k: int) -> ColoredGraph:
    """C_k x K_2: two k-cycles joined by k rungs; closed, first Betti number k + 1."""
    ring = tuple((i, i % k + 1) for i in range(1, k + 1))
    other = tuple((u + k, v + k) for u, v in ring)
    rungs = tuple((i, i + k) for i in range(1, k + 1))
    return ColoredGraph(tuple(range(1, 2 * k + 1)), ring + other + rungs)


def _random_trivalent(
    rng: random.Random, p: int, most: int = 5, wild: tuple[int, int] = (-3, 14)
) -> ColoredGraph:
    """Random pairing of half-edges on 1..most vertices, some left as tails.

    One tail in five gets a color from the range ``wild``, mostly outside the palette.
    """
    n = rng.randint(1, most)
    half = [v for v in range(1, n + 1) for _ in range(3)]
    rng.shuffle(half)
    t = rng.choice(range(n % 2, 3 * n + 1, 2))
    colors = [rng.choice(level_colors(p)) for _ in range(4)] + [rng.randint(*wild)]
    tails = tuple((v, rng.choice(colors)) for v in half[:t])
    rest = half[t:]
    return ColoredGraph(tuple(range(1, n + 1)), tuple(zip(rest[::2], rest[1::2])), tails)


class TestAgainstOracles:
    def test_ring_of_tadpoles_is_a_transfer_matrix_trace(self):
        """dim = trace(M^k), M[a][b] = sum_c [(a, b, c) admissible] * |tadpole(c)|.

        The trace walks the ring, an oracle independent of the fusion-ring
        product (17 handles); the count has 121 bits, so it also pins
        exactness past int64.
        """
        k, p = 16, 30
        cols = level_colors(p)
        m = [
            [
                sum(len(tadpole_basis(c, p)) for c in cols if _admissible(a, b, c, p))
                for b in cols
            ]
            for a in cols
        ]
        power = [[int(i == j) for j in range(len(cols))] for i in range(len(cols))]
        for _ in range(k):
            power = [
                [sum(row[x] * m[x][j] for x in range(len(cols))) for j in range(len(cols))]
                for row in power
            ]
        expected = sum(power[i][i] for i in range(len(cols)))
        assert expected.bit_length() > 63
        assert block_dimension(_ring_of_tadpoles(k), p) == expected

    def test_random_graphs_match_bruteforce(self):
        rng = random.Random(4)
        corpus = [
            (ColoredGraph((1,), (), ((1, 0), (1, 2), (1, 2))), 7),
            (ColoredGraph((1,), (), ((1, 2), (1, 2), (1, -2))), 9),
            (ColoredGraph((1, 2), ((1, 1),), ((1, -1), (2, 0), (2, 1), (2, 1))), 8),
            (ColoredGraph((1, 2), ((1, 1), (2, 2)), ((1, 2), (2, 99))), 11),
            (ColoredGraph((1, 2, 3), ((1, 2),) * 3 + ((3, 3),), ((3, 2),)), 6),
        ]
        for p in (rng.randint(5, 14) for _ in range(400)):
            corpus.append((_random_trivalent(rng, p), p))
        checked = 0
        for g, p in corpus:
            dim = block_dimension(g, p)
            assert dim == _eliminate(g, p), (g, p)
            if len(level_colors(p)) ** len(g.edges) <= 4096:
                assert dim == block_dimension_bruteforce(g, p), (g, p)
                checked += 1
        assert checked >= 300

    def test_prefix_sums_match_the_slice_sum_product(self):
        """Every level 5..200 on theta, dumbbell, chain, K4 and seeded random graphs
        of up to 8 vertices with tails, against the slice-sum product: its tail colors
        include odd ones at even p and ones outside the palette.  The handle product
        read off moment prefix sums equals the H-table product on seeded random
        vectors at every level 5..300."""
        vectors = random.Random(7)
        for p in range(5, 301):
            top = _geometry(p)[0] // 2
            for _ in range(3):
                v = [vectors.randint(-(10**9), 10**9) for _ in range(top + 1)]
                assert _handle(v, p) == handle_table_product(v, p), p
        rng = random.Random(6)
        odd_at_even = outside = nonzero = 0
        for p in range(5, 201):
            graphs = [theta_graph(), dumbbell_graph(), chain_graph(), _k4()]
            graphs += [_random_trivalent(rng, p, 8, (-3, p + 3)) for _ in range(6)]
            for g in graphs:
                dim = block_dimension(g, p)
                assert dim == slice_sum_dimension(g, p), (g, p)
                tails = [c for _v, c in g.tails]
                odd_at_even += p % 2 == 0 and any(c % 2 for c in tails if in_palette(c, p))
                outside += not all(in_palette(c, p) for c in tails)
                nonzero += dim > 0
        assert min(odd_at_even, outside) >= 400 and nonzero >= 1100, (odd_at_even, outside, nonzero)

    def test_random_graphs_at_higher_levels_match_elimination(self):
        """Levels past the brute force's reach, against the elimination alone."""
        rng = random.Random(5)
        for _ in range(60):
            p = rng.randint(15, 40)
            g = _random_trivalent(rng, p)
            assert block_dimension(g, p) == _eliminate(g, p), (g, p)

    def test_verlinde_formula_matches_on_connected_graphs(self):
        """Tadpoles, theta, K4 and three-tailed vertices against the float sum."""
        checked = 0
        for p in range(5, 60):
            cols = level_colors(p)
            picks = sorted({cols[0], cols[1], cols[len(cols) // 2], cols[-1]})
            cases = [(tadpole_graph(a), 1, (a,)) for a in cols]
            cases += [(theta_graph(), 2, ()), (_k4(), 3, ())]
            cases += [
                (ColoredGraph((1,), (), tuple((1, a) for a in tails)), 0, tails)
                for tails in itertools.combinations_with_replacement(picks, 3)
            ]
            for g, genus, tails in cases:
                dim, expected = block_dimension(g, p), verlinde_dimension(genus, tails, p)
                assert abs(dim - expected) <= 1e-6 * max(dim, 1), (g, p, expected)
                checked += 1
        assert checked == 1997

    @pytest.mark.parametrize(
        "graph, p, bits, digest, seconds",
        [
            pytest.param(
                _caterpillar(100), 799, 609,
                "97aee2a95b0f05346ba159bf90608dd0a3b800fa5df48fb344443a7d36e54f6a", 0.05,
                id="caterpillar-799",
            ),
            pytest.param(
                _caterpillar(100), 800, 595,
                "f04e23a635c90b11ab4ff6dc28a00488e5a39f822c9425ce3469962729935f7c", 0.05,
                id="caterpillar-800",
            ),
            pytest.param(
                _prism(10), 400, 188,
                "48d3df38e58e1eb0e32f0f76c72e3ffe703899a370d7dbbd97986911a41173e8", None,
                id="prism10-400",
            ),
            pytest.param(
                _prism(10), 401, 207,
                "9058d2d8a9cff92ca30837003a5563ca46afefee663d6845529b38dff9c7a4bc", None,
                id="prism10-401",
            ),
        ],
    )
    def test_values_past_the_oracles_reach_are_pinned(self, graph, p, bits, digest, seconds):
        """Bit length and sha256 of the decimal, as the numpy fusion-matrix
        product computed them: 102 tails at the top level, and a genus-11
        closed graph.  The caterpillar's 102 tails cost one O(|palette|)
        product each, so its best of 3 must also come under ``seconds``."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            dim = block_dimension(graph, p)
            times.append(time.perf_counter() - start)
        assert (dim.bit_length(), hashlib.sha256(str(dim).encode()).hexdigest()) == (bits, digest)
        assert seconds is None or min(times) < seconds, times

    @pytest.mark.parametrize("p, expected", [(81, 196430508), (121, 2180952642)])
    def test_k4_at_high_level_is_pinned_and_fast(self, p, expected):
        start = time.perf_counter()
        assert block_dimension(_k4(), p) == expected
        assert time.perf_counter() - start < 1.0


class TestCutIdentity:
    def test_theta_cut_one_edge(self):
        assert cut_identity_check(theta_graph(), (0,), 5)

    def test_tadpole_cut_loop(self):
        assert cut_identity_check(tadpole_graph(2), (0,), 7)

    def test_chain_cut_middle(self):
        assert cut_identity_check(chain_graph(), (2,), 8)

    @pytest.mark.parametrize("p", [5, 7, 8, 16])
    def test_corpus(self, p):
        cases = [
            (tadpole_graph(0), (0,)),
            (tadpole_graph(2), (0,)),
            (theta_graph(), (0,)),
            (theta_graph(), (0, 1)),
            (dumbbell_graph(), (1,)),
            (dumbbell_graph(), (0,)),
        ]
        for g, cut in cases:
            assert cut_identity_check(g, cut, p)


class TestParser:
    def test_round_trip_tadpole(self):
        g = parse_colored_graph("vertices=1; edges=1-1; tails=1:2")
        assert g == tadpole_graph(2)

    def test_whitespace_insensitive(self):
        g = parse_colored_graph(" vertices = 2 ;  edges = 1-2 , 1-2,1 - 2 ")
        assert g == theta_graph()

    def test_bad_edge_token_named(self):
        with pytest.raises(GraphParseError) as err:
            parse_colored_graph("vertices=2; edges=1-2,1*2,1-2")
        assert "1*2" in str(err.value)
        assert err.value.position > 0

    def test_positions_point_past_earlier_copies(self):
        with pytest.raises(GraphParseError) as err:
            parse_colored_graph("vertices=1; edges=1-1, 1-")
        assert err.value.token == "1-"
        assert err.value.position == 23
        with pytest.raises(GraphParseError) as err:
            parse_colored_graph("vertices=1; edges=1-1; edges")
        assert err.value.token == "edges"
        assert err.value.position == 22

    def test_bad_section(self):
        with pytest.raises(GraphParseError):
            parse_colored_graph("vertices=1; loops=1-1")

    def test_missing_vertices(self):
        with pytest.raises(GraphParseError):
            parse_colored_graph("edges=1-2")

    def test_non_trivalent_reported_as_parse_error(self):
        with pytest.raises(InvalidGraph):
            parse_colored_graph("vertices=2; edges=1-2")
