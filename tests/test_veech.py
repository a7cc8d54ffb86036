import heapq
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    ANOSOV,
    ELLIPTIC,
    PARABOLIC,
    adjacency,
    classify_by_fractions,
    dense_graph,
    family_from_edges,
    flat_surface,
    graph_from_edges,
    intersection_matrix,
    random_connected_bipartite,
    sl2,
    sl2_inverse,
    sl2_mul,
    sl2_type,
    spectral_radius,
)
from quantcert import veech
from quantcert.errors import (
    DisconnectedGraph,
    GraphParseError,
    InvalidGraph,
    InvariantViolation,
)
from quantcert.veech import (
    CRITICAL,
    DOMINANT,
    FINITE_INDEX_IN_VEECH,
    NOT_FINITE_INDEX,
    MULTIPLICITY_CAP,
    RECESSIVE,
    VERTEX_BUDGET,
    ConfigurationGraph,
    classify_graph,
    cycle_family,
    exceptional_family,
    flat_surface_json,
    forked_path_family,
    lattice_certificate,
    multitwist_matrices,
    parse_config_spec,
    parse_family,
    parse_intersections,
    path_family,
    perron,
    star_family,
)


class TestConfigurationGraph:
    def test_single_intersection(self):
        g = ConfigurationGraph(1, 1, ((0, 0, 1),), (1, 1))
        assert g.m == 1 and g.k == 1 and g.points == ((0, 0, 1),)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            ConfigurationGraph(2, 2, ((0, 0, 1), (1, 1, 1)), (1, 1, 1, 1))
        with pytest.raises(DisconnectedGraph):
            dense_graph(((1, 0), (0, 1)), (1, 1, 1, 1))
        # a zero count is no intersection: (1, 1) does not join the two halves
        with pytest.raises(DisconnectedGraph):
            ConfigurationGraph(2, 2, ((0, 0, 1), (1, 1, 1), (1, 0, 0)), (1,) * 4)

    def test_graph_holds_only_its_points(self):
        """Repeated pairs are summed, zeros dropped and the triples sorted;
        the four fields are all a graph holds, and no step adds an array."""
        given = [(1, 1, 2), (0, 1, 1), (0, 0, 2), (1, 1, 1), (1, 0, 0), (0, 1, 0)]
        g = ConfigurationGraph(2, 2, given, (1, 1, 1, 1))
        assert g.points == ((0, 0, 2), (0, 1, 1), (1, 1, 3))
        assert g == ConfigurationGraph(2, 2, g.points, (1, 1, 1, 1))
        assert perron(g).mu > 0 and classify_graph(g) == DOMINANT
        flat_surface_json(g, perron(g))
        assert set(vars(g)) == {"m", "k", "points", "multiplicities"}

    def test_points_outside_the_block_or_negative_rejected(self):
        for point in ((2, 0, 1), (0, 3, 1), (-1, 0, 1), (0, -1, 1)):
            with pytest.raises(InvalidGraph, match="outside the 2-by-3 block"):
                ConfigurationGraph(2, 3, ((0, 0, 1), point), (1,) * 5)
        with pytest.raises(InvalidGraph, match="nonnegative"):
            ConfigurationGraph(1, 1, ((0, 0, 2), (0, 0, -1)), (1, 1))
        with pytest.raises(InvalidGraph, match="at least one component"):
            ConfigurationGraph(0, 1, (), (1,))

    def test_parse_and_classify_hold_no_block(self):
        """Traced peak of parsing and classifying the longest path admitted.

        Both read the 1999 points once; an m-by-k block at m = k = 1000
        would be 8 MB on its own.
        """
        parse_config_spec("A:20")  # leave one-time imports out of the trace
        tracemalloc.start()
        try:
            assert classify_graph(parse_config_spec(f"A:{VERTEX_BUDGET}")) == RECESSIVE
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_bad_multiplicities(self):
        with pytest.raises(InvalidGraph):
            ConfigurationGraph(1, 1, ((0, 0, 1),), (1, 0))
        with pytest.raises(InvalidGraph):
            ConfigurationGraph(1, 1, ((0, 0, 1),), (1,))


class TestIntersectionMatrix:
    def test_unit_multiplicities(self):
        g = ConfigurationGraph(1, 1, ((0, 0, 1),), (1, 1))
        assert intersection_matrix(g).tolist() == [[0, 1], [1, 0]]

    def test_row_scaling_by_multiplicity(self):
        g = ConfigurationGraph(1, 1, ((0, 0, 1),), (2, 3))
        assert intersection_matrix(g).tolist() == [[0, 2], [3, 0]]

    def test_path_graph(self):
        n = intersection_matrix(path_family(3))
        # bipartite ordering groups the two end vertices first
        assert sorted(map(tuple, n.tolist())) == [(0, 0, 1), (0, 0, 1), (1, 1, 0)]


class TestPerron:
    def test_swap_matrix(self):
        data = perron(ConfigurationGraph(1, 1, ((0, 0, 1),), (1, 1)))  # N = [[0, 1], [1, 0]]
        assert abs(data.mu - 1.0) < 1e-9
        assert all(abs(x - 1 / math.sqrt(2)) < 1e-9 for x in data.v)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 25, 50, 400])
    def test_path_eigenvalue(self, n):
        data = perron(path_family(n))
        assert abs(data.mu - 2 * math.cos(math.pi / (n + 1))) <= 1e-9

    def test_residual_bound(self):
        for g in (path_family(7), cycle_family(8), star_family(5)):
            data = perron(g)
            assert data.residual <= 1e-10 * data.mu
            assert all(x > 0 for x in data.v)

    def test_bad_eigenpair_is_an_invariant_violation(self, monkeypatch):
        # the solve sees the smaller side's Gram matrix: 2 x 2 here, on the
        # first side of a 2 x 3 block and on the second side of its transpose
        real_eigh = np.linalg.eigh
        for block in (((1, 1, 0), (0, 1, 1)), ((1, 0), (1, 1), (0, 1))):
            g = dense_graph(block, (1,) * 5)
            x = np.asarray(block, dtype=float)
            gram = x @ x.T if g.m <= g.k else x.T @ x
            seen = []
            monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or real_eigh(a))
            perron(g)
            assert len(seen) == 1 and np.array_equal(seen[0], gram)
            values, vectors = real_eigh(gram)
            monkeypatch.setattr(np.linalg, "eigh", lambda _: (values + 0.1, vectors))
            with pytest.raises(InvariantViolation, match="residual"):
                perron(g)
            # a true eigenpair, but not the Perron one: its vector changes sign
            monkeypatch.setattr(np.linalg, "eigh", lambda _: (values[::-1], vectors[:, ::-1]))
            with pytest.raises(InvariantViolation, match="positive"):
                perron(g)

    def test_solve_holds_no_square_matrix(self):
        """Traced peak of one Perron solve on the largest graphs admitted.

        A dense (m + k)-square float matrix at 2000 vertices is 32 MB and the
        solve would hold several; the block and the smaller side's Gram
        matrix stay well under 48 MB, on either orientation.
        """
        long_star = ",".join(f"({i},1,1)" for i in range(1, VERTEX_BUDGET))
        for g in (path_family(VERTEX_BUDGET), parse_intersections(long_star)):
            tracemalloc.start()
            try:
                perron(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 48 * 2**20, (g.m, g.k, peak)

    def test_against_dense_eigensolver(self):
        """The smaller-side solve against eigh of the full D^(1/2) A D^(1/2).

        Square-ish unit graphs, then weighted graphs with lopsided shapes
        (k in {1, 2} with m up to 12, and the reverse), so the solve runs on
        each side.
        """
        rng = random.Random(7)
        shapes = [(rng.randint(1, 4), rng.randint(1, 4), False) for _ in range(25)]
        for _ in range(20):
            long, short = rng.randint(1, 12), rng.randint(1, 2)
            shapes += [(long, short, True), (short, long, True)]
        checked = set()
        for m, k, weighted in shapes:
            inter = [[rng.randint(0, 2) for _ in range(k)] for _ in range(m)]
            # force connectivity: chain every vertex through the first column/row
            for i in range(m):
                if not any(inter[i]):
                    inter[i][rng.randrange(k)] = 1
            for j in range(k):
                if not any(row[j] for row in inter):
                    inter[rng.randrange(m)][j] = 1
            mult = tuple(rng.randint(1, 5) if weighted else 1 for _ in range(m + k))
            try:
                g = dense_graph(inter, mult)
            except DisconnectedGraph:
                continue
            data = perron(g)
            assert abs(data.mu - spectral_radius(intersection_matrix(g))) < 1e-8
            root = np.sqrt(np.asarray(mult, dtype=float))
            values, vectors = np.linalg.eigh(root[:, None] * adjacency(g) * root[None, :])
            assert abs(data.mu - values[-1]) <= 1e-12 * values[-1]
            dense = root * vectors[:, -1]
            dense *= np.sign(dense.sum()) / np.linalg.norm(dense)
            assert np.max(np.abs(np.asarray(data.v) - dense)) < 1e-9, (inter, mult)
            checked.add((m > k) - (m < k))
        assert checked == {-1, 0, 1}


def multitwists(mu):
    """DT_c and DT_d of ``veech.multitwist_matrices`` as exact SL2 matrices."""
    return [sl2(*top, *bottom) for top, bottom in multitwist_matrices(mu)]


class TestMultitwistMatrices:
    def test_shape(self):
        dt_c, dt_d = multitwist_matrices(1.0)
        assert dt_c == ((1.0, 1.0), (0.0, 1.0))
        assert dt_d == ((1.0, 0.0), (-1.0, 1.0))

    def test_product_trace_mu2(self):
        dt_c, dt_d = multitwists(2.0)
        assert sl2_type(sl2_mul(dt_c, dt_d)) == PARABOLIC  # trace 2 - mu^2 = -2

    def test_product_trace_mu3(self):
        dt_c, dt_d = multitwists(3.0)
        assert sl2_type(sl2_mul(dt_c, dt_d)) == ANOSOV  # trace -7


class TestClassifySL2:
    def test_parabolic(self):
        assert sl2_type(sl2(1, 3, 0, 1)) == PARABOLIC

    def test_elliptic(self):
        assert sl2_type(sl2(0, 1, -1, 0)) == ELLIPTIC

    def test_anosov(self):
        assert sl2_type(sl2(2, 1, 1, 1)) == ANOSOV

    def test_determinant_checked(self):
        with pytest.raises(AssertionError):
            sl2(2, 0, 0, 2)

    def test_long_product_keeps_determinant_one(self):
        # every factor is checked for determinant exactly 1 on the way
        dt_c, dt_d = multitwists(3.0)
        product = dt_c
        for _ in range(15):
            product = sl2_mul(product, sl2_mul(dt_d, dt_c))
        assert abs(product[0]) > 10**12
        assert sl2_type(product) == ANOSOV

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
    def test_trichotomy_of_multitwists(self, mu):
        dt_c, dt_d = multitwists(mu)
        assert sl2_type(dt_c) == PARABOLIC
        assert sl2_type(dt_d) == PARABOLIC
        mixed = sl2_mul(dt_c, sl2_inverse(dt_d))
        assert mixed[0] + mixed[3] == 2 + Fraction(mu) ** 2
        assert sl2_type(mixed) == ANOSOV


class TestClassifyGraph:
    def test_recessive_families(self):
        assert classify_graph(path_family(5)) == RECESSIVE
        assert classify_graph(forked_path_family(6)) == RECESSIVE
        for n in (6, 7, 8):
            assert classify_graph(exceptional_family(n)) == RECESSIVE

    def test_critical_families(self):
        assert classify_graph(cycle_family(6)) == CRITICAL
        assert classify_graph(cycle_family(8)) == CRITICAL
        assert classify_graph(star_family(4)) == CRITICAL
        doubled = ConfigurationGraph(1, 1, ((0, 0, 2),), (1, 1))
        assert classify_graph(doubled) == CRITICAL

    def test_dominant(self):
        assert classify_graph(star_family(5)) == DOMINANT
        complete_23 = dense_graph(((1, 1, 1), (1, 1, 1)), (1,) * 5)
        assert classify_graph(complete_23) == DOMINANT

    @pytest.mark.parametrize("n", [250, 500, 1000])
    def test_pivot_selection_is_linear(self, monkeypatch, n):
        """At most 3 heap pops per vertex on paths, stars and cycles."""
        pops = 0
        real_pop = heapq.heappop

        def counting_pop(heap):
            nonlocal pops
            pops += 1
            return real_pop(heap)

        monkeypatch.setattr(veech.heapq, "heappop", counting_pop)
        for g in (path_family(n), star_family(n), cycle_family(2 * n)):
            pops = 0
            classify_graph(g)
            assert 0 < pops <= 3 * g.size, (g.size, pops)

    def test_more_points_than_vertices_needs_no_elimination(self, monkeypatch):
        """E > V is dominant by counting: no heap pop at all."""

        def no_pop(heap):
            raise AssertionError("classify_graph eliminated a graph with E > V")

        monkeypatch.setattr(veech.heapq, "heappop", no_pop)
        complete_64 = dense_graph(((1,) * 64,) * 64, (1,) * 128)
        weighted_23 = dense_graph(((1, 1, 1), (1, 1, 1)), (1, 2, 3, 1, 2))
        tripled = ConfigurationGraph(1, 1, ((0, 0, 3),), (1, 1))
        for g in (complete_64, weighted_23, tripled):
            assert classify_graph(g) == DOMINANT

    def test_critical_eigenvalues_are_exactly_two(self):
        for g in (cycle_family(6), cycle_family(10), star_family(4)):
            data = perron(g)
            assert abs(data.mu - 2.0) <= 1e-9

    def test_nonunit_multiplicities_classified_exactly(self):
        g = ConfigurationGraph(1, 1, ((0, 0, 1),), (2, 2))  # N = [[0,2],[2,0]], radius 2
        assert classify_graph(g) == CRITICAL
        g = ConfigurationGraph(1, 1, ((0, 0, 1),), (2, 3))  # radius sqrt(6)
        assert classify_graph(g) == DOMINANT

    def test_weighted_stars_against_closed_form(self):
        # centre multiplicity a, leaf multiplicities bs: mu^2 = a * sum(bs), so
        # the exactly critical cases include the edges (1, 4), (4, 1), (2, 2)
        # and the two-leaf star (1, 2, 2)
        by_sign = {-1: RECESSIVE, 0: CRITICAL, 1: DOMINANT}
        for a in range(1, 13):
            for leaves in (1, 2, 3):
                for bs in itertools.combinations_with_replacement(range(1, 5), leaves):
                    g = dense_graph(((1,) * leaves,), (a, *bs))
                    mu_sq = a * sum(bs)
                    expected = by_sign[(mu_sq > 4) - (mu_sq < 4)]
                    assert classify_graph(g) == expected, (a, bs)
                    cert = lattice_certificate(g)
                    assert cert["teichmuller_curve_by_mu"] == (expected != DOMINANT)
                    assert abs(perron(g).mu - math.sqrt(mu_sq)) <= 1e-12 * mu_sq

    def test_combinatorial_matches_spectral_on_random_corpus(self):
        # half unit multiplicities, half drawn from {1, 2, 3}; a quarter dense,
        # with up to m * k extra points, so both E > V and E <= V are checked
        rng = random.Random(20240817)
        checked = 0
        sides = set()
        while checked < 320:
            try:
                g = random_connected_bipartite(
                    rng, weighted=checked % 2 == 1, dense=checked % 8 >= 6
                )
            except DisconnectedGraph:
                continue
            radius = spectral_radius(intersection_matrix(g))
            if radius < 2 - 1e-9:
                expected = RECESSIVE
            elif radius <= 2 + 1e-9:
                expected = CRITICAL
            else:
                expected = DOMINANT
            cls = classify_graph(g)
            assert cls == expected, (g, radius)
            points_over_vertices = adjacency(g).sum() > 2 * g.size
            assert cls == DOMINANT or not points_over_vertices, g
            sides.add(points_over_vertices)
            checked += 1
        assert sides == {False, True}


    def test_integer_pairs_match_fractions_and_spectral(self):
        """The integer-pair elimination against the same elimination in
        Fractions and against the float spectral radius, on random trees,
        trees with one count-2 point and one-cycle graphs (E <= V, so every
        one reaches the elimination), with unit, small and capped
        multiplicities, plus affine shapes and weighted edges at mu = 2."""
        rng = random.Random(20261018)
        graphs = [random_sparse_graph(rng) for _ in range(2400)]
        graphs += [cycle_family(n) for n in range(4, 21, 2)] + [star_family(4)]
        graphs += [parse_family(spec) for spec in ("E:6", "E:7", "E:8", "D:9")]
        # the affine trees D~n (a path with a fork at each end) and E~6
        graphs += [graph_from_edges(len(edges) + 1, edges) for edges in AFFINE_TREES]
        graphs += [ConfigurationGraph(1, 1, ((0, 0, 1),), d) for d in ((1, 4), (4, 1), (2, 2))]
        graphs.append(ConfigurationGraph(1, 2, ((0, 0, 1), (0, 1, 1)), (1, 2, 2)))
        seen = {RECESSIVE: 0, CRITICAL: 0, DOMINANT: 0}
        for g in graphs:
            assert sum(count for _, _, count in g.points) <= g.size, g
            radius = spectral_radius(intersection_matrix(g))
            if radius < 2 - 1e-9:
                expected = RECESSIVE
            elif radius <= 2 + 1e-9:
                expected = CRITICAL
            else:
                expected = DOMINANT
            cls = classify_graph(g)
            assert cls == classify_by_fractions(g) == expected, (g, radius)
            seen[cls] += 1
        assert min(seen.values()) >= 50, seen
        assert any(max(g.multiplicities) > 10**5 for g in graphs)

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (f"A:{VERTEX_BUDGET}", RECESSIVE),  # mu = 2 cos(pi / 2001)
            (f"cycle:{VERTEX_BUDGET - 2}", CRITICAL),
            (f"star:{VERTEX_BUDGET - 1}", DOMINANT),  # mu = sqrt(1999)
        ],
    )
    def test_integer_pairs_match_fractions_at_the_budget(self, spec, expected):
        g = parse_family(spec)
        assert classify_graph(g) == classify_by_fractions(g) == expected


#: affine Dynkin trees as edge lists, each critical with unit multiplicities
AFFINE_TREES = [
    [(0, 2), (1, 2)] + [(v, v + 1) for v in range(2, n - 3)] + [(n - 3, n - 2), (n - 3, n - 1)]
    for n in range(6, 12)
] + [[(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]]


def random_sparse_graph(rng) -> ConfigurationGraph:
    """A random tree on 2 to 14 vertices, as it stands, with one point of
    count 2, or with one more edge closing a cycle; sides by depth parity.
    Multiplicities are all 1, drawn from 1..4, or all 1 but one vertex at
    up to ``MULTIPLICITY_CAP``."""
    size = rng.randint(2, 14)
    parent = [0] + [rng.randrange(v) for v in range(1, size)]
    side = [0] * size
    for v in range(1, size):
        side[v] = 1 - side[parent[v]]
    edges = {(parent[v], v): 1 for v in range(1, size)}
    kind = rng.randrange(3)
    if kind == 1:
        edges[rng.choice(list(edges))] = 2
    elif kind == 2:
        chords = [
            (u, w) for u in range(size) for w in range(u + 1, size)
            if side[u] != side[w] and (u, w) not in edges
        ]
        if chords:
            edges[rng.choice(chords)] = 1
    index = [sum(side[u] == side[v] for u in range(v)) for v in range(size)]
    m = side.count(0)
    points = [
        (index[u], index[w], count) if side[u] == 0 else (index[w], index[u], count)
        for (u, w), count in edges.items()
    ]
    weights = rng.randrange(3)
    mult = [rng.randint(1, 4) if weights == 1 else 1 for _ in range(size)]
    if weights == 2:
        mult[rng.randrange(size)] = rng.randint(1, MULTIPLICITY_CAP)
    # multiplicities run over the first side, then the second, each in index order
    order = sorted(range(size), key=lambda v: (side[v], index[v]))
    return ConfigurationGraph(m, size - m, points, tuple(mult[v] for v in order))


class TestLatticeCertificate:
    def test_path(self):
        cert = lattice_certificate(path_family(3))
        assert cert["lattice_status"] == FINITE_INDEX_IN_VEECH
        assert cert["graph_class"] == RECESSIVE
        assert cert["teichmuller_curve_by_mu"]
        assert abs(perron(path_family(3)).mu - math.sqrt(2)) < 1e-9

    def test_cycle(self):
        cert = lattice_certificate(cycle_family(6))
        assert cert["lattice_status"] == FINITE_INDEX_IN_VEECH
        assert cert["graph_class"] == CRITICAL
        assert abs(perron(cycle_family(6)).mu - 2.0) <= 1e-9

    def test_complete_bipartite_2x3(self):
        g = dense_graph(((1, 1, 1), (1, 1, 1)), (1,) * 5)
        cert = lattice_certificate(g)
        assert cert["lattice_status"] == NOT_FINITE_INDEX
        assert abs(perron(g).mu - math.sqrt(6)) < 1e-9
        assert not cert["teichmuller_curve_by_mu"]

    def test_taxonomy_not_applied_to_weighted_graphs(self):
        g = ConfigurationGraph(1, 1, ((0, 0, 1),), (2, 3))
        cert = lattice_certificate(g)
        assert cert["lattice_status"] is None
        assert not cert["teichmuller_curve_by_mu"]  # mu = sqrt(6) > 2


class TestFlatSurface:
    def test_single_square(self):
        g = ConfigurationGraph(1, 1, ((0, 0, 1),), (1, 1))
        rectangles, _ = flat_surface(g, perron(g))
        assert len(rectangles) == 1
        rect = rectangles[0]
        assert set(rect) == {"id", "c_component", "d_component", "width", "height"}
        assert abs(rect["width"] - 1 / math.sqrt(2)) < 1e-9
        assert abs(rect["height"] - 1 / math.sqrt(2)) < 1e-9

    def test_path3_two_rectangles(self):
        g = path_family(3)
        rectangles, _ = flat_surface(g, perron(g))
        assert len(rectangles) == 2
        dims = {(round(r["width"], 6), round(r["height"], 6)) for r in rectangles}
        assert dims == {(0.5, round(1 / math.sqrt(2), 6))}

    def test_area_matches_incidence_sum(self):
        for g in (path_family(4), cycle_family(6), star_family(3)):
            data = perron(g)
            v = np.asarray(data.v)
            expected = v @ adjacency(g) @ v / 2
            _, total_area = flat_surface_json(g, data)
            assert abs(total_area - expected) < 1e-12
            assert total_area == flat_surface(g, data)[1]
            assert total_area > 0

    def test_one_rectangle_per_intersection_unit(self):
        g = parse_intersections("(1,1,3)", "1,1")
        rectangles, _ = flat_surface(g, perron(g))
        assert len(rectangles) == 3

    @pytest.mark.parametrize("inter", [((2, 1), (1, 0)), ((2, 1), (1, 1))])
    def test_rectangles_in_point_id_order(self, inter):
        # points 0 and 1 are the two (1, 1) intersections
        g = dense_graph(inter, (1,) * 4)
        rectangles, _ = flat_surface(g, perron(g))
        assert [r["id"] for r in rectangles] == list(range(len(rectangles)))
        assert [(r["c_component"], r["d_component"]) for r in rectangles][:4] == [
            (0, 0), (0, 0), (0, 1), (1, 0)
        ]

    def test_no_area_is_an_invariant_violation(self):
        # perron never returns a zero vector, so this is a bug, not bad input
        zero = veech.PerronData(mu=1.0, v=(0.0,) * 3, residual=0.0)
        with pytest.raises(InvariantViolation, match="no area"):
            flat_surface_json(path_family(3), zero)

    def test_area_invariant_under_relabeling(self):
        inter = ((1, 1, 0), (0, 1, 1))
        g = dense_graph(inter, (1,) * 5)
        base = flat_surface_json(g, perron(g))[1]
        for rows in ((1, 0), (0, 1)):
            for cols in ((2, 1, 0), (1, 0, 2), (0, 2, 1)):
                permuted = tuple(tuple(inter[i][j] for j in cols) for i in rows)
                h = dense_graph(permuted, (1,) * 5)
                assert abs(flat_surface_json(h, perron(h))[1] - base) < 1e-9


class TestParsing:
    def test_families(self):
        assert parse_family("A:3").size == 3
        assert parse_family("cycle:6").size == 6
        assert parse_family("E:8").size == 8
        assert parse_family("star:4").size == 5
        d5 = parse_family("D:5")
        assert d5.size == 5
        assert classify_graph(d5) == RECESSIVE

    @pytest.mark.parametrize(
        "spec, m, k, intersections",
        [
            # vertex 0's side first, each side in vertex order
            ("A:5", 3, 2, ((0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1))),
            ("D:5", 3, 2, ((0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 0, 1))),
            ("E:6", 3, 3, ((0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 1, 1))),
            ("cycle:6", 3, 3, ((0, 0, 1), (0, 2, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1))),
            ("star:3", 1, 3, ((0, 0, 1), (0, 1, 1), (0, 2, 1))),
        ],
    )
    def test_family_sides(self, spec, m, k, intersections):
        g = parse_family(spec)
        assert (g.m, g.k, g.points) == (m, k, intersections)

    @pytest.mark.parametrize(
        "name, build",
        [
            ("A", path_family),
            ("D", forked_path_family),
            ("E", exceptional_family),
            ("cycle", cycle_family),
            ("star", star_family),
        ],
    )
    def test_family_matches_its_edge_list(self, name, build):
        """Points, sides and multiplicities, or the exception and its message,
        at every size from -1 up to VERTEX_BUDGET vertices."""

        def outcome(builder, n):
            try:
                g = builder(n)
            except InvalidGraph as exc:
                return type(exc), str(exc)
            return g.m, g.k, g.points, g.multiplicities

        top = VERTEX_BUDGET - 1 if name == "star" else VERTEX_BUDGET
        for n in range(-1, top + 1):
            assert outcome(build, n) == outcome(lambda n: family_from_edges(name, n), n), n

    def test_vertex_budget(self):
        assert parse_family(f"star:{VERTEX_BUDGET - 1}").size == VERTEX_BUDGET
        over = (f"A:{VERTEX_BUDGET + 1}", f"star:{VERTEX_BUDGET}", "cycle:1000000")
        for spec in over:
            with pytest.raises(GraphParseError, match="VERTEX_BUDGET"):
                parse_family(spec)
        with pytest.raises(GraphParseError, match="VERTEX_BUDGET"):
            parse_intersections(f"(1,{VERTEX_BUDGET},1)")
        with pytest.raises(GraphParseError, match="VERTEX_BUDGET"):
            parse_config_spec(f"c={VERTEX_BUDGET}; inter=(1,1,1)")

    def test_non_integer_side_size(self):
        for spec in ("c=x; inter=(1,1,1)", "c=1; d=; inter=(1,1,1)"):
            with pytest.raises(GraphParseError, match="invalid side size"):
                parse_config_spec(spec)

    def test_unknown_family(self):
        with pytest.raises(GraphParseError):
            parse_family("F:4")
        with pytest.raises(GraphParseError):
            parse_family("A:x")

    def test_odd_cycle_rejected(self):
        with pytest.raises(InvalidGraph):
            parse_family("cycle:5")

    def test_explicit_spec(self):
        g = parse_config_spec("c=1; d=1; inter=(1,1,3); mult=1,1")
        assert intersection_matrix(g).tolist() == [[0, 3], [3, 0]]

    def test_inferred_sizes(self):
        g = parse_intersections("(1,1,1),(2,1,1)")
        assert g.m == 2 and g.k == 1

    def test_bad_intersection_token(self):
        with pytest.raises(GraphParseError) as err:
            parse_intersections("(1,1,1),(2;1,1)")
        assert err.value.position > 0

    @pytest.mark.parametrize("between", ["\n", "\t", " \r\n\t "])
    def test_whitespace_between_triples_is_ignored(self, between):
        g = parse_intersections(f"(1,1,1),{between}(1,2,1){between}")
        assert g == parse_intersections("(1,1,1),(1,2,1)")
        g = parse_intersections(f"(1,1,1){between}(2,1,1)")
        assert (g.m, g.k, g.points) == (2, 1, ((0, 0, 1), (1, 0, 1)))

    @pytest.mark.parametrize(
        "text", ["(1,1,1 0)", "(1 2,1,1),(1,1,1)", "(\u0661,1,1)", "(1,1,+1)", "(1,1,1_0)"]
    )
    def test_only_ascii_numerals_without_inner_blanks(self, text):
        with pytest.raises(GraphParseError, match="invalid intersection token at position 0"):
            parse_intersections(text)

    def test_blanks_around_numerals_and_positions_in_the_text_as_given(self):
        assert parse_intersections("( 1 ,\t1 , 2\n)") == parse_intersections("(1,1,2)")
        with pytest.raises(GraphParseError) as err:
            parse_intersections(" (1,1,1),\n (2;1,1)")
        assert (err.value.token, err.value.position) == ("(2;1,1)", 11)

    def test_bad_multiplicity_count(self):
        with pytest.raises(GraphParseError):
            parse_intersections("(1,1,1)", "1,1,1")

    def test_repeated_and_zero_triples(self):
        g = parse_intersections("(2,1,1),(1,1,1),(1,2,0),(1,1,2),(2,2,0),(2,2,1)")
        assert (g.m, g.k, g.points) == (2, 2, ((0, 0, 3), (1, 0, 1), (1, 1, 1)))
        # a side size counts a zero-count index, which then meets nothing
        with pytest.raises(DisconnectedGraph):
            parse_intersections("(1,1,1),(2,1,0)")

    @pytest.mark.parametrize("section", ["c", "d", "inter", "mult"])
    def test_repeated_section_rejected(self, section):
        fields = {"c": "1", "d": "1", "inter": "(1,1,1)", "mult": "1,1"}
        spec = "; ".join(f"{key}={value}" for key, value in fields.items())
        with pytest.raises(GraphParseError, match=f"repeated section '{section}'"):
            parse_config_spec(f"{spec}; {section}={fields[section]}")
