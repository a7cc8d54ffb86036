import heapq
import itertools
import math
import random

import numpy as np
import pytest

from oracles import spectral_radius
from quantcert import veech
from quantcert.errors import (
    DisconnectedGraph,
    GraphParseError,
    InvalidGraph,
    InvariantViolation,
)
from quantcert.veech import (
    ANOSOV,
    CRITICAL,
    DOMINANT,
    ELLIPTIC,
    FINITE_INDEX_IN_VEECH,
    NOT_FINITE_INDEX,
    PARABOLIC,
    RECESSIVE,
    VERTEX_BUDGET,
    ConfigurationGraph,
    SL2Mat,
    classify_graph,
    classify_sl2,
    cycle_family,
    exceptional_family,
    flat_surface,
    forked_path_family,
    intersection_matrix,
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
        g = ConfigurationGraph(((1,),), (1, 1))
        assert g.m == 1 and g.k == 1

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            ConfigurationGraph(((1, 0), (0, 1)), (1, 1, 1, 1))

    def test_adjacency_built_once_and_read_only(self):
        g = ConfigurationGraph(((2, 1),), (1, 1, 1))
        adj = g.adjacency()
        assert adj is g.adjacency()
        assert adj.tolist() == [[0, 2, 1], [2, 0, 0], [1, 0, 0]]
        with pytest.raises(ValueError):
            adj[0, 1] = 5

    def test_bad_multiplicities(self):
        with pytest.raises(InvalidGraph):
            ConfigurationGraph(((1,),), (1, 0))
        with pytest.raises(InvalidGraph):
            ConfigurationGraph(((1,),), (1,))


class TestIntersectionMatrix:
    def test_unit_multiplicities(self):
        g = ConfigurationGraph(((1,),), (1, 1))
        assert intersection_matrix(g).tolist() == [[0, 1], [1, 0]]

    def test_row_scaling_by_multiplicity(self):
        g = ConfigurationGraph(((1,),), (2, 3))
        assert intersection_matrix(g).tolist() == [[0, 2], [3, 0]]

    def test_path_graph(self):
        n = intersection_matrix(path_family(3))
        # bipartite ordering groups the two end vertices first
        assert sorted(map(tuple, n.tolist())) == [(0, 0, 1), (0, 0, 1), (1, 1, 0)]


class TestPerron:
    def test_swap_matrix(self):
        data = perron(ConfigurationGraph(((1,),), (1, 1)))  # N = [[0, 1], [1, 0]]
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
        g = path_family(4)
        values, vectors = np.linalg.eigh(np.asarray(g.adjacency(), dtype=float))
        monkeypatch.setattr(np.linalg, "eigh", lambda _: (values + 0.1, vectors))
        with pytest.raises(InvariantViolation, match="residual"):
            perron(g)
        # a true eigenpair, but not the Perron one: its vector changes sign
        order = [0, 1, 3, 2]
        monkeypatch.setattr(np.linalg, "eigh", lambda _: (values[order], vectors[:, order]))
        with pytest.raises(InvariantViolation, match="positive"):
            perron(g)

    def test_against_dense_eigensolver(self):
        rng = random.Random(7)
        for _ in range(25):
            m, k = rng.randint(1, 4), rng.randint(1, 4)
            inter = [[rng.randint(0, 2) for _ in range(k)] for _ in range(m)]
            # force connectivity: chain every vertex through the first column/row
            for i in range(m):
                if not any(inter[i]):
                    inter[i][rng.randrange(k)] = 1
            for j in range(k):
                if not any(row[j] for row in inter):
                    inter[rng.randrange(m)][j] = 1
            try:
                g = ConfigurationGraph(tuple(map(tuple, inter)), (1,) * (m + k))
            except DisconnectedGraph:
                continue
            mu = perron(g).mu
            assert abs(mu - spectral_radius(intersection_matrix(g))) < 1e-8


class TestMultitwistMatrices:
    def test_shape(self):
        dt_c, dt_d = multitwist_matrices(1.0)
        assert (dt_c.a, dt_c.b, dt_c.c, dt_c.d) == (1.0, 1.0, 0.0, 1.0)
        assert (dt_d.a, dt_d.b, dt_d.c, dt_d.d) == (1.0, 0.0, -1.0, 1.0)

    def test_product_trace_mu2(self):
        dt_c, dt_d = multitwist_matrices(2.0)
        assert classify_sl2(dt_c @ dt_d) == PARABOLIC  # trace 2 - mu^2 = -2

    def test_product_trace_mu3(self):
        dt_c, dt_d = multitwist_matrices(3.0)
        assert classify_sl2(dt_c @ dt_d) == ANOSOV  # trace -7


class TestClassifySL2:
    def test_parabolic(self):
        assert classify_sl2(SL2Mat(1, 3, 0, 1)) == PARABOLIC

    def test_elliptic(self):
        assert classify_sl2(SL2Mat(0, 1, -1, 0)) == ELLIPTIC

    def test_anosov(self):
        assert classify_sl2(SL2Mat(2, 1, 1, 1)) == ANOSOV

    def test_determinant_checked(self):
        with pytest.raises(InvalidGraph):
            SL2Mat(2, 0, 0, 2)

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0])
    def test_trichotomy_of_multitwists(self, mu):
        dt_c, dt_d = multitwist_matrices(mu)
        assert classify_sl2(dt_c) == PARABOLIC
        assert classify_sl2(dt_d) == PARABOLIC
        mixed = dt_c @ dt_d.inverse()
        assert abs(mixed.trace - (2 + mu * mu)) < 1e-9
        assert classify_sl2(mixed) == ANOSOV


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
        doubled = ConfigurationGraph(((2,),), (1, 1))
        assert classify_graph(doubled) == CRITICAL

    def test_dominant(self):
        assert classify_graph(star_family(5)) == DOMINANT
        complete_23 = ConfigurationGraph(((1, 1, 1), (1, 1, 1)), (1,) * 5)
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
        complete_64 = ConfigurationGraph(((1,) * 64,) * 64, (1,) * 128)
        weighted_23 = ConfigurationGraph(((1, 1, 1), (1, 1, 1)), (1, 2, 3, 1, 2))
        tripled = ConfigurationGraph(((3,),), (1, 1))
        for g in (complete_64, weighted_23, tripled):
            assert classify_graph(g) == DOMINANT

    def test_critical_eigenvalues_are_exactly_two(self):
        for g in (cycle_family(6), cycle_family(10), star_family(4)):
            data = perron(g)
            assert abs(data.mu - 2.0) <= 1e-9

    def test_nonunit_multiplicities_classified_exactly(self):
        g = ConfigurationGraph(((1,),), (2, 2))  # N = [[0,2],[2,0]], radius 2
        assert classify_graph(g) == CRITICAL
        g = ConfigurationGraph(((1,),), (2, 3))  # radius sqrt(6)
        assert classify_graph(g) == DOMINANT

    def test_weighted_stars_against_closed_form(self):
        # centre multiplicity a, leaf multiplicities bs: mu^2 = a * sum(bs), so
        # the exactly critical cases include the edges (1, 4), (4, 1), (2, 2)
        # and the two-leaf star (1, 2, 2)
        by_sign = {-1: RECESSIVE, 0: CRITICAL, 1: DOMINANT}
        for a in range(1, 13):
            for leaves in (1, 2, 3):
                for bs in itertools.combinations_with_replacement(range(1, 5), leaves):
                    g = ConfigurationGraph(((1,) * leaves,), (a, *bs))
                    mu_sq = a * sum(bs)
                    expected = by_sign[(mu_sq > 4) - (mu_sq < 4)]
                    assert classify_graph(g) == expected, (a, bs)
                    cert = lattice_certificate(g)
                    assert cert.teichmuller_curve_by_mu == (expected != DOMINANT)
                    assert abs(perron(g).mu - math.sqrt(mu_sq)) <= 1e-12 * mu_sq

    def _random_connected_bipartite(self, rng, weighted, dense=False):
        m = rng.randint(1, 6)
        k = rng.randint(1, 12 - m) if m < 11 else 1
        inter = [[0] * k for _ in range(m)]
        order = [("c", i) for i in range(m)] + [("d", j) for j in range(k)]
        rng.shuffle(order)
        placed = [order[0]]
        for vertex in order[1:]:
            side, idx = vertex
            partners = [v for v in placed if v[0] != side]
            if not partners:
                placed.append(vertex)
                continue
            _, pidx = rng.choice(partners)
            if side == "c":
                inter[idx][pidx] += 1
            else:
                inter[pidx][idx] += 1
            placed.append(vertex)
        # a vertex may have been placed before any partner existed; wire it now
        for i in range(m):
            if not any(inter[i]):
                inter[i][rng.randrange(k)] = 1
        for j in range(k):
            if not any(row[j] for row in inter):
                inter[rng.randrange(m)][j] = 1
        for _ in range(rng.randint(0, m * k if dense else 3)):
            inter[rng.randrange(m)][rng.randrange(k)] += 1
        if weighted:
            mult = tuple(rng.randint(1, 3) for _ in range(m + k))
        else:
            mult = (1,) * (m + k)
        return ConfigurationGraph(tuple(map(tuple, inter)), mult)

    def test_combinatorial_matches_spectral_on_random_corpus(self):
        # half unit multiplicities, half drawn from {1, 2, 3}; a quarter dense,
        # with up to m * k extra points, so both E > V and E <= V are checked
        rng = random.Random(20240817)
        checked = 0
        sides = set()
        while checked < 320:
            try:
                g = self._random_connected_bipartite(
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
            points_over_vertices = sum(map(sum, g.intersections)) > g.size
            assert cls == DOMINANT or not points_over_vertices, g
            sides.add(points_over_vertices)
            checked += 1
        assert sides == {False, True}


class TestLatticeCertificate:
    def test_path(self):
        cert = lattice_certificate(path_family(3))
        assert cert.status == FINITE_INDEX_IN_VEECH
        assert cert.teichmuller_curve_by_mu
        assert abs(perron(path_family(3)).mu - math.sqrt(2)) < 1e-9

    def test_cycle(self):
        cert = lattice_certificate(cycle_family(6))
        assert cert.status == FINITE_INDEX_IN_VEECH
        assert cert.graph_class == CRITICAL
        assert abs(perron(cycle_family(6)).mu - 2.0) <= 1e-9

    def test_complete_bipartite_2x3(self):
        g = ConfigurationGraph(((1, 1, 1), (1, 1, 1)), (1,) * 5)
        cert = lattice_certificate(g)
        assert cert.status == NOT_FINITE_INDEX
        assert abs(perron(g).mu - math.sqrt(6)) < 1e-9
        assert not cert.teichmuller_curve_by_mu

    def test_taxonomy_not_applied_to_weighted_graphs(self):
        g = ConfigurationGraph(((1,),), (2, 3))
        cert = lattice_certificate(g)
        assert cert.status is None
        assert not cert.teichmuller_curve_by_mu  # mu = sqrt(6) > 2


class TestFlatSurface:
    def test_single_square(self):
        g = ConfigurationGraph(((1,),), (1, 1))
        surface = flat_surface(g, perron(g))
        assert len(surface.rectangles) == 1
        rect = surface.rectangles[0]
        assert abs(rect.width - 1 / math.sqrt(2)) < 1e-9
        assert abs(rect.height - 1 / math.sqrt(2)) < 1e-9

    def test_path3_two_rectangles(self):
        g = path_family(3)
        surface = flat_surface(g, perron(g))
        assert len(surface.rectangles) == 2
        dims = {(round(r.width, 6), round(r.height, 6)) for r in surface.rectangles}
        assert dims == {(0.5, round(1 / math.sqrt(2), 6))}

    def test_area_matches_incidence_sum(self):
        for g in (path_family(4), cycle_family(6), star_family(3)):
            data = perron(g)
            expected = sum(
                g.intersections[i][j] * data.v[i] * data.v[g.m + j]
                for i in range(g.m)
                for j in range(g.k)
            )
            surface = flat_surface(g, data)
            assert abs(surface.total_area - expected) < 1e-12
            assert surface.total_area > 0

    def test_one_rectangle_per_intersection_unit(self):
        g = parse_intersections("(1,1,3)", "1,1")
        surface = flat_surface(g, perron(g))
        assert len(surface.rectangles) == 3
        # three rectangles around each component, glued cyclically
        assert len(surface.horizontal_gluing) == 3
        assert len(surface.vertical_gluing) == 3

    @pytest.mark.parametrize(
        "inter, horizontal, vertical",
        [
            (((2, 1), (1, 0)), ((0, 1), (1, 2), (2, 0)), ((0, 1), (1, 3), (3, 0))),
            (
                ((2, 1), (1, 1)),
                ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3)),
                ((0, 1), (1, 3), (3, 0), (2, 4), (4, 2)),
            ),
        ],
    )
    def test_gluing_is_cyclic_in_point_id_order(self, inter, horizontal, vertical):
        # points 0 and 1 are the two (1, 1) intersections; a component that
        # meets a single point is glued to nothing
        g = ConfigurationGraph(inter, (1,) * 4)
        surface = flat_surface(g, perron(g))
        assert [(r.c_index, r.d_index) for r in surface.rectangles][:4] == [
            (0, 0), (0, 0), (0, 1), (1, 0)
        ]
        assert surface.horizontal_gluing == horizontal
        assert surface.vertical_gluing == vertical

    def test_area_invariant_under_relabeling(self):
        inter = ((1, 1, 0), (0, 1, 1))
        g = ConfigurationGraph(inter, (1,) * 5)
        base = flat_surface(g, perron(g)).total_area
        for rows in ((1, 0), (0, 1)):
            for cols in ((2, 1, 0), (1, 0, 2), (0, 2, 1)):
                permuted = tuple(tuple(inter[i][j] for j in cols) for i in rows)
                h = ConfigurationGraph(permuted, (1,) * 5)
                assert abs(flat_surface(h, perron(h)).total_area - base) < 1e-9


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
            ("A:5", 3, 2, ((1, 0), (1, 1), (0, 1))),
            ("D:5", 3, 2, ((1, 0), (1, 1), (1, 0))),
            ("E:6", 3, 3, ((1, 0, 0), (1, 1, 1), (0, 1, 0))),
            ("cycle:6", 3, 3, ((1, 0, 1), (1, 1, 0), (0, 1, 1))),
            ("star:3", 1, 3, ((1, 1, 1),)),
        ],
    )
    def test_family_sides(self, spec, m, k, intersections):
        g = parse_family(spec)
        assert (g.m, g.k, g.intersections) == (m, k, intersections)

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
        with pytest.raises(GraphParseError):
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

    def test_bad_multiplicity_count(self):
        with pytest.raises(GraphParseError):
            parse_intersections("(1,1,1)", "1,1,1")
