import pytest

from quantcert.blocks import (
    ColoredGraph,
    _admissible,
    block_dimension,
    block_dimension_bruteforce,
    chain_graph,
    cut_identity_check,
    dumbbell_graph,
    in_palette,
    is_admissible,
    level_colors,
    parse_colored_graph,
    tadpole_basis,
    tadpole_graph,
    theta_graph,
)
from quantcert.errors import GraphParseError, InvalidColor, InvalidGraph
from quantcert.roots import twist_eigenvalue


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
        for p in range(5, 151):
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
            is_admissible(0, 0, 0, p)
        with pytest.raises(ValueError, match="level must be at least 5"):
            tadpole_basis(0, p)
        with pytest.raises(ValueError, match="level must be at least 5"):
            twist_eigenvalue(0, p)


class TestIsAdmissible:
    def test_trivial_triple(self):
        assert is_admissible(0, 0, 0, 7)

    def test_triangle_triple(self):
        assert is_admissible(2, 2, 2, 7)

    def test_level_bound_even(self):
        # 6 + 6 + 2 = 14 exceeds the even bound p - 4 = 12
        assert not is_admissible(6, 6, 2, 16)

    def test_triangle_inequality_even(self):
        # 6 > 2 + 2: fails the triangle inequality regardless of the bound
        assert not is_admissible(2, 2, 6, 16)
        assert is_admissible(2, 4, 6, 16)

    def test_parity(self):
        assert not is_admissible(2, 2, 1, 16)

    def test_invalid_color_raises(self):
        with pytest.raises(InvalidColor):
            is_admissible(1, 2, 3, 7)  # odd colors do not exist at odd level
        with pytest.raises(InvalidColor):
            is_admissible(0, 0, 8, 16)


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
        for p in (5, 7, 9, 16, 20):
            for i in level_colors(p):
                assert block_dimension(tadpole_graph(i), p) == len(tadpole_basis(i, p))

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
        with pytest.raises(GraphParseError):
            parse_colored_graph("vertices=2; edges=1-2")
