"""Exact scalar parsing, ray algebra, and plane-graph validation."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eccplane.errors import ParseError
from eccplane.geom import (
    CARDINALS,
    EAST,
    NORTH,
    SOUTH,
    WEST,
    Direction,
    PlaneGraph,
    Point,
    format_graph,
    format_scalar,
    height,
    orientation,
    parse_graph,
    parse_scalar,
    quadrant,
    validate_general_position,
    validate_planarity,
)

from helpers import brute_general_position, brute_planarity

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=997
)


class TestScalars:
    def test_parse_forms(self):
        assert parse_scalar("3") == 3
        assert parse_scalar("-2") == -2
        assert parse_scalar("0.5") == Fraction(1, 2)
        assert parse_scalar("1.25") == Fraction(5, 4)
        assert parse_scalar("5/4") == Fraction(5, 4)
        assert parse_scalar("-7/3") == Fraction(-7, 3)
        assert parse_scalar(" 8 ") == 8

    def test_parse_is_exact_not_binary_float(self):
        assert parse_scalar("0.1") == Fraction(1, 10)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1.2.3", "1 2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_scalar(bad)

    def test_parse_keeps_exponent_forms_exact(self):
        assert parse_scalar("1.25") == Fraction(5, 4)
        assert parse_scalar("5/4") == Fraction(5, 4)
        assert parse_scalar("-3e-2") == Fraction(-3, 100)
        assert parse_scalar("2E+3") == 2000

    @pytest.mark.parametrize(
        "bad", ["1e10000000", "-7E-99999999", "1" * 5000, "1/" + "3" * 5000]
    )
    def test_parse_refuses_huge_tokens_fast(self, bad):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_scalar(bad)
        assert time.perf_counter() - start < 0.05

    def test_format(self):
        assert format_scalar(Fraction(5, 4)) == "5/4"
        assert format_scalar(Fraction(-7, 3)) == "-7/3"
        assert format_scalar(Fraction(6, 3)) == "2"
        assert format_scalar(Fraction(0)) == "0"

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_scalar(format_scalar(q)) == q


class TestDirection:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Direction(0, 0)

    def test_perp_is_quarter_turn_ccw(self):
        assert EAST.perp() == NORTH
        assert NORTH.perp() == WEST
        assert WEST.perp() == SOUTH
        assert SOUTH.perp() == EAST

    def test_neg(self):
        assert -EAST == WEST and -NORTH == SOUTH

    def test_cross_dot(self):
        a, b = Direction(2, 1), Direction(-1, 3)
        assert a.cross(b) == 7
        assert a.dot(b) == 1
        assert a.cross(a) == 0

    def test_canonical_strips_common_factor(self):
        assert Direction(4, -6).canonical() == Direction(2, -3)
        assert Direction(0, 5).canonical() == Direction(0, 1)

    def test_canonical_preserves_sign(self):
        # A ray and its opposite must stay distinct.
        assert Direction(-4, 6).canonical() == Direction(-2, 3)
        assert Direction(-2, 0).canonical() == WEST

    def test_canonical_clears_denominators(self):
        d = Direction(Fraction(1, 3), Fraction(1, 2))
        assert d.canonical() == Direction(2, 3)

    def test_same_ray_vs_parallel(self):
        a = Direction(2, 4)
        assert a.same_ray(Direction(1, 2))
        assert not a.same_ray(Direction(-1, -2))
        assert a.parallel(Direction(-1, -2))
        assert not a.parallel(Direction(1, 3))

    @given(rationals, rationals, st.fractions(min_value=Fraction(1, 97), max_value=1000, max_denominator=97))
    def test_positive_scaling_never_changes_the_ray(self, dx, dy, k):
        if dx == 0 and dy == 0:
            return
        d = Direction(dx, dy)
        assert Direction(k * dx, k * dy).canonical() == d.canonical()

    def test_cardinals(self):
        assert CARDINALS == (NORTH, SOUTH, EAST, WEST)
        assert NORTH == Direction(0, 1)
        assert SOUTH == Direction(0, -1)
        assert EAST == Direction(1, 0)
        assert WEST == Direction(-1, 0)


class TestHeightAndQuadrant:
    def test_height_is_inner_product(self):
        assert height(Point(2, 3), Direction(1, Fraction(1, 2))) == Fraction(7, 2)
        assert height(Point(2, 3), EAST) == 2
        assert height(Point(2, 3), SOUTH) == -3

    @given(rationals, rationals)
    def test_height_along_west_negates_x(self, x, y):
        assert height(Point(x, y), WEST) == -x

    def test_quadrants(self):
        o = Point(1, 1)
        assert quadrant(Point(2, 3), o) == 1
        assert quadrant(Point(0, 3), o) == 2
        assert quadrant(Point(0, 0), o) == 3
        assert quadrant(Point(2, 0), o) == 4

    def test_quadrant_boundary_rejected(self):
        with pytest.raises(ValueError):
            quadrant(Point(1, 5), Point(1, 1))
        with pytest.raises(ValueError):
            quadrant(Point(5, 1), Point(1, 1))

    def test_orientation_signs(self):
        a, b = Point(0, 0), Point(2, 0)
        assert orientation(a, b, Point(1, 1)) == 1
        assert orientation(a, b, Point(1, -1)) == -1
        assert orientation(a, b, Point(5, 0)) == 0


class TestPlaneGraph:
    def test_adjacency(self):
        g = PlaneGraph([(0, 0), (1, 2), (2, 1)], [(0, 1), (0, 2)])
        assert g.neighbors(0) == (1, 2)
        assert g.neighbors(1) == (0,)
        assert g.degree(0) == 2 and g.degree(2) == 1
        assert g.euler_characteristic() == 1
        assert len(g) == 3

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            PlaneGraph([(0, 0), (1, 1)], [(0, 0)])
        with pytest.raises(ValueError):
            PlaneGraph([(0, 0), (1, 1)], [(0, 2)])
        with pytest.raises(ValueError):
            PlaneGraph([(0, 0), (1, 1)], [(0, 1), (1, 0)])

    def test_general_position_violations(self):
        dup_x = PlaneGraph([(1, 0), (1, 5), (3, 2)], [])
        kinds = {v.kind for v in validate_general_position(dup_x)}
        assert "duplicate-x" in kinds
        dup_y = PlaneGraph([(0, 2), (1, 2), (3, 5)], [])
        kinds = {v.kind for v in validate_general_position(dup_y)}
        assert "duplicate-y" in kinds
        collinear = PlaneGraph([(0, 0), (1, 1), (2, 2)], [])
        violations = validate_general_position(collinear)
        assert [v.kind for v in violations].count("collinear") == 1
        assert violations[-1].vertices == (0, 1, 2)

    def test_general_position_clean(self):
        g = PlaneGraph([(0, 0), (4, 1), (1, 4), (Fraction(3, 2), Fraction(5, 4))], [])
        assert validate_general_position(g) == []

    def test_planarity_crossing(self):
        g = PlaneGraph(
            [(0, 0), (5, 1), (1, 4), (4, 5)],
            [(0, 3), (1, 2)],
        )
        violations = validate_planarity(g)
        assert [v.kind for v in violations] == ["crossing"]

    def test_planarity_shared_endpoint_ok(self):
        g = PlaneGraph([(0, 0), (1, 2), (2, 1)], [(0, 1), (0, 2), (1, 2)])
        assert validate_planarity(g) == []

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_validators_match_brute_force(self, data):
        # Coordinates a/d with |a| <= 3 and d in 1..3: collinear triples,
        # coincident points, shared coordinates and touching edges are common.
        coord = st.builds(
            Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])
        )
        points = data.draw(st.lists(st.tuples(coord, coord), max_size=9))
        n = len(points)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = data.draw(
            st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
        )
        _assert_validators_match_brute_force(PlaneGraph(points, edges))

    def test_validators_match_brute_force_on_a_dense_grid(self):
        # All 25 points of a 5x5 grid, shuffled, with 40 random edges: many
        # collinear triples, shared coordinates, crossings and on-edge vertices.
        rng = random.Random(5)
        points = [(Fraction(x, 2) - 1, y - 2) for x in range(5) for y in range(5)]
        rng.shuffle(points)
        edges = rng.sample([(i, j) for i in range(25) for j in range(i + 1, 25)], 40)
        _assert_validators_match_brute_force(PlaneGraph(points, edges))

    def test_planarity_vertex_on_edge(self):
        # Needs a collinear triple, so general position would already be
        # violated; planarity still reports it independently.
        g = PlaneGraph([(0, 0), (4, 4), (2, 2)], [(0, 1)])
        kinds = [v.kind for v in validate_planarity(g)]
        assert kinds == ["vertex-on-edge"]


def _assert_validators_match_brute_force(g):
    got = [(v.kind, v.vertices) for v in validate_general_position(g)]
    assert got == brute_general_position(g)
    got = [(v.kind, v.vertices) for v in validate_planarity(g)]
    assert got == brute_planarity(g)


class TestGraphFormat:
    def test_round_trip_bit_exact(self):
        g = PlaneGraph(
            [(0, 0), (Fraction(7, 3), 1), (1, Fraction(-5, 4))],
            [(0, 1), (1, 2)],
        )
        text = format_graph(g)
        assert parse_graph(text) == g
        assert format_graph(parse_graph(text)) == text

    def test_comments_and_decimals(self):
        text = "# a comment\n2 1\n0.5 2\n# mid\n1 3/4\n0 1\n"
        g = parse_graph(text)
        assert g.vertices[0] == Point(Fraction(1, 2), 2)
        assert g.vertices[1] == Point(1, Fraction(3, 4))
        assert g.edges == ((0, 1),)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "garbage",
            "1\n0 0\n",
            "2 0\n0 0\n",
            "1 0\n0 0\n1 1\n",
            "2 1\n0 0\n1 1\nx y\n",
            "1 0\n0 0 0\n",
            "-1 0\n",
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_graph(bad)

    def test_structural_error_becomes_parse_error(self):
        with pytest.raises(ParseError):
            parse_graph("2 1\n0 0\n1 1\n0 0\n")  # self-loop
