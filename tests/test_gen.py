"""Seeded graph generation and the hand-built gadgets."""

import hashlib
from fractions import Fraction

import pytest

from eccplane.errors import ExhaustedRejectsError
from eccplane.gen import (
    DEFAULT_DENOMINATOR,
    GenConfig,
    fig1_trick,
    fig2_collinear,
    fig3_neighbor,
    fig3_opposite,
    fig3_same,
    fixture,
    generate,
)
from eccplane.geom import (
    Point,
    format_graph,
    validate_general_position,
    validate_planarity,
)


class TestGenConfig:
    def test_defaults(self):
        cfg = GenConfig(n=5)
        assert cfg.seed == 0
        assert not cfg.forbid_deg2
        assert cfg.coord_denominator == DEFAULT_DENOMINATOR

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            GenConfig(n=0)
        with pytest.raises(ValueError):
            GenConfig(n=3, coord_denominator=0)


class TestGenerate:
    def test_deterministic(self):
        a = generate(GenConfig(n=10, seed=123))
        b = generate(GenConfig(n=10, seed=123))
        assert a == b

    def test_seed_changes_output(self):
        a = generate(GenConfig(n=10, seed=1))
        b = generate(GenConfig(n=10, seed=2))
        assert a != b

    @pytest.mark.parametrize("seed", range(6))
    def test_output_is_valid(self, seed):
        g = generate(GenConfig(n=13, seed=seed))
        assert len(g.vertices) == 13
        assert validate_general_position(g) == []
        assert validate_planarity(g) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_forbid_deg2(self, seed):
        g = generate(GenConfig(n=13, seed=seed, forbid_deg2=True))
        assert all(g.degree(v) != 2 for v in range(len(g.vertices)))
        assert validate_general_position(g) == []
        assert validate_planarity(g) == []

    def test_tiny_sizes(self):
        assert len(generate(GenConfig(n=1, seed=0)).vertices) == 1
        g2 = generate(GenConfig(n=2, seed=0))
        assert len(g2.vertices) == 2

    def test_coordinates_live_on_the_grid(self):
        g = generate(GenConfig(n=8, seed=5, coord_denominator=64))
        for p in g.vertices:
            assert 0 <= p.x <= 1 and 0 <= p.y <= 1
            assert 64 % p.x.denominator == 0
            assert 64 % p.y.denominator == 0

    def test_seed_to_graph_mapping_is_pinned(self):
        # Benchmark inputs and the acceptance corpora are generator output,
        # so the bytes for a seed must never drift.
        parts = [
            format_graph(generate(GenConfig(n=n, seed=s, forbid_deg2=f)))
            for n in (3, 12, 40, 120)
            for s in range(12)
            for f in (False, True)
        ]
        with pytest.raises(ExhaustedRejectsError) as info:
            generate(GenConfig(n=30, seed=1, coord_denominator=8, max_rejects=50))
        parts.append(str(info.value))
        digest = hashlib.sha256("".join(parts).encode()).hexdigest()
        assert digest == "16b78b0810e55fea96301d6fc7f25e4f2980aa51786f1247c9c4a37fedc69790"

    def test_coarse_grid_exhausts(self):
        with pytest.raises(ExhaustedRejectsError) as info:
            generate(GenConfig(n=5, seed=0, coord_denominator=2, max_rejects=50))
        assert info.value.code == "EXHAUSTED_TRIES"


class TestFixtures:
    def test_trick_gadget_shape(self):
        g = fig1_trick()
        assert len(g.vertices) == 5
        assert g.edges == ((0, 1), (1, 2))
        assert g.degree(1) == 2
        assert g.degree(3) == 0 and g.degree(4) == 0
        assert validate_general_position(g) == []
        assert validate_planarity(g) == []

    def test_collinear_family(self):
        g = fig2_collinear(Fraction(1, 4))
        assert g.vertices[1] == Point(1, Fraction(1, 4))
        assert g.vertices[2] == Point(2, Fraction(1, 8))
        assert g.degree(1) == 2
        assert validate_general_position(g) == []

    def test_collinear_limit_rejected(self):
        with pytest.raises(ValueError):
            fig2_collinear(0)

    @pytest.mark.parametrize("name", ["fig3_same", "fig3_neighbor", "fig3_opposite"])
    def test_quadrant_gadgets_are_valid(self, name):
        g = fixture(name)
        assert g.degree(0) == 2
        assert validate_general_position(g) == []
        assert validate_planarity(g) == []

    def test_fixture_lookup(self):
        assert fixture("fig1_trick") == fig1_trick()
        assert fixture("fig2_collinear") == fig2_collinear(Fraction(1, 2))
        assert fixture("fig2_collinear", t=Fraction(1, 8)) == fig2_collinear(Fraction(1, 8))
        assert fixture("fig3_same") == fig3_same()
        assert fixture("fig3_neighbor") == fig3_neighbor()
        assert fixture("fig3_opposite") == fig3_opposite()
        with pytest.raises(ValueError):
            fixture("nonsense")
