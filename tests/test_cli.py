"""End-to-end command-line behavior, including the stable error codes."""

from fractions import Fraction

import pytest

from eccplane.cli import main
from eccplane.ecc import compute_ecc, parse_ecc
from eccplane.gen import GenConfig, fig2_collinear, fig3_same, generate
from eccplane.geom import CARDINALS, Direction, format_graph, parse_graph
from eccplane.reconstruct import reconstruct_from_graph


@pytest.fixture
def graph_file(tmp_path):
    def write(g, name="g.txt"):
        path = tmp_path / name
        path.write_text(format_graph(g))
        return str(path)

    return write


class TestGen:
    def test_writes_valid_graph(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "--n", "7", "--seed", "3", "-o", str(out)]) == 0
        g = parse_graph(out.read_text())
        assert len(g.vertices) == 7

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        main(["gen", "--n", "5", "--seed", "9", "-o", str(a)])
        main(["gen", "--n", "5", "--seed", "9", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_forbid_deg2(self, tmp_path):
        out = tmp_path / "g.txt"
        assert main(["gen", "--n", "9", "--seed", "1", "--forbid-deg2", "-o", str(out)]) == 0
        g = parse_graph(out.read_text())
        assert all(g.degree(v) != 2 for v in range(len(g.vertices)))

    def test_stdout_default(self, capsys):
        assert main(["gen", "--n", "3", "--seed", "0"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("3 ")

    def test_exhaustion_error_code(self, capsys):
        rc = main(["gen", "--n", "5", "--denom", "2", "--max-rejects", "20"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("EXHAUSTED_TRIES: ")


class TestEcc:
    def test_round_trips_bit_exactly(self, tmp_path, graph_file):
        g = generate(GenConfig(n=6, seed=2))
        gpath = graph_file(g)
        out = tmp_path / "c.ecc"
        assert main(["ecc", "-g", gpath, "--dir", "2,3", "-o", str(out)]) == 0
        direction, f = parse_ecc(out.read_text())
        assert direction == Direction(2, 3)
        assert f == compute_ecc(g, Direction(2, 3))

    def test_direction_echoed_verbatim(self, graph_file, capsys):
        g = generate(GenConfig(n=4, seed=2))
        assert main(["ecc", "-g", graph_file(g), "--dir", "4,6"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "# direction 4 6"

    def test_bad_direction(self, graph_file, capsys):
        g = generate(GenConfig(n=4, seed=2))
        assert main(["ecc", "-g", graph_file(g), "--dir", "1;2"]) == 1
        assert capsys.readouterr().err.startswith("PARSE: ")


class TestWitness:
    def test_reports_heights_and_vertices(self, graph_file, capsys):
        # Star center sees both leaves above it; each leaf has its single
        # neighbor below and is invisible from the north.
        g = fig3_same()
        assert main(["witness", "-g", graph_file(g), "--dir", "0,1"]) == 0
        out = capsys.readouterr().out
        assert "direction: (0,1)" in out
        assert "witnessed vertices: 0\n" in out

    def test_height_tie_error(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 0\n0 0\n1 -1\n")
        assert main(["witness", "-g", str(path), "--dir", "1,1"]) == 1
        assert capsys.readouterr().err.startswith("HEIGHT_TIE: ")


class TestDeg2:
    def test_reports_all_degree_two_vertices(self, graph_file, capsys):
        assert main(["deg2", "-g", graph_file(fig3_same())]) == 0
        out = capsys.readouterr().out
        assert "vertex 0:" in out
        assert "configuration: same-quadrant quadrants=(1, 1)" in out
        assert "match: true" in out
        assert "acute: true" in out
        assert "arc measure:" in out

    def test_single_vertex_flag(self, graph_file, capsys):
        assert main(["deg2", "-g", graph_file(fig2_collinear(Fraction(1, 2))), "-v", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("vertex 1:")

    def test_no_degree_two(self, graph_file, capsys):
        g = generate(GenConfig(n=5, seed=1, forbid_deg2=True))
        assert main(["deg2", "-g", graph_file(g)]) == 0
        assert "no degree-2 vertices" in capsys.readouterr().out


class TestReconstruct:
    def test_from_graph(self, tmp_path, graph_file, capsys):
        g = generate(GenConfig(n=8, seed=4, forbid_deg2=True))
        out = tmp_path / "rec.txt"
        assert main(["reconstruct", "-g", graph_file(g), "-o", str(out), "--report"]) == 0
        report = capsys.readouterr().out
        assert "columns: 8" in report and "rows: 8" in report
        assert "recovered vertices: 8" in report
        recovered = parse_graph(out.read_text())
        assert set(recovered.vertices) == set(g.vertices)
        assert recovered.edges == ()

    def test_from_six_curve_files(self, tmp_path, graph_file):
        g = generate(GenConfig(n=6, seed=11, forbid_deg2=True))
        gpath = graph_file(g)
        third = Direction(*_third_of(g))
        paths = []
        for k, d in enumerate(CARDINALS + (third, -third)):
            p = tmp_path / f"c{k}.ecc"
            # the = form keeps argparse from reading "-1,0" as a flag
            assert main(["ecc", "-g", gpath, f"--dir={_fmt(d.dx)},{_fmt(d.dy)}", "-o", str(p)]) == 0
            paths.append(str(p))
        out = tmp_path / "rec.txt"
        assert main(["reconstruct", "--ecc", *paths, "-o", str(out)]) == 0
        assert set(parse_graph(out.read_text()).vertices) == set(g.vertices)

    def test_degree_two_rejected(self, graph_file, capsys):
        assert main(["reconstruct", "-g", graph_file(fig3_same())]) == 1
        assert capsys.readouterr().err.startswith("DEG2_PRESENT: ")

    def test_no_match_on_degree_two_curves(self, tmp_path, graph_file, capsys):
        # Six perfectly valid curves of an all-degree-2 triangle: the
        # matching stage is where the reconstruction falls apart.
        tri = parse_graph("3 3\n0 0\n1 2\n2 1\n0 1\n0 2\n1 2\n")
        gpath = graph_file(tri, "tri.txt")
        paths = []
        for k, d in enumerate(CARDINALS + (Direction(1, Fraction(1, 2)), Direction(-1, Fraction(-1, 2)))):
            p = tmp_path / f"t{k}.ecc"
            assert main(["ecc", "-g", gpath, f"--dir={_fmt(d.dx)},{_fmt(d.dy)}", "-o", str(p)]) == 0
            paths.append(str(p))
        assert main(["reconstruct", "--ecc", *paths]) == 1
        assert capsys.readouterr().err.startswith("NO_MATCH: ")

    def test_needs_some_input(self, capsys):
        assert main(["reconstruct"]) == 1
        assert capsys.readouterr().err.startswith("PARSE: ")


class TestPlan3n:
    def test_build_verify_render(self, tmp_path, graph_file, capsys):
        g = generate(GenConfig(n=4, seed=7))
        gpath = graph_file(g)
        plan_path = tmp_path / "plan.txt"
        assert main(["plan3n", "-g", gpath, "--seed", "5", "-o", str(plan_path), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "triple points: 4" in out
        assert "spurious: 0" in out and "missing: 0" in out
        assert "verification: passed" in out

        svg_path = tmp_path / "pic.svg"
        assert main(["render", "-g", gpath, "--plan", str(plan_path), "-o", str(svg_path)]) == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")

    def test_deterministic(self, tmp_path, graph_file):
        g = generate(GenConfig(n=4, seed=7))
        gpath = graph_file(g)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["plan3n", "-g", gpath, "--seed", "2", "-o", str(a)]) == 0
        assert main(["plan3n", "-g", gpath, "--seed", "2", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRender:
    def test_direction_overlay(self, tmp_path, graph_file):
        g = generate(GenConfig(n=5, seed=3))
        out = tmp_path / "pic.svg"
        rc = main(
            ["render", "-g", graph_file(g), "--lines", "0,1", "1,0", "-o", str(out), "--width", "200", "--height", "150"]
        )
        assert rc == 0
        assert 'width="200"' in out.read_text()


class TestBench:
    def test_prints_table(self, capsys):
        assert main(["bench", "--sizes", "64,128", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["n", "ecc_s", "match_s", "ratio"]
        assert lines[1].split()[0] == "64"
        assert lines[2].split()[0] == "128"


class TestErrorCodes:
    def test_general_position(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("3 0\n0 0\n1 1\n2 2\n")
        assert main(["ecc", "-g", str(path), "--dir", "0,1"]) == 1
        assert capsys.readouterr().err.startswith("GENERAL_POSITION: ")

    def test_planarity(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("4 2\n0 0\n5 1\n1 4\n4 5\n0 3\n1 2\n")
        assert main(["ecc", "-g", str(path), "--dir", "0,1"]) == 1
        assert capsys.readouterr().err.startswith("PLANARITY: ")

    def test_parse(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("not a graph\n")
        assert main(["witness", "-g", str(path), "--dir", "0,1"]) == 1
        assert capsys.readouterr().err.startswith("PARSE: ")

    def test_missing_file(self, capsys):
        assert main(["ecc", "-g", "/nonexistent/g.txt", "--dir", "0,1"]) == 1
        assert capsys.readouterr().err.startswith("PARSE: ")

    def test_zero_direction(self, tmp_path, graph_file, capsys):
        gpath = graph_file(generate(GenConfig(n=4, seed=2)))
        curve = tmp_path / "zero.ecc"
        curve.write_text("# direction 0 0\n0 1\n")
        for argv in (
            ["ecc", "-g", gpath, "--dir=0,0"],
            ["render", "-g", gpath, "--lines", "0,0"],
            ["reconstruct", "--ecc", *[str(curve)] * 6],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("PARSE: "), (argv, err)


def _fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _third_of(g):
    from eccplane.ecc import compute_ecc as _c
    from eccplane.reconstruct import cardinal_witness_lines, select_third_direction

    pairs = tuple((d, _c(g, d)) for d in CARDINALS)
    third = select_third_direction(cardinal_witness_lines(pairs))
    return third.dx, third.dy
