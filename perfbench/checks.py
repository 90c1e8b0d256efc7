"""Output checkers: each raises BadOutput with a reason, or returns.

They run outside the timed window, use integer arithmetic from ``exact``,
and share no code with eccplane.  ``self_test`` feeds every checker one
good and one corrupted output, so a checker that accepts everything is
caught before any op is counted as passing.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from math import gcd

from exact import (
    BadOutput,
    Grid,
    crossing,
    format_curve_text,
    format_graph_text,
    general_position_problem,
    integer_direction,
    jumps,
    parse_curve_text,
    parse_graph_text,
    parse_rational,
    recount_curve,
)

REFUSAL = re.compile(r"^([A-Z][A-Z0-9_]*): \S")


class Result:
    """What one op produced: exit status and streams for CLI ops, the
    returned value for library calls, any exception, and output files."""

    __slots__ = ("rc", "out", "err", "value", "exc", "files")

    def __init__(self, rc=0, out="", err="", value=None, exc=None, files=None):
        self.rc, self.out, self.err = rc, out, err
        self.value, self.exc, self.files = value, exc, files or {}


def verdict(check, output) -> tuple[str | None, dict]:
    """(failure reason or None, input descriptors) for one op's output.

    An output so malformed that the checker itself trips over it is a
    failed op too, not a crash of the benchmark.
    """
    try:
        extra = check(output)
    except BadOutput as bad:
        return str(bad), {}
    except Exception as exc:  # noqa: BLE001 - any checker error means a bad output
        return f"unreadable output: {type(exc).__name__}: {exc}", {}
    return None, extra or {}


def _expect(cond: bool, reason: str) -> None:
    if not cond:
        raise BadOutput(reason)


def answered(r: Result) -> None:
    """An op that must succeed: no exception, exit 0, silent stderr."""
    _expect(r.exc is None, f"traceback: {r.exc}")
    _expect(r.rc == 0, f"exit {r.rc}: {r.err.strip()[:120]}")
    _expect(r.err == "", f"stderr on success: {r.err.strip()[:120]}")


def refused(r: Result, codes: frozenset[str] | None) -> None:
    """A hostile op: exit 1 and exactly one ``CODE: detail`` stderr line,
    with CODE among ``codes`` (any code but ERROR when None)."""
    _expect(r.exc is None, f"traceback: {r.exc}")
    _expect(r.rc == 1, f"exit {r.rc}, expected a refusal")
    lines = r.err.splitlines()
    _expect(len(lines) == 1, f"{len(lines)} stderr lines, expected one")
    m = REFUSAL.match(lines[0])
    _expect(m is not None and m.group(1) != "ERROR", f"not a coded refusal: {lines[0][:120]}")
    if codes is not None:
        _expect(m.group(1) in codes, f"refused with {m.group(1)}, expected one of {sorted(codes)}")


def _rationals(tokens) -> list[tuple[int, int]]:
    return [parse_rational(t) for t in tokens]


def _direction_tokens(text: str) -> tuple[int, int]:
    dx, dy = text.split(",")
    a, b, _ = integer_direction(parse_rational(dx), parse_rational(dy))
    return a, b


# ---------------------------------------------------------------------------
# Per-command checkers
# ---------------------------------------------------------------------------


def check_gen(r: Result, n: int, forbid_deg2: bool) -> None:
    answered(r)
    g = parse_graph_text(r.out)
    _expect(g.n == n, f"{g.n} vertices, asked for {n}")
    problem = general_position_problem(g)
    _expect(problem is None, f"not in general position: {problem}")
    cross = crossing(g)
    _expect(cross is None, f"edges {cross} cross")
    if forbid_deg2:
        _expect(not g.degree_two(), f"degree-2 vertices {g.degree_two()[:5]}")


def check_curve(r: Result, g: Grid, dx: str, dy: str) -> None:
    answered(r)
    direction, bps = parse_curve_text(r.out)
    _expect(direction == (dx, dy), f"direction header {direction}, asked for {(dx, dy)}")
    a, b, k = integer_direction(parse_rational(dx), parse_rational(dy))
    _expect(bps == recount_curve(g, a, b, k), "breakpoints differ from the recount")


def check_witness(r: Result, g: Grid, direction: str) -> None:
    answered(r)
    lines = r.out.splitlines()
    _expect(len(lines) == 3, f"{len(lines)} lines, expected 3")
    a, b = _direction_tokens(direction)
    _expect(lines[0].startswith("direction: "), "no direction line")
    _expect(_direction_tokens(lines[0][len("direction: ") :].strip("()")) == (a, b), "wrong direction echoed")
    heights = [h for h, _ in recount_curve(g, a, b, 1)]
    _expect(lines[1].split()[:2] == ["witness", "heights:"], "no witness heights line")
    _expect(_rationals(lines[1].split()[2:]) == heights, "witness heights differ from the recount")
    seen = [v for v, j in enumerate(jumps(g, a, b)) if j]
    _expect(lines[2].split()[:2] == ["witnessed", "vertices:"], "no witnessed vertices line")
    _expect([int(t) for t in lines[2].split()[2:]] == seen, "witnessed vertices differ")


_CARDINALS = {"(0,1)": (0, 1), "(0,-1)": (0, -1), "(1,0)": (1, 0), "(-1,0)": (-1, 0)}


def _quadrant(g: Grid, u: int, v: int) -> int:
    dx, dy = g.xs[u] - g.xs[v], g.ys[u] - g.ys[v]
    return (1 if dy > 0 else 4) if dx > 0 else (2 if dy > 0 else 3)


def check_deg2(r: Result, g: Grid) -> None:
    answered(r)
    targets = g.degree_two()
    if not targets:
        _expect(r.out == "no degree-2 vertices\n", "expected 'no degree-2 vertices'")
        return
    blocks = re.split(r"^vertex (\d+):\n", r.out, flags=re.M)
    _expect(blocks[0] == "", "text before the first vertex block")
    _expect([int(v) for v in blocks[1::2]] == targets, "wrong degree-2 vertex list")
    for v, body in zip(targets, blocks[2::2]):
        qa, qb = (_quadrant(g, u, v) for u in g.adj[v])
        tag = (
            "same-quadrant" if qa == qb
            else "opposite-quadrants" if (qa - qb) % 4 == 2
            else "neighboring-quadrants"
        )
        _expect(f"configuration: {tag} quadrants=({qa}, {qb})" in body, f"vertex {v}: wrong configuration")
        seen = {c for c, (a, b) in _CARDINALS.items() if jumps(g, a, b)[v]}
        m = re.search(r"measured cardinals: +(.*)$", body, flags=re.M)
        _expect(m is not None, f"vertex {v}: no measured cardinals")
        got = set() if m.group(1).strip() == "none" else set(m.group(1).split())
        _expect(got == seen, f"vertex {v}: measured cardinals {sorted(got)}, expected {sorted(seen)}")
        _expect("  match: true" in body, f"vertex {v}: prediction does not match")


def check_vertex_set(text: str, g: Grid) -> None:
    """``text`` is a graph file holding exactly the vertices of ``g``."""
    got = parse_graph_text(text)
    _expect(not got.edges, "recovered graph has edges")
    _expect(got.n == g.n, f"{got.n} vertices recovered, expected {g.n}")
    _expect(got.points() == g.points(), "recovered vertex set differs")


def check_reconstruct_report(r: Result, g: Grid) -> None:
    answered(r)
    lines = r.out.splitlines(keepends=True)
    _expect(len(lines) >= 4, "report missing")
    _expect(lines[3] == f"recovered vertices: {g.n}\n", f"report says {lines[3].strip()}")
    check_vertex_set("".join(lines[4:]), g)


def check_reconstruct_ecc(r: Result, g: Grid) -> None:
    answered(r)
    check_vertex_set(r.out, g)


def check_recover(r: Result, g: Grid) -> None:
    _expect(r.exc is None, f"traceback: {r.exc}")
    pts = r.value
    got = {
        ((p.x.numerator, p.x.denominator), (p.y.numerator, p.y.denominator))
        for p in pts
    }
    _expect(len(pts) == g.n and got == g.points(), f"recovered {len(pts)} points, vertex set differs")


def plan_lines(g: Grid, plan_text: str) -> int:
    """Check a plan file and return its arrangement size: three pairwise
    non-parallel directions per vertex, each witnessing its vertex."""
    rows = [ln.split("#", 1)[0].split() for ln in plan_text.splitlines()]
    rows = [row for row in rows if row]
    _expect(len(rows) == g.n, f"plan has {len(rows)} rows for {g.n} vertices")
    rays = set()
    for v, row in enumerate(rows):
        _expect(len(row) == 7 and row[0] == str(v), f"bad plan row {v}")
        dirs = [
            integer_direction(parse_rational(row[k]), parse_rational(row[k + 1]))[:2]
            for k in (1, 3, 5)
        ]
        for i in range(3):
            a, b = dirs[i]
            for c, d in dirs[i + 1 :]:
                _expect(a * d - b * c != 0, f"vertex {v}: parallel directions")
            _expect(bool(jumps(g, a, b)[v]), f"vertex {v}: direction {(a, b)} does not witness it")
            rays.add(dirs[i])
    lines = set()
    for a, b in rays:
        for v, j in enumerate(jumps(g, a, b)):
            if j:
                c = a * g.xs[v] + b * g.ys[v]
                k = gcd(gcd(a, b), c)
                if a < 0 or (a == 0 and b < 0):
                    k = -k
                lines.add((a // k, b // k, c // k))
    return len(lines)


def check_plan3n(r: Result, g: Grid) -> int:
    answered(r)
    expect = [f"triple points: {g.n}", "spurious: 0", "missing: 0", "verification: passed"]
    _expect(r.out.splitlines() == expect, f"verify report {r.out.splitlines()}")
    _expect("plan.txt" in r.files, "no plan file written")
    return plan_lines(g, r.files["plan.txt"])


def check_svg(r: Result, g: Grid, triples: bool) -> None:
    answered(r)
    try:
        root = ET.fromstring(r.out)
    except ET.ParseError as exc:
        raise BadOutput(f"SVG does not parse: {exc}") from None
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    dots = {(c.get("cx"), c.get("cy")) for c in circles if c.get("r") == "4"}
    rings = [(c.get("cx"), c.get("cy")) for c in circles if c.get("r") == "7"]
    edges = [e for e in root.findall(f"{ns}line") if e.get("stroke") == "black"]
    _expect(len(dots) == g.n, f"{len(dots)} vertex circles for {g.n} vertices")
    _expect(len(edges) == len(g.edges), f"{len(edges)} edge lines for {len(g.edges)} edges")
    if triples:
        _expect(set(rings) == dots and len(rings) == g.n, "triple points are not the vertices")
    else:
        _expect(not rings, "triple points drawn without a plan")


# ---------------------------------------------------------------------------
# Self-test: every checker must reject a corrupted output
# ---------------------------------------------------------------------------


def _square() -> Grid:
    # A quadrilateral with a diagonal and a pendant: degrees 3, 2, 4, 2, 1.
    return Grid([0, 5, 7, 1, 9], [0, 1, 6, 4, 3], 4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (2, 4)])


def self_test() -> list[str]:
    """Names of checkers that accepted a corrupted output or rejected a
    good one; empty when every checker works."""
    g = _square()
    text = format_graph_text(g)
    points = Grid(g.xs, g.ys, g.scale, [])
    curve = format_curve_text("2", "1", recount_curve(g, 2, 1, 1))
    flipped = curve.rsplit(" ", 1)[0] + " 9\n"

    class P:  # a recovered point as the library returns it
        def __init__(self, x, y):
            self.x, self.y = Fraction(x, g.scale), Fraction(y, g.scale)

    pts = [P(x, y) for x, y in zip(g.xs, g.ys)]
    svg_ok = (
        '<svg xmlns="http://www.w3.org/2000/svg">'
        + "".join(f'<circle cx="{x}" cy="{y}" r="4"/>' for x, y in zip(g.xs, g.ys))
        + '<line stroke="black"/>' * len(g.edges)
        + "</svg>"
    )
    trace = "Traceback (most recent call last):\n  ValueError: boom"
    cases = {
        "gen": (
            lambda out: check_gen(Result(out=out), g.n, False),
            text,
            text.replace(text.splitlines()[2] + "\n", "", 1),
        ),
        "ecc": (lambda out: check_curve(Result(out=out), g, "2", "1"), curve, flipped),
        "reconstruct": (
            lambda out: check_reconstruct_ecc(Result(out=out), g),
            format_graph_text(points),
            format_graph_text(Grid(g.xs[1:], g.ys[1:], g.scale, [])),
        ),
        "recover": (lambda v: check_recover(Result(value=v), g), pts, pts[1:]),
        "render": (
            lambda out: check_svg(Result(out=out), g, False),
            svg_ok,
            svg_ok.replace('r="4"/>', 'r="5"/>', 1),
        ),
        "plan3n": (
            lambda out: check_plan3n(Result(out=out, files={"plan.txt": "0 1 0 0 1 1 1"}), Grid([0], [0], 1, [])),
            "triple points: 1\nspurious: 0\nmissing: 0\nverification: passed\n",
            "triple points: 1\nspurious: 1\nmissing: 0\nverification: passed\n",
        ),
        "refusal": (
            lambda err: refused(Result(rc=1, err=err), frozenset({"PLANARITY"})),
            "PLANARITY: crossing: vertices [0, 1, 2, 3]\n",
            "ERROR: crossing\n",
        ),
        "refusal-traceback": (
            lambda err: refused(Result(rc=1, err=err), frozenset({"PLANARITY"})),
            "PLANARITY: crossing\n",
            trace,
        ),
        "answer-traceback": (
            lambda exc: check_reconstruct_ecc(Result(out=format_graph_text(points), exc=exc), g),
            None,
            trace,
        ),
    }
    broken = []
    for name, (check, good, bad) in cases.items():
        if verdict(check, good)[0] is not None:
            broken.append(f"{name}: rejects a good output")
        if verdict(check, bad)[0] is None:
            broken.append(f"{name}: accepts a corrupted output")
    return broken
