"""Seeded random plane graphs in general position, plus hand-built gadgets.

Coordinates are sampled on a 1/D grid inside the unit square and resampled
until the set has pairwise distinct x- and y-coordinates and no collinear
triple, so the general-position assumptions hold exactly rather than with
probability one.  Edges come from an incremental triangulation (sweep the
points by x, connect each new point to every hull vertex it can see),
followed by seeded random deletions.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ExhaustedRejectsError
from .geom import PlaneGraph, Point, Scalar, _line_class

DEFAULT_DENOMINATOR = 2**20


@dataclass(frozen=True)
class GenConfig:
    n: int
    seed: int = 0
    forbid_deg2: bool = False
    coord_denominator: int = DEFAULT_DENOMINATOR
    max_rejects: int = 1000

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if self.coord_denominator < 1:
            raise ValueError("coordinate denominator must be positive")


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _sample_points(cfg: GenConfig, rng: random.Random) -> list[tuple[int, int]]:
    """Integer grid points (numerators over cfg.coord_denominator) with
    distinct coordinates and no collinear triple; rejection-sampled."""
    d = cfg.coord_denominator
    points: list[tuple[int, int]] = []
    seen_x: set[int] = set()
    seen_y: set[int] = set()
    rejects = 0
    while len(points) < cfg.n:
        x, y = rng.randint(0, d), rng.randint(0, d)
        ok = x not in seen_x and y not in seen_y
        if ok:
            # Accepted points have distinct x, so every offset is nonzero and
            # two share a line class iff they are collinear with (x, y).
            lines = {_line_class(px - x, py - y) for px, py in points}
            ok = len(lines) == len(points)
        if not ok:
            rejects += 1
            if rejects > cfg.max_rejects:
                raise ExhaustedRejectsError(
                    f"rejected {rejects} samples; grid 1/{d} too coarse "
                    f"for {cfg.n} points in general position"
                )
            continue
        points.append((x, y))
        seen_x.add(x)
        seen_y.add(y)
    return points


def _triangulate(points: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Edges of an incremental triangulation of x-sorted points.

    Sweeping left to right, each new point is joined to the current
    rightmost vertex and then to every hull vertex exposed while the upper
    and lower hull chains are peeled back — exactly the hull vertices it
    can see.  The result is a maximal planar straight-line graph.
    """
    n = len(points)
    if n < 2:
        return set()
    order = sorted(range(n), key=lambda i: points[i][0])
    edges: set[tuple[int, int]] = set()

    def connect(i: int, j: int):
        edges.add((i, j) if i < j else (j, i))

    upper = [order[0], order[1]]
    lower = [order[0], order[1]]
    connect(order[0], order[1])
    for k in order[2:]:
        p = points[k]
        connect(k, upper[-1])
        # Upper hull keeps clockwise turns; a popped vertex is newly hidden
        # under the chain, and the vertex before it becomes visible.
        while len(upper) >= 2 and _cross(points[upper[-2]], points[upper[-1]], p) > 0:
            upper.pop()
            connect(k, upper[-1])
        upper.append(k)
        while len(lower) >= 2 and _cross(points[lower[-2]], points[lower[-1]], p) < 0:
            lower.pop()
            connect(k, lower[-1])
        lower.append(k)
    return edges


def _clear_degree_two(
    n: int, edges: set[tuple[int, int]], rng: random.Random
) -> None:
    """Delete edges at degree-2 vertices until none remain.

    Removing an edge strictly shrinks the edge set, so this terminates; an
    edge whose far endpoint would drop to degree 2 is avoided when any
    alternative exists.  The lowest-numbered degree-2 vertex goes first.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    # Degrees only fall, so a vertex leaves degree 2 for good; entries that
    # did are skipped when popped.
    pending = [v for v in range(n) if len(adj[v]) == 2]
    while pending:
        v = heapq.heappop(pending)
        if len(adj[v]) != 2:
            continue
        incident = sorted((v, u) if v < u else (u, v) for u in adj[v])
        safe = [e for e in incident if len(adj[e[0] + e[1] - v]) != 3]
        i, j = rng.choice(safe or incident)
        edges.remove((i, j))
        adj[i].remove(j)
        adj[j].remove(i)
        for u in (i, j):
            if len(adj[u]) == 2:
                heapq.heappush(pending, u)


def generate(cfg: GenConfig) -> PlaneGraph:
    """Seeded random plane graph in general position.

    Triangulates sampled grid points, then attempts a random number of
    uniform edge deletions; with forbid_deg2 the triangulation is first
    scrubbed of degree-2 vertices and every deletion that would leave an
    endpoint at degree exactly 2 is rejected, so the output never has one.
    """
    rng = random.Random(cfg.seed)
    raw = _sample_points(cfg, rng)
    edges = _triangulate(raw)
    if cfg.forbid_deg2:
        _clear_degree_two(cfg.n, edges, rng)
    edges = sorted(edges)
    deletions = rng.randint(0, len(edges)) if edges else 0
    deg = [0] * cfg.n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    for _ in range(deletions):
        if not edges:
            break
        k = rng.randrange(len(edges))
        i, j = edges[k]
        if cfg.forbid_deg2 and (deg[i] == 3 or deg[j] == 3):
            continue
        del edges[k]
        deg[i] -= 1
        deg[j] -= 1
    d = cfg.coord_denominator
    vertices = [Point(Fraction(x, d), Fraction(y, d)) for x, y in raw]
    return PlaneGraph(vertices, edges)


def _gadget(coords, edges) -> PlaneGraph:
    return PlaneGraph([Point(x, y) for x, y in coords], edges)


def fig1_trick() -> PlaneGraph:
    """A degree-2 vertex (index 1) whose neighbors sit in opposite
    quadrants, embedded with two extra isolated vertices.  No cardinal
    direction witnesses the middle vertex, and a naively chosen tilted
    direction can fake a three-way crossing away from every vertex."""
    return _gadget(
        [(-2, 3), (0, 0), (3, -2), (1, -3), (2, 1)],
        [(0, 1), (1, 2)],
    )


def fig2_collinear(t: Scalar) -> PlaneGraph:
    """Near-collinear path: (0,0) - (1,t) - (2,t/2), degree-2 vertex at
    index 1.  As t shrinks the three points approach one line and the
    witnessing arcs of the middle vertex collapse."""
    t = Fraction(t)
    if t == 0:
        raise ValueError("t = 0 is collinear and violates general position")
    return _gadget([(0, 0), (1, t), (2, t / 2)], [(0, 1), (1, 2)])


def fig3_same() -> PlaneGraph:
    """Degree-2 vertex (index 0) with both neighbors in its first quadrant."""
    return _gadget([(0, 0), (1, 2), (2, 1)], [(0, 1), (0, 2)])


def fig3_neighbor() -> PlaneGraph:
    """Degree-2 vertex (index 0) with neighbors in quadrants 3 and 4."""
    return _gadget([(1, 2), (0, 0), (2, Fraction(1, 2))], [(0, 1), (0, 2)])


def fig3_opposite() -> PlaneGraph:
    """Degree-2 vertex (index 0) with neighbors in quadrants 2 and 4."""
    return _gadget(
        [(0, 0), (-1, Fraction(1, 2)), (1, Fraction(-1, 3))],
        [(0, 1), (0, 2)],
    )


def fixture(name: str, t: Scalar | None = None) -> PlaneGraph:
    """Look up a hand-built gadget by name.  ``t`` applies only to the
    parameterized near-collinear family (default 1/2)."""
    if name == "fig2_collinear":
        return fig2_collinear(Fraction(1, 2) if t is None else t)
    table = {
        "fig1_trick": fig1_trick,
        "fig3_same": fig3_same,
        "fig3_neighbor": fig3_neighbor,
        "fig3_opposite": fig3_opposite,
    }
    if name not in table:
        raise ValueError(f"unknown fixture {name!r}")
    return table[name]()
