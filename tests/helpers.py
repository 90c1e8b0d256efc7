"""Shared test utilities, chiefly independent brute-force oracles for curves
and for the geometric validators.

``brute_ecc`` rebuilds the curve definition from scratch: for every
candidate threshold it literally counts the vertices and edges present in
the sublevel complex.  It shares no code with the implementation under
test beyond the graph container, so agreement between the two is a real
check rather than a tautology.  ``brute_general_position`` and
``brute_planarity`` likewise search every triple and every pair on the
rational coordinates, with a parametric crossing test instead of
orientation signs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from eccplane.geom import Direction, PlaneGraph, Point


def brute_ecc(g: PlaneGraph, direction: Direction) -> list[tuple[Fraction, int]]:
    """Breakpoints of the curve along ``direction`` by direct recounting."""
    heights = [p.x * direction.dx + p.y * direction.dy for p in g.vertices]

    def chi_at(h: Fraction) -> int:
        verts = sum(1 for hv in heights if hv <= h)
        edges = sum(1 for i, j in g.edges if heights[i] <= h and heights[j] <= h)
        return verts - edges

    breakpoints: list[tuple[Fraction, int]] = []
    previous = 0
    for h in sorted(set(heights)):
        value = chi_at(h)
        if value != previous:
            breakpoints.append((h, value))
            previous = value
    return breakpoints


def random_direction(rng: random.Random, span: int = 9) -> Direction:
    while True:
        dx = rng.randint(-span, span)
        dy = rng.randint(-span, span)
        if (dx, dy) != (0, 0):
            return Direction(dx, dy)


def path_gadget(center, a, b) -> PlaneGraph:
    """Three vertices with the center (index 0) joined to the other two."""
    return PlaneGraph([Point(*center), Point(*a), Point(*b)], [(0, 1), (0, 2)])


def quadrant_point(rng: random.Random, q: int, span: int = 50) -> tuple[int, int]:
    """A random integer offset strictly inside quadrant ``q``."""
    x = rng.randint(1, span)
    y = rng.randint(1, span)
    if q in (2, 3):
        x = -x
    if q in (3, 4):
        y = -y
    return (x, y)


def brute_general_position(g: PlaneGraph) -> list[tuple[str, tuple[int, ...]]]:
    """(kind, vertices) of every general-position violation, by direct
    search: coordinate groups in order of first appearance, then every
    collinear triple i < j < k from an exact rational cross product."""
    pts = g.vertices
    n = len(pts)
    out = []
    for axis, kind in ((0, "duplicate-x"), (1, "duplicate-y")):
        coords = [(p.x, p.y)[axis] for p in pts]
        for i in range(n):
            if coords[i] not in coords[:i]:
                group = tuple(j for j in range(n) if coords[j] == coords[i])
                if len(group) > 1:
                    out.append((kind, group))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                u = (pts[j].x - pts[i].x, pts[j].y - pts[i].y)
                w = (pts[k].x - pts[i].x, pts[k].y - pts[i].y)
                if u[0] * w[1] == u[1] * w[0]:
                    out.append(("collinear", (i, j, k)))
    return out


def brute_planarity(g: PlaneGraph) -> list[tuple[str, tuple[int, ...]]]:
    """(kind, vertices) of every planarity violation, by direct search over
    all edge pairs and all vertex/edge pairs.

    Two segments p + t*r and q + u*s cross properly when their lines meet
    at parameters 0 < t, u < 1; a vertex lies on an open segment when it is
    on the segment's line strictly between the endpoints.
    """
    pts = g.vertices
    out = []
    for a, (i1, j1) in enumerate(g.edges):
        for i2, j2 in g.edges[a + 1 :]:
            if {i1, j1} & {i2, j2}:
                continue
            p, q = pts[i1], pts[i2]
            r = (pts[j1].x - p.x, pts[j1].y - p.y)
            s = (pts[j2].x - q.x, pts[j2].y - q.y)
            denom = r[0] * s[1] - r[1] * s[0]
            if denom == 0:
                continue
            qp = (q.x - p.x, q.y - p.y)
            t = Fraction(qp[0] * s[1] - qp[1] * s[0]) / denom
            u = Fraction(qp[0] * r[1] - qp[1] * r[0]) / denom
            if 0 < t < 1 and 0 < u < 1:
                out.append(("crossing", (i1, j1, i2, j2)))
    for v, pv in enumerate(pts):
        for i, j in g.edges:
            if v in (i, j):
                continue
            r = (pts[j].x - pts[i].x, pts[j].y - pts[i].y)
            w = (pv.x - pts[i].x, pv.y - pts[i].y)
            along = w[0] * r[0] + w[1] * r[1]
            if r[0] * w[1] == r[1] * w[0] and 0 < along < r[0] ** 2 + r[1] ** 2:
                out.append(("vertex-on-edge", (v, i, j)))
    return out
