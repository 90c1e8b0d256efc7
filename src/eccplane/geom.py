"""Exact plane geometry: rational scalars, points, direction rays, and
straight-line graph validation.

Every quantity at the API and in the file formats is an exact rational
number (:class:`fractions.Fraction`); there is no floating-point fallback
and no epsilon anywhere.  Directions are rays with rational components
rather than unit vectors: every predicate downstream depends only on the
ordering of heights, which is invariant under positive rescaling, so
normalizing to unit length would only introduce irrationality.

The validators run on an integer lattice instead: order, sign and
concurrence all survive a positive uniform rescale, so a graph's
coordinates are multiplied once by the lcm of their denominators and every
predicate is then a Python-int sign test.  Collinear triples are found by
hashing reduced direction vectors per anchor (quadratic, the right target
for a 3SUM-hard problem) and candidate edge crossings are pruned by an
x-sorted sweep.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError

Scalar = Fraction

# Longest number token accepted, and largest decimal exponent magnitude.
# Both bound the digits a token can expand to, so parsing and the lattice
# scale of the validators stay bounded per input byte ("1e10000000" would
# otherwise build a ten-million-digit integer).
_MAX_SCALAR_CHARS = 4096
_MAX_SCALAR_EXPONENT = 4096


def parse_scalar(text: str) -> Fraction:
    """Parse a number token: integer, decimal ("1.25", "-3e-2"), or ratio
    ("5/4").

    All three forms convert exactly; decimals never round.  Tokens longer
    than 4096 characters or with a decimal exponent beyond ±4096 are
    refused.
    """
    if len(text) > _MAX_SCALAR_CHARS:
        raise ParseError(
            f"number token of {len(text)} characters exceeds {_MAX_SCALAR_CHARS}"
        )
    if "e" in text or "E" in text:
        mark = max(text.rfind("e"), text.rfind("E"))
        try:
            exponent = int(text[mark + 1 :])
        except ValueError:
            exponent = 0  # not an exponent; Fraction decides below
        if abs(exponent) > _MAX_SCALAR_EXPONENT:
            raise ParseError(
                f"bad number {text[:40]!r}: exponent beyond "
                f"±{_MAX_SCALAR_EXPONENT}"
            )
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad number {text!r}: {exc}") from None


def format_scalar(value: Fraction) -> str:
    """Render as "p/q" when the denominator is not 1, else as an integer."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Point:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def __repr__(self):
        return f"Point({format_scalar(self.x)}, {format_scalar(self.y)})"


@dataclass(frozen=True)
class Direction:
    """A ray in the plane with rational components.

    Two directions describe the same ray iff one is a positive scalar
    multiple of the other; ``canonical()`` picks the coprime-integer
    representative of that equivalence class (signs preserved, so a ray and
    its opposite stay distinct).
    """

    dx: Fraction
    dy: Fraction

    def __post_init__(self):
        object.__setattr__(self, "dx", Fraction(self.dx))
        object.__setattr__(self, "dy", Fraction(self.dy))
        if self.dx == 0 and self.dy == 0:
            raise ValueError("direction must be nonzero")

    def __neg__(self) -> "Direction":
        return Direction(-self.dx, -self.dy)

    def perp(self) -> "Direction":
        """The ray rotated a quarter turn counterclockwise."""
        return Direction(-self.dy, self.dx)

    def cross(self, other: "Direction") -> Fraction:
        return self.dx * other.dy - self.dy * other.dx

    def dot(self, other: "Direction") -> Fraction:
        return self.dx * other.dx + self.dy * other.dy

    def canonical(self) -> "Direction":
        """Coprime-integer representative of this ray (positive scaling only)."""
        scale = lcm(self.dx.denominator, self.dy.denominator)
        a = int(self.dx * scale)
        b = int(self.dy * scale)
        g = gcd(a, b)
        return Direction(Fraction(a // g), Fraction(b // g))

    def same_ray(self, other: "Direction") -> bool:
        return self.canonical() == other.canonical()

    def parallel(self, other: "Direction") -> bool:
        """True for equal or opposite rays (their level lines are parallel)."""
        return self.cross(other) == 0

    def __repr__(self):
        return f"Direction({format_scalar(self.dx)}, {format_scalar(self.dy)})"


EAST = Direction(1, 0)
WEST = Direction(-1, 0)
NORTH = Direction(0, 1)
SOUTH = Direction(0, -1)

#: The four axis-parallel directions, the only ones for which distinct
#: vertex coordinates guarantee distinct heights a priori.
CARDINALS = (NORTH, SOUTH, EAST, WEST)


def height(p: Point, direction: Direction) -> Fraction:
    """Height of a point along a direction ray: the inner product p . d.

    Scaling the ray by k > 0 scales every height by k, so the induced
    ordering of points is a property of the ray alone.
    """
    return p.x * direction.dx + p.y * direction.dy


def quadrant(p: Point, origin: Point) -> int:
    """Quadrant (1..4) of ``p`` relative to ``origin``.

    1 = (+,+), 2 = (-,+), 3 = (-,-), 4 = (+,-).  Points sharing a
    coordinate with the origin sit on a quadrant boundary and are rejected;
    distinct-coordinate inputs never hit this.
    """
    dx = p.x - origin.x
    dy = p.y - origin.y
    if dx == 0 or dy == 0:
        raise ValueError(f"{p!r} lies on a quadrant boundary of {origin!r}")
    if dx > 0:
        return 1 if dy > 0 else 4
    return 2 if dy > 0 else 3


def orientation(a: Point, b: Point, c: Point) -> int:
    """Sign of the turn a->b->c: +1 left, -1 right, 0 collinear. Exact."""
    det = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


class PlaneGraph:
    """Vertices and straight-line edges embedded in the plane.

    Construction checks only combinatorial sanity (edge indices in range,
    no loops, no duplicates).  The geometric assumptions, distinct
    coordinates, no collinear triple, and non-crossing edges, are checked
    by :func:`validate_general_position` and :func:`validate_planarity`;
    violations there are reported as data so a caller can refuse to proceed
    rather than crash mid-pipeline.
    """

    __slots__ = ("vertices", "edges", "_adjacency")

    def __init__(self, vertices, edges):
        self.vertices: tuple[Point, ...] = tuple(
            v if isinstance(v, Point) else Point(*v) for v in vertices
        )
        n = len(self.vertices)
        canon = []
        seen = set()
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for {n} vertices")
            e = (i, j) if i < j else (j, i)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            canon.append(e)
        self.edges: tuple[tuple[int, int], ...] = tuple(canon)
        adj: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self._adjacency = tuple(tuple(a) for a in adj)

    def __len__(self):
        return len(self.vertices)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def degree(self, v: int) -> int:
        return len(self._adjacency[v])

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, PlaneGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self):
        return f"PlaneGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class Violation:
    """One failed geometric assumption, naming the offending vertices."""

    kind: str  # "duplicate-x" | "duplicate-y" | "collinear" | "crossing" | "vertex-on-edge"
    vertices: tuple[int, ...]

    def __str__(self):
        return f"{self.kind}: vertices {list(self.vertices)}"


def _lattice(g: PlaneGraph) -> list[tuple[int, int]]:
    """The vertices scaled by the lcm of all coordinate denominators: the
    same configuration on integer coordinates, in vertex order."""
    pts = g.vertices
    scale = lcm(*(p.x.denominator for p in pts), *(p.y.denominator for p in pts))
    return [
        (p.x.numerator * (scale // p.x.denominator),
         p.y.numerator * (scale // p.y.denominator))
        for p in pts
    ]


def _line_class(dx: int, dy: int) -> tuple[int, int]:
    """Coprime, sign-normalised representative of the nonzero integer vector
    (dx, dy): two vectors share it iff they are parallel."""
    k = gcd(dx, dy)
    dx //= k
    dy //= k
    if dx < 0 or (dx == 0 and dy < 0):
        return -dx, -dy
    return dx, dy


def validate_general_position(g: PlaneGraph) -> list[Violation]:
    """Check distinct x-coordinates, distinct y-coordinates, and the absence
    of collinear vertex triples.  Returns an empty list iff all hold.

    Collinear triples (i, j, k) are listed with i < j < k in lexicographic
    order; a vertex coinciding with another is collinear with every third.
    """
    out: list[Violation] = []
    pts = _lattice(g)
    by_x: dict[int, list[int]] = {}
    by_y: dict[int, list[int]] = {}
    for i, (x, y) in enumerate(pts):
        by_x.setdefault(x, []).append(i)
        by_y.setdefault(y, []).append(i)
    for group in by_x.values():
        if len(group) > 1:
            out.append(Violation("duplicate-x", tuple(group)))
    for group in by_y.values():
        if len(group) > 1:
            out.append(Violation("duplicate-y", tuple(group)))
    n = len(pts)
    for i in range(n):
        xi, yi = pts[i]
        # Points j > i on one line through the anchor share a class.
        lines: dict[tuple[int, int], list[int]] = {}
        coincident: list[int] = []
        for j in range(i + 1, n):
            dx = pts[j][0] - xi
            dy = pts[j][1] - yi
            if dx == 0 and dy == 0:
                coincident.append(j)
            else:
                lines.setdefault(_line_class(dx, dy), []).append(j)
        if len(lines) == n - 1 - i:
            continue
        pairs = [
            (j, k) for line in lines.values() for a, j in enumerate(line) for k in line[a + 1 :]
        ]
        if coincident:
            on_anchor = set(coincident)
            pairs += [(j, k) for j in coincident for k in range(j + 1, n)]
            pairs += [
                (j, k) for k in coincident for j in range(i + 1, k) if j not in on_anchor
            ]
        pairs.sort()
        out.extend(Violation("collinear", (i, j, k)) for j, k in pairs)
    return out


def validate_planarity(g: PlaneGraph) -> list[Violation]:
    """Check that open edge segments neither cross each other nor contain a
    vertex.  Assumes general position already holds; all tests are exact
    integer sign-of-determinant predicates.

    Crossings are listed by edge index pair, then vertices on edges by
    vertex and edge index.
    """
    pts = _lattice(g)
    edges = g.edges
    boxes = []
    for e, (i, j) in enumerate(edges):
        (ax, ay), (bx, by) = pts[i], pts[j]
        boxes.append((min(ax, bx), max(ax, bx), min(ay, by), max(ay, by), e))
    # A proper crossing lies inside both segments' boxes, so sweeping edges
    # by left end only pairs whose x-ranges overlap need a test.
    boxes.sort()
    crossings = []
    for p, (_, x_hi, y_lo, y_hi, a) in enumerate(boxes):
        i1, j1 = edges[a]
        (ax, ay), (bx, by) = pts[i1], pts[j1]
        for q in range(p + 1, len(boxes)):
            x_lo2, _, y_lo2, y_hi2, b = boxes[q]
            if x_lo2 > x_hi:
                break
            if y_lo2 > y_hi or y_hi2 < y_lo:
                continue
            i2, j2 = edges[b]
            if i2 == i1 or i2 == j1 or j2 == i1 or j2 == j1:
                continue
            (cx, cy), (dx, dy) = pts[i2], pts[j2]
            o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
            o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
            if o1 * o2 >= 0:
                continue
            o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
            o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
            if o3 * o4 < 0:
                crossings.append((a, b) if a < b else (b, a))
    crossings.sort()
    out = [Violation("crossing", edges[a] + edges[b]) for a, b in crossings]

    by_x = sorted(range(len(pts)), key=lambda v: pts[v][0])
    xs = [pts[v][0] for v in by_x]
    on_edge = []
    for x_lo, x_hi, y_lo, y_hi, e in boxes:
        i, j = edges[e]
        (ax, ay), (bx, by) = pts[i], pts[j]
        for v in by_x[bisect_left(xs, x_lo) : bisect_right(xs, x_hi)]:
            px, py = pts[v]
            if (
                v != i
                and v != j
                and (x_lo < px < x_hi or y_lo < py < y_hi)
                and (bx - ax) * (py - ay) == (by - ay) * (px - ax)
            ):
                on_edge.append((v, e))
    on_edge.sort()
    out.extend(Violation("vertex-on-edge", (v,) + edges[e]) for v, e in on_edge)
    return out


# ---------------------------------------------------------------------------
# Graph text format
#
#   n m
#   x y          (n vertex lines)
#   i j          (m edge lines, 0-based, i < j)
#
# '#' starts a comment line; numbers are decimals or "p/q" rationals.
# ---------------------------------------------------------------------------


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append(line)
    return out


def parse_graph(text: str) -> PlaneGraph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad counts in header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ParseError("negative counts in header")
    if len(lines) != 1 + n + m:
        raise ParseError(f"expected {1 + n + m} content lines, found {len(lines)}")
    vertices = []
    for line in lines[1 : 1 + n]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad vertex line {line!r}")
        vertices.append(Point(parse_scalar(parts[0]), parse_scalar(parts[1])))
    edges = []
    for line in lines[1 + n :]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad edge line {line!r}") from None
        edges.append((i, j))
    try:
        return PlaneGraph(vertices, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def format_graph(g: PlaneGraph) -> str:
    out = [f"{len(g.vertices)} {len(g.edges)}"]
    for p in g.vertices:
        out.append(f"{format_scalar(p.x)} {format_scalar(p.y)}")
    for i, j in g.edges:
        out.append(f"{i} {j}")
    return "\n".join(out) + "\n"
