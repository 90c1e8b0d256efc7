"""Exact integer geometry for the benchmark's inputs and output checkers.

Nothing here imports eccplane: the checkers must judge the program with
code that shares nothing with it.  A rational number is a reduced pair
``(p, q)`` with ``q > 0``; a point set is brought onto one integer grid by
multiplying with the lcm of its denominators, which keeps every order,
sign and concurrence predicate exact in plain integers.
"""

from __future__ import annotations

from functools import cmp_to_key
from math import gcd, lcm


class BadOutput(Exception):
    """An output that does not parse or is not what the input implies."""


# ---------------------------------------------------------------------------
# Rationals as integer pairs
# ---------------------------------------------------------------------------


def reduced(p: int, q: int) -> tuple[int, int]:
    if q == 0:
        raise BadOutput("zero denominator")
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    return (p // g, q // g) if g > 1 else (p, q)


def parse_rational(text: str) -> tuple[int, int]:
    """Integer, ``p/q`` or plain decimal, converted exactly."""
    try:
        if "/" in text:
            p, q = text.split("/")
            return reduced(int(p), int(q))
        if "." in text:
            whole, frac = text.split(".")
            sign = -1 if whole.startswith("-") else 1
            digits = int(whole.lstrip("+-") or "0") * 10 ** len(frac) + int(frac or "0")
            return reduced(sign * digits, 10 ** len(frac))
        return (int(text), 1)
    except ValueError:
        raise BadOutput(f"bad number {text!r}") from None


def format_rational(p: int, q: int) -> str:
    p, q = reduced(p, q)
    return str(p) if q == 1 else f"{p}/{q}"


# ---------------------------------------------------------------------------
# Graphs on an integer grid
# ---------------------------------------------------------------------------


class Grid:
    """A graph whose coordinates are ``xs[i] / scale`` and ``ys[i] / scale``."""

    __slots__ = ("xs", "ys", "scale", "edges", "adj")

    def __init__(self, xs, ys, scale, edges):
        self.xs, self.ys, self.scale = list(xs), list(ys), scale
        self.edges = [(i, j) if i < j else (j, i) for i, j in edges]
        self.adj = [[] for _ in self.xs]
        for i, j in self.edges:
            self.adj[i].append(j)
            self.adj[j].append(i)

    @property
    def n(self) -> int:
        return len(self.xs)

    def points(self) -> set[tuple[tuple[int, int], tuple[int, int]]]:
        """The vertex set as reduced rationals, for exact set comparison."""
        s = self.scale
        return {(reduced(x, s), reduced(y, s)) for x, y in zip(self.xs, self.ys)}

    def degree_two(self) -> list[int]:
        return [v for v, a in enumerate(self.adj) if len(a) == 2]


def grid_from_rationals(coords, edges) -> Grid:
    scale = 1
    for (_, q1), (_, q2) in coords:
        scale = lcm(scale, q1, q2)
    xs = [p * (scale // q) for (p, q), _ in coords]
    ys = [p * (scale // q) for _, (p, q) in coords]
    return Grid(xs, ys, scale, edges)


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_graph_text(text: str) -> Grid:
    lines = _content_lines(text)
    if not lines:
        raise BadOutput("empty graph text")
    try:
        n, m = (int(t) for t in lines[0].split())
    except ValueError:
        raise BadOutput(f"bad graph header {lines[0]!r}") from None
    if n < 0 or m < 0 or len(lines) != 1 + n + m:
        raise BadOutput(f"header says {n} vertices and {m} edges, found {len(lines) - 1} lines")
    coords = []
    for line in lines[1 : 1 + n]:
        parts = line.split()
        if len(parts) != 2:
            raise BadOutput(f"bad vertex line {line!r}")
        coords.append((parse_rational(parts[0]), parse_rational(parts[1])))
    edges, seen = [], set()
    for line in lines[1 + n :]:
        try:
            i, j = (int(t) for t in line.split())
        except ValueError:
            raise BadOutput(f"bad edge line {line!r}") from None
        e = (min(i, j), max(i, j))
        if i == j or not (0 <= i < n and 0 <= j < n) or e in seen:
            raise BadOutput(f"invalid edge {line!r}")
        seen.add(e)
        edges.append(e)
    return grid_from_rationals(coords, edges)


def format_graph_text(g: Grid) -> str:
    s = g.scale
    out = [f"{g.n} {len(g.edges)}"]
    out += [f"{format_rational(x, s)} {format_rational(y, s)}" for x, y in zip(g.xs, g.ys)]
    out += [f"{i} {j}" for i, j in g.edges]
    return "\n".join(out) + "\n"


def _orient(g: Grid, a: int, b: int, c: int) -> int:
    xs, ys = g.xs, g.ys
    d = (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (xs[c] - xs[a])
    return (d > 0) - (d < 0)


def general_position_problem(g: Grid) -> str | None:
    """Distinct x, distinct y, and no collinear triple.

    Collinearity is quadratic: for each anchor, the reduced direction to
    every later point is hashed, and a repeated direction is a collinear
    triple.
    """
    if len(set(g.xs)) != g.n or len(set(g.ys)) != g.n:
        return "repeated coordinate"
    for i in range(g.n):
        seen = {}
        xi, yi = g.xs[i], g.ys[i]
        for j in range(i + 1, g.n):
            dx, dy = g.xs[j] - xi, g.ys[j] - yi
            k = gcd(dx, dy)
            dx, dy = dx // k, dy // k
            if dx < 0 or (dx == 0 and dy < 0):
                dx, dy = -dx, -dy
            if (dx, dy) in seen:
                return f"collinear vertices {i} {seen[dx, dy]} {j}"
            seen[dx, dy] = j
    return None


def crosses(g: Grid, i: int, j: int) -> bool:
    """Whether segment ij properly crosses an edge of ``g``."""
    return any(
        len({i, j, k, l}) == 4
        and _orient(g, i, j, k) * _orient(g, i, j, l) < 0
        and _orient(g, k, l, i) * _orient(g, k, l, j) < 0
        for k, l in g.edges
    )


def crossing(g: Grid) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """One pair of properly crossing edges, or None.

    Edges are swept by their left x so only pairs with overlapping
    x-ranges reach the orientation test.
    """
    xs = g.xs
    spans = sorted(
        (min(xs[i], xs[j]), max(xs[i], xs[j]), i, j) for i, j in g.edges
    )
    for a, (lo, hi, i, j) in enumerate(spans):
        for lo2, _, k, l in spans[a + 1 :]:
            if lo2 > hi:
                break
            if len({i, j, k, l}) < 4:
                continue
            if (
                _orient(g, i, j, k) * _orient(g, i, j, l) < 0
                and _orient(g, k, l, i) * _orient(g, k, l, j) < 0
            ):
                return (i, j), (k, l)
    return None


# ---------------------------------------------------------------------------
# Curves: an integer recount of the Euler characteristic along a direction
# ---------------------------------------------------------------------------


def integer_direction(dx: tuple[int, int], dy: tuple[int, int]) -> tuple[int, int, int]:
    """(a, b, k) with (a, b) integers and the direction equal to (a, b) / k."""
    k = lcm(dx[1], dy[1])
    return dx[0] * (k // dx[1]), dy[0] * (k // dy[1]), k


def recount_curve(g: Grid, a: int, b: int, k: int) -> list[tuple[tuple[int, int], int]]:
    """Breakpoints (height, value) of the curve along (a, b) / k.

    At each height the curve gains one per vertex there and loses one per
    edge whose higher end is there; heights with a zero net change are not
    breakpoints.
    """
    hs = [a * x + b * y for x, y in zip(g.xs, g.ys)]
    net: dict[int, int] = {}
    for h in hs:
        net[h] = net.get(h, 0) + 1
    for i, j in g.edges:
        h = max(hs[i], hs[j])
        net[h] = net.get(h, 0) - 1
    denom = g.scale * k
    out, value = [], 0
    for h in sorted(net):
        if net[h]:
            value += net[h]
            out.append((reduced(h, denom), value))
    return out


def jumps(g: Grid, a: int, b: int) -> list[int | None]:
    """Per-vertex jump 1 - (neighbours strictly below), None on a height tie."""
    hs = [a * x + b * y for x, y in zip(g.xs, g.ys)]
    count: dict[int, int] = {}
    for h in hs:
        count[h] = count.get(h, 0) + 1
    return [
        None if count[hs[v]] > 1 else 1 - sum(1 for u in g.adj[v] if hs[u] < hs[v])
        for v in range(g.n)
    ]


def format_curve_text(dx: str, dy: str, breakpoints) -> str:
    out = [f"# direction {dx} {dy}"]
    out += [f"{format_rational(*h)} {v}" for h, v in breakpoints]
    return "\n".join(out) + "\n"


def parse_curve_text(text: str) -> tuple[tuple[str, str], list]:
    direction, bps = None, []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.lstrip("#").split()
        if line.startswith("#"):
            if parts[:1] == ["direction"] and len(parts) == 3:
                direction = (parts[1], parts[2])
            continue
        if len(parts) != 2:
            raise BadOutput(f"bad breakpoint line {line!r}")
        try:
            bps.append((parse_rational(parts[0]), int(parts[1])))
        except ValueError:
            raise BadOutput(f"bad breakpoint line {line!r}") from None
    if direction is None:
        raise BadOutput("curve has no direction header")
    return direction, bps


# ---------------------------------------------------------------------------
# Large graphs in general position by construction
# ---------------------------------------------------------------------------


def _primitive_steps(count: int, rng) -> list[tuple[int, int]]:
    """``count`` positive primitive vectors, sorted by strictly rising slope."""
    side = 2
    while 0.6 * side * side < 2 * count:
        side += 1
    pool = [
        (a, b)
        for a in range(1, side + 1)
        for b in range(1, side + 1)
        if gcd(a, b) == 1
    ]
    steps = rng.sample(pool, count)
    steps.sort(key=cmp_to_key(lambda s, t: s[1] * t[0] - t[1] * s[0]))
    return steps


def convex_chain(n: int, extent: int, rng) -> tuple[list[int], list[int]]:
    """``n`` integer points in [0, extent]^2 on a strictly convex chain.

    Consecutive steps are positive multiples of primitive vectors with
    strictly rising slopes, so x and y strictly increase and no three
    points are collinear.
    """
    steps = _primitive_steps(n - 1, rng)
    reach = max(sum(a for a, _ in steps), sum(b for _, b in steps))
    top = max(1, extent // (2 * reach))
    xs, ys = [0], [0]
    for a, b in steps:
        k = rng.randint(1, top)
        xs.append(xs[-1] + k * a)
        ys.append(ys[-1] + k * b)
    x0 = rng.randint(0, extent - xs[-1])
    y0 = rng.randint(0, extent - ys[-1])
    return [x + x0 for x in xs], [y + y0 for y in ys]


def triangulate_convex(n: int, rng) -> set[tuple[int, int]]:
    """A random triangulation of the convex polygon 0, 1, ..., n-1.

    Every vertex of a convex polygon is an ear; clipping random ears adds
    the n - 3 diagonals.
    """
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    prev = [(i - 1) % n for i in range(n)]
    nxt = [(i + 1) % n for i in range(n)]
    alive = list(range(n))
    while len(alive) > 3:
        k = rng.randrange(len(alive))
        v = alive[k]
        alive[k] = alive[-1]
        alive.pop()
        p, q = prev[v], nxt[v]
        edges.add((min(p, q), max(p, q)))
        nxt[p], prev[q] = q, p
    return edges


def trim_degree_two(n: int, edges: set[tuple[int, int]], rng) -> None:
    """Delete edges at degree-2 vertices until none is left, preferring an
    edge whose far end does not drop to degree 2."""
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    todo = [v for v in range(n) if len(adj[v]) == 2]
    while todo:
        v = todo.pop()
        if len(adj[v]) != 2:
            continue
        far = sorted(adj[v])
        safe = [u for u in far if len(adj[u]) != 3]
        u = rng.choice(safe or far)
        adj[v].discard(u)
        adj[u].discard(v)
        edges.discard((min(u, v), max(u, v)))
        if len(adj[u]) == 2:
            todo.append(u)


def large_graph(n: int, scale: int, rng) -> Grid:
    """A plane graph with no degree-2 vertex and about 2n edges whose
    coordinates are integers over ``scale``, vertex order shuffled."""
    xs, ys = convex_chain(n, scale, rng)
    edges = triangulate_convex(n, rng)
    trim_degree_two(n, edges, rng)
    order = list(range(n))
    rng.shuffle(order)
    place = {v: k for k, v in enumerate(order)}
    return Grid(
        [xs[v] for v in order],
        [ys[v] for v in order],
        scale,
        sorted((min(place[i], place[j]), max(place[i], place[j])) for i, j in edges),
    )


def tilt(g: Grid) -> tuple[int, int]:
    """Slope t = (smallest column gap) / (2 * row extent) as a reduced pair:
    a level line of (1, t) drifts less than one column gap across all rows."""
    xs, ys = sorted(g.xs), g.ys
    gap = min(b - a for a, b in zip(xs, xs[1:]))
    return reduced(gap, 2 * (max(ys) - min(ys)))


SIX = ("east", "west", "north", "south", "tilt", "antitilt")


def six_curves(g: Grid) -> dict[str, str]:
    """The six curve files that determine the vertex set of ``g``."""
    tp, tq = tilt(g)
    t = format_rational(tp, tq)
    mt = format_rational(-tp, tq)
    specs = {
        "east": ("1", "0", (1, 0, 1)),
        "west": ("-1", "0", (-1, 0, 1)),
        "north": ("0", "1", (0, 1, 1)),
        "south": ("0", "-1", (0, -1, 1)),
        "tilt": ("1", t, (tq, tp, tq)),
        "antitilt": ("-1", mt, (-tq, -tp, tq)),
    }
    return {
        name: format_curve_text(dx, dy, recount_curve(g, *abk))
        for name, (dx, dy, abk) in specs.items()
    }
