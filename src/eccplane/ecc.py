"""Euler characteristic curves of plane graphs under sublevel filtrations.

A direction ray induces a filtration: at threshold h the active subcomplex
holds every vertex at height <= h and every edge whose higher endpoint is
at height <= h.  The curve maps h to |V_h| - |E_h|.  It is stored as a
sorted breakpoint sequence where only genuine changes are kept, so "the
curve changes at h" is exact set membership rather than a numeric limit.

``delta_chi`` is the local change oracle: the net jump contributed by a
single vertex together with its lower edges.  A vertex is *witnessed* from
a direction exactly when that jump is nonzero; every higher-level check in
this package (cardinal profiles, witness arcs, reconstruction, direction
planning) is phrased against it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .errors import HeightTieError, ParseError
from .geom import Direction, PlaneGraph, format_scalar, height, parse_scalar


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous integer step function, 0 before the first breakpoint.

    ``breakpoints`` is a sorted tuple of (height, value-from-here-on) pairs;
    consecutive values always differ.
    """

    breakpoints: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        bps = tuple((Fraction(h), int(v)) for h, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", bps)
        prev_h = None
        prev_v = 0
        for h, v in bps:
            if prev_h is not None and h <= prev_h:
                raise ValueError("breakpoint heights must be strictly increasing")
            if v == prev_v:
                raise ValueError(f"breakpoint at {h} does not change the value")
            prev_h, prev_v = h, v

    def value_at(self, h) -> int:
        h = Fraction(h)
        heights = [bp[0] for bp in self.breakpoints]
        idx = bisect_right(heights, h)
        if idx == 0:
            return 0
        return self.breakpoints[idx - 1][1]

    @property
    def final_value(self) -> int:
        return self.breakpoints[-1][1] if self.breakpoints else 0

    def __len__(self):
        return len(self.breakpoints)


def lower_star_height(simplex, g: PlaneGraph, direction: Direction) -> Fraction:
    """Filtration height of a vertex or edge: the max vertex height over it."""
    if isinstance(simplex, int):
        simplex = (simplex,)
    return max(height(g.vertices[v], direction) for v in simplex)


def vertex_heights(g: PlaneGraph, direction: Direction) -> list[Fraction]:
    return [height(p, direction) for p in g.vertices]


def compute_ecc(g: PlaneGraph, direction: Direction) -> StepFunction:
    """Euler characteristic curve of ``g`` along ``direction``.

    Events at one height are merged into a single net delta: a vertex
    arriving together with k of its edges contributes 1 - k, and a zero net
    produces no breakpoint at all.  The last value is always |V| - |E|.
    """
    deltas: dict[Fraction, int] = {}
    heights = vertex_heights(g, direction)
    for h in heights:
        deltas[h] = deltas.get(h, 0) + 1
    for i, j in g.edges:
        h = heights[i] if heights[i] >= heights[j] else heights[j]
        deltas[h] = deltas.get(h, 0) - 1
    value = 0
    breakpoints = []
    for h in sorted(deltas):
        d = deltas[h]
        if d != 0:
            value += d
            breakpoints.append((h, value))
    return StepFunction(tuple(breakpoints))


def witness_heights(f: StepFunction) -> list[Fraction]:
    """The heights at which the curve changes, sorted ascending."""
    return [h for h, _ in f.breakpoints]


@dataclass(frozen=True)
class WitnessLineSet:
    """A direction plus the sorted heights at which its curve changes.

    Each height names one level line of the direction; together these are
    the only lines the curve reveals.
    """

    direction: Direction
    heights: tuple[Fraction, ...]

    def __post_init__(self):
        hs = tuple(Fraction(h) for h in self.heights)
        if any(a >= b for a, b in zip(hs, hs[1:])):
            raise ValueError("witness heights must be strictly increasing")
        object.__setattr__(self, "heights", hs)

    @classmethod
    def from_ecc(cls, direction: Direction, f: StepFunction) -> "WitnessLineSet":
        return cls(direction, tuple(witness_heights(f)))


def delta_chi(g: PlaneGraph, v: int, direction: Direction) -> int:
    """Net jump of the curve at vertex ``v``'s height: 1 minus the number of
    edges arriving with v (those whose other endpoint lies strictly below).

    Requires v's height to be unique among the vertices; with a tie the
    jump cannot be attributed to a single vertex and this raises
    :class:`HeightTieError`.
    """
    heights = vertex_heights(g, direction)
    hv = heights[v]
    for u, h in enumerate(heights):
        if u != v and h == hv:
            raise HeightTieError(
                f"vertices {v} and {u} share height {format_scalar(hv)} "
                f"along {direction!r}"
            )
    below = sum(1 for u in g.neighbors(v) if heights[u] < hv)
    return 1 - below


def witnessed_vertices(g: PlaneGraph, direction: Direction) -> set[int]:
    """Indices of vertices whose arrival changes the curve from ``direction``.

    All vertex heights must be pairwise distinct.
    """
    heights = vertex_heights(g, direction)
    seen: dict[Fraction, int] = {}
    for v, h in enumerate(heights):
        if h in seen:
            raise HeightTieError(
                f"vertices {seen[h]} and {v} share height {format_scalar(h)} "
                f"along {direction!r}"
            )
        seen[h] = v
    out = set()
    for v in range(len(g.vertices)):
        below = sum(1 for u in g.neighbors(v) if heights[u] < heights[v])
        if below != 1:
            out.add(v)
    return out


# ---------------------------------------------------------------------------
# Curve text format
#
#   # direction dx dy
#   height value      (one line per breakpoint)
#
# Round-trips bit-exactly.
# ---------------------------------------------------------------------------


def format_ecc(direction: Direction, f: StepFunction) -> str:
    out = [f"# direction {format_scalar(direction.dx)} {format_scalar(direction.dy)}"]
    for h, v in f.breakpoints:
        out.append(f"{format_scalar(h)} {v}")
    return "\n".join(out) + "\n"


def parse_ecc(text: str) -> tuple[Direction, StepFunction]:
    direction = None
    breakpoints = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["direction"]:
                if len(parts) != 3:
                    raise ParseError(f"bad direction header {line!r}")
                try:
                    direction = Direction(parse_scalar(parts[1]), parse_scalar(parts[2]))
                except ValueError as exc:
                    raise ParseError(f"bad direction header {line!r}: {exc}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad breakpoint line {line!r}")
        try:
            breakpoints.append((parse_scalar(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"bad breakpoint line {line!r}") from None
    if direction is None:
        raise ParseError("missing '# direction dx dy' header")
    try:
        return direction, StepFunction(tuple(breakpoints))
    except ValueError as exc:
        raise ParseError(str(exc)) from None
