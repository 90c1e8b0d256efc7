"""The three workloads, as endless sequences of op cycles built from a seed.

A cycle is a fixed list of op slots; cycle k of a given seed is always
the same inputs.  Every op gets its own input files, written just before
it runs, so no two timed ops read the same file.  Graph sizes are fixed
per slot and only the geometry varies with the seed, which keeps each
run's mix of work the same.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

import checks
import exact
from exact import Grid

# Denominator regimes of curves-large: the generator's grid, and mixed
# reduced denominators (all divisors of lcm(1..30), about 2.3e12).
REGIMES = {"pow2": 2**20, "lcm30": lcm(*range(1, 31))}


class Op:
    """One timed call.  ``argv`` is a CLI command line in which ``@/``
    stands for the op's directory; library ops have ``prepare(ep)``,
    which returns the call to time.  ``group`` names the directory, so
    that a render op can read the plan its plan3n op wrote."""

    __slots__ = ("kind", "n", "files", "argv", "prepare", "collect", "check", "info", "group")

    def __init__(self, kind, n, check, *, files=None, argv=None, prepare=None,
                 collect=(), info=None, group=None):
        self.kind, self.n, self.check = kind, n, check
        self.files, self.argv, self.prepare = files or {}, argv, prepare
        self.collect, self.info, self.group = collect, info or {}, group


def _rng(seed: int, name: str, k: int, slot: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{k}:{slot}")


# Target edge counts as multiples of n.  The generator draws m nearly
# uniformly, and validation and planning costs grow with m, so each graph
# is the one, among CANDIDATES consecutive generator seeds, whose m is
# nearest the slot's target.  That keeps a run's work, and the set-up
# cost of finding it, the same from seed to seed.
SPARSE, MEDIUM, DENSE = 1.1, 1.35, 1.8
CANDIDATES = 8


def _generated(ep, n: int, seed: int, forbid_deg2: bool, target: float, accept=None):
    """(text, grid) of the chosen generator graph; ``accept`` filters grids."""
    while True:
        best = None
        for s in range(seed, seed + CANDIDATES):
            g = ep.generate(ep.GenConfig(n=n, seed=s, forbid_deg2=forbid_deg2))
            miss = abs(len(g.edges) - target * n)
            if best is None or miss < best[0]:
                text = ep.format_graph(g)
                grid = exact.parse_graph_text(text)
                if accept is None or accept(grid):
                    best = (miss, text, grid)
        if best is not None:
            return best[1], best[2]
        seed += CANDIDATES


def _describe(g: Grid, **extra) -> dict:
    return {"n": g.n, "m": len(g.edges), "deg2": len(g.degree_two()), **extra}


def _direction(g: Grid, rng, positive_dx: bool = False) -> tuple[int, int]:
    """A small integer direction with no two vertices at one height."""
    while True:
        a = rng.randint(1 if positive_dx else -9, 9)
        b = rng.randint(-9, 9)
        if (a, b) != (0, 0) and None not in exact.jumps(g, a, b):
            return a, b


class Workload:
    name = ""
    tail_pct = 90  # the op_tail_ms percentile; a run has >= 10 ops beyond it
    slots: tuple = ()

    def __init__(self, seed: int, ep):
        self.seed, self.ep = seed, ep

    def cycle(self, k: int) -> list[Op]:
        ops = []
        for slot, spec in enumerate(self.slots):
            ops += self.build(k, slot, spec, _rng(self.seed, self.name, k, slot))
        return ops


class CliGraphs(Workload):
    """CLI commands over generator graph files; validation dominates."""

    name = "cli-graphs"
    slots = (
        ("gen", 200), ("ecc", 32), ("witness", 24), ("deg2", 24), ("reconstruct", 28),
        ("render", 24), ("ecc", 28), ("witness", 28), ("deg2", 28), ("reconstruct", 32),
        ("render", 28), ("refuse", 24),
    )

    def build(self, k, slot, spec, rng):
        kind, n = spec
        gseed = rng.randrange(1 << 30)
        if kind == "gen":
            forbid = k % 2 == 1
            argv = ["gen", "--n", str(n), "--seed", str(gseed)] + ["--forbid-deg2"] * forbid
            return [Op("gen", n, lambda r: checks.check_gen(r, n, forbid), argv=argv,
                       info={"n": n, "forbid_deg2": int(forbid)})]
        if kind == "refuse":
            return [self._hostile(("GENERAL_POSITION", "PLANARITY", "DEG2_PRESENT")[k % 3], n, gseed, rng)]
        forbid = kind == "reconstruct"
        text, g = _generated(self.ep, n, gseed, forbid, DENSE if forbid else MEDIUM)
        files = {"g.txt": text}
        if kind == "reconstruct":
            return [Op(kind, n, lambda r: checks.check_reconstruct_report(r, g), files=files,
                       argv=["reconstruct", "-g", "@/g.txt", "--report"], info=_describe(g))]
        if kind == "deg2":
            return [Op(kind, n, lambda r: checks.check_deg2(r, g), files=files,
                       argv=["deg2", "-g", "@/g.txt"], info=_describe(g))]
        if kind == "render":
            dirs = [f"{a},{b}" for a, b in (_direction(g, rng, True) for _ in range(2))]
            return [Op(kind, n, lambda r: checks.check_svg(r, g, triples=False), files=files,
                       argv=["render", "-g", "@/g.txt", "--lines", *dirs], info=_describe(g))]
        a, b = _direction(g, rng)
        if kind == "ecc":
            check = lambda r: checks.check_curve(r, g, str(a), str(b))  # noqa: E731
        else:
            check = lambda r: checks.check_witness(r, g, f"{a},{b}")  # noqa: E731
        return [Op(kind, n, check, files=files, argv=[kind, "-g", "@/g.txt", f"--dir={a},{b}"],
                   info=_describe(g))]

    def _hostile(self, code: str, n: int, gseed: int, rng) -> Op:
        """A file that must end in the refusal ``code``."""
        if code == "GENERAL_POSITION":
            _, g = _generated(self.ep, n, gseed, False, MEDIUM)
            # An isolated vertex halfway between vertices 0 and 1.
            bad = Grid([2 * x for x in g.xs] + [g.xs[0] + g.xs[1]],
                       [2 * y for y in g.ys] + [g.ys[0] + g.ys[1]], 2 * g.scale, g.edges)
            argv = ["ecc", "-g", "@/g.txt", "--dir=1,2"]
        elif code == "PLANARITY":
            _, g = _generated(self.ep, n, gseed, False, MEDIUM,
                              lambda g: _crossing_chord(g, rng) is not None)
            bad = Grid(g.xs, g.ys, g.scale, g.edges + [_crossing_chord(g, rng)])
            argv = ["witness", "-g", "@/g.txt", "--dir=1,2"]
        else:
            _, bad = _generated(self.ep, n, gseed, False, MEDIUM, lambda g: bool(g.degree_two()))
            argv = ["reconstruct", "-g", "@/g.txt", "--report"]
        codes = frozenset({code})
        return Op("refuse", bad.n, lambda r: checks.refused(r, codes),
                  files={"g.txt": exact.format_graph_text(bad)}, argv=argv,
                  info={**_describe(bad), "code": code})


def _crossing_chord(g: Grid, rng) -> tuple[int, int] | None:
    """A non-edge whose segment crosses an edge, picked at random."""
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n) if j not in g.adj[i]]
    rng.shuffle(pairs)
    return next((p for p in pairs if exact.crosses(g, *p)), None)


class CurvesLarge(Workload):
    """Six-curve reconstruction at thousands of vertices; no validation."""

    name = "curves-large"
    slots = (
        ("recover", "pow2"), ("reconstruct", "pow2"),
        ("recover", "lcm30"), ("reconstruct", "lcm30"), ("refuse", None),
    )
    # 1024 vertices lets a run hold the 100 ops a p90 tail needs; the p90
    # then falls in the middle of the slowest op kind (lcm30 recover).
    n = 1024

    def build(self, k, slot, spec, rng):
        kind, regime = spec
        if kind == "refuse":
            regime = ("pow2", "lcm30")[k % 2]
        g = exact.large_graph(self.n, REGIMES[regime], rng)
        info = _describe(g, regime=regime)
        if kind == "recover":
            def prepare(ep, g=g):
                s = g.scale
                pg = ep.PlaneGraph([(Fraction(x, s), Fraction(y, s)) for x, y in zip(g.xs, g.ys)], g.edges)
                return lambda: ep.reconstruct_from_graph(pg)

            return [Op(kind, g.n, lambda r: checks.check_recover(r, g), prepare=prepare, info=info)]
        curves = exact.six_curves(g)
        if kind == "refuse":
            # Curves of another graph swapped in for cardinal ones.  Swapping
            # a tilted curve instead is not refused with a code today.
            other = exact.six_curves(exact.large_graph(self.n, REGIMES[regime], rng))
            swap = ("west",) if k % 4 < 2 else ("north", "south")
            curves.update({name: other[name] for name in swap})
            info["swapped"] = "+".join(swap)
        info["breakpoints"] = sum(len(t.splitlines()) - 1 for t in curves.values())
        names = list(exact.SIX)
        rng.shuffle(names)
        argv = ["reconstruct", "--ecc", *[f"@/{name}.ecc" for name in names]]
        files = {f"{name}.ecc": text for name, text in curves.items()}
        if kind == "refuse":
            return [Op(kind, g.n, lambda r: checks.refused(r, None), files=files, argv=argv, info=info)]
        return [Op(kind, g.n, lambda r: checks.check_reconstruct_ecc(r, g), files=files, argv=argv, info=info)]


class Plans(Workload):
    """plan3n --verify and render --plan on small generator graphs."""

    name = "plans"
    slots = (8, 9, 10, 11, 12, 13, 14, 15)

    def build(self, k, slot, n, rng):
        text, g = _generated(self.ep, n, rng.randrange(1 << 30), False, SPARSE)
        group = f"plan{slot}"
        argv = ["plan3n", "-g", "@/g1.txt", "--seed", str(rng.randrange(1 << 20)),
                "--verify", "-o", "@/plan.txt"]
        plan = Op("plan3n", n, lambda r: {"arrangement_lines": checks.check_plan3n(r, g)},
                  files={"g1.txt": text}, argv=argv, collect=("plan.txt",), info=_describe(g),
                  group=group)
        render = Op("render", n, lambda r: checks.check_svg(r, g, triples=True),
                    files={"g2.txt": text}, argv=["render", "-g", "@/g2.txt", "--plan", "@/plan.txt"],
                    info=_describe(g), group=group)
        return [plan, render]


WORKLOADS = {w.name: w for w in (CliGraphs, CurvesLarge, Plans)}
