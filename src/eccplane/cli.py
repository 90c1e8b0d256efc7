"""Command-line interface: generation, curves, witnesses, degree-2 reports,
reconstruction, direction planning, rendering, and benchmarks.

Every failure exits nonzero with a single machine-parsable line on stderr
of the form ``CODE: detail``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from . import deg2 as deg2mod
from .dirplan import (
    format_plan,
    parse_plan,
    select_3n_directions,
    verify_plan,
)
from .ecc import (
    compute_ecc,
    format_ecc,
    parse_ecc,
    witness_heights,
    witnessed_vertices,
)
from .errors import (
    Degree2PresentError,
    EccPlaneError,
    GeneralPositionError,
    ParseError,
    PlanarityError,
)
from .gen import DEFAULT_DENOMINATOR, GenConfig, generate
from .geom import (
    CARDINALS,
    Direction,
    PlaneGraph,
    Point,
    format_graph,
    format_scalar,
    parse_graph,
    parse_scalar,
    validate_general_position,
    validate_planarity,
)
from .reconstruct import (
    ReconstructionInput,
    cardinal_witness_lines,
    reconstruct_vertices,
    select_third_direction,
)
from .render import RenderSpec, render_svg


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    """Write output atomically; None or '-' means stdout."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".eccplane-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_graph(path: str) -> PlaneGraph:
    g = parse_graph(_read(path))
    violations = validate_general_position(g)
    if violations:
        raise GeneralPositionError(violations)
    violations = validate_planarity(g)
    if violations:
        raise PlanarityError(violations)
    return g


def _parse_direction(text: str) -> Direction:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"direction must be 'dx,dy', got {text!r}")
    try:
        return Direction(parse_scalar(parts[0]), parse_scalar(parts[1]))
    except ValueError as exc:
        raise ParseError(f"bad direction {text!r}: {exc}") from None


def _fmt_dir(s: Direction) -> str:
    return f"({format_scalar(s.dx)},{format_scalar(s.dy)})"


def _cmd_gen(args) -> int:
    cfg = GenConfig(
        n=args.n,
        seed=args.seed,
        forbid_deg2=args.forbid_deg2,
        coord_denominator=args.denom,
        max_rejects=args.max_rejects,
    )
    _write(args.output, format_graph(generate(cfg)))
    return 0


def _cmd_ecc(args) -> int:
    g = _load_graph(args.graph)
    direction = _parse_direction(args.dir)
    _write(args.output, format_ecc(direction, compute_ecc(g, direction)))
    return 0


def _cmd_witness(args) -> int:
    g = _load_graph(args.graph)
    direction = _parse_direction(args.dir)
    f = compute_ecc(g, direction)
    witnessed = sorted(witnessed_vertices(g, direction))
    print(f"direction: {_fmt_dir(direction)}")
    print("witness heights:", " ".join(format_scalar(h) for h in witness_heights(f)))
    print("witnessed vertices:", " ".join(str(v) for v in witnessed))
    return 0


def _cmd_deg2(args) -> int:
    g = _load_graph(args.graph)
    if args.vertex is not None:
        targets = [args.vertex]
    else:
        targets = [v for v in range(len(g.vertices)) if g.degree(v) == 2]
        if not targets:
            print("no degree-2 vertices")
            return 0
    for v in targets:
        cfg = deg2mod.classify_deg2(g, v)
        predicted = sorted(
            deg2mod.predicted_cardinal_witnesses(cfg),
            key=lambda s: (s.dx, s.dy),
        )
        measured = sorted(
            deg2mod.cardinal_witness_profile(g, v), key=lambda s: (s.dx, s.dy)
        )
        arcs = deg2mod.witness_arcs(g, v)
        print(f"vertex {v}:")
        print(f"  configuration: {cfg.tag.value} quadrants={cfg.quadrants}")
        print("  predicted cardinals:", " ".join(_fmt_dir(s) for s in predicted) or "none")
        print("  measured cardinals: ", " ".join(_fmt_dir(s) for s in measured) or "none")
        print(f"  match: {predicted == measured}".lower())
        print(f"  acute: {deg2mod.is_acute(g, v)}".lower())
        for arc in arcs.arcs:
            print(
                f"  arc sign {arc.sign:+d}: from {_fmt_dir(arc.start)} "
                f"to {_fmt_dir(arc.end)} (counterclockwise)"
            )
        print(f"  arc measure: {deg2mod.arc_measure(arcs):.6f} rad")
    return 0


def _cmd_reconstruct(args) -> int:
    if args.graph is None and not args.ecc:
        raise ParseError("reconstruct needs either -g or --ecc")
    if args.graph is not None:
        g = _load_graph(args.graph)
        bad = [v for v in range(len(g.vertices)) if g.degree(v) == 2]
        if bad:
            raise Degree2PresentError(bad)
        cardinal_pairs = tuple((d, compute_ecc(g, d)) for d in CARDINALS)
        third = select_third_direction(cardinal_witness_lines(cardinal_pairs))
        pairs = cardinal_pairs + (
            (third, compute_ecc(g, third)),
            (-third, compute_ecc(g, -third)),
        )
    else:
        pairs = tuple(parse_ecc(_read(path)) for path in args.ecc)
    inp = ReconstructionInput(pairs)
    points = reconstruct_vertices(inp)
    if args.report:
        lines = cardinal_witness_lines(
            tuple((d, f) for d, f in pairs if d.canonical() in CARDINALS)
        )
        print(f"columns: {len(lines.xs)}")
        print(f"rows: {len(lines.ys)}")
        print(f"third direction: {_fmt_dir(inp.third)}")
        print(f"recovered vertices: {len(points)}")
    _write(args.output, format_graph(PlaneGraph(list(points), [])))
    return 0


def _cmd_plan3n(args) -> int:
    g = _load_graph(args.graph)
    plan = select_3n_directions(g, seed=args.seed, max_tries=args.max_tries)
    _write(args.output, format_plan(plan))
    if args.verify:
        report = verify_plan(g, plan)
        print(f"triple points: {len(report.triple_points)}")
        print(f"spurious: {len(report.spurious)}")
        print(f"missing: {len(report.missing)}")
        if not report.passed:
            for problem in report.problems:
                print(f"  {problem}", file=sys.stderr)
            print("ERROR: plan verification failed", file=sys.stderr)
            return 1
        print("verification: passed")
    return 0


def _cmd_render(args) -> int:
    g = _load_graph(args.graph)
    plan = parse_plan(_read(args.plan)) if args.plan else None
    directions = tuple(_parse_direction(d) for d in args.lines or ())
    spec = RenderSpec(width=args.width, height=args.height)
    _write(args.output, render_svg(g, spec, directions=directions, plan=plan))
    return 0


def _bench_graph(n: int, seed: int) -> PlaneGraph:
    """Isolated vertices on a strictly convex curve: distinct coordinates
    and no collinear triple by construction, so the benchmark times the
    curves and matching alone, without validation."""
    import random

    order = list(range(n))
    random.Random(seed).shuffle(order)
    return PlaneGraph([Point(i, i * i) for i in order], [])


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    print(f"{'n':>8} {'ecc_s':>10} {'match_s':>10} {'ratio':>7}")
    previous = None
    for n in sizes:
        g = _bench_graph(n, args.seed)
        t0 = time.perf_counter()
        cardinal_pairs = tuple((d, compute_ecc(g, d)) for d in CARDINALS)
        third = select_third_direction(cardinal_witness_lines(cardinal_pairs))
        pairs = cardinal_pairs + (
            (third, compute_ecc(g, third)),
            (-third, compute_ecc(g, -third)),
        )
        t1 = time.perf_counter()
        inp = ReconstructionInput(pairs)
        points = reconstruct_vertices(inp)
        t2 = time.perf_counter()
        if len(points) != n:
            print("ERROR: benchmark reconstruction dropped points", file=sys.stderr)
            return 1
        match_time = t2 - t1
        ratio = f"{match_time / previous:7.2f}" if previous else f"{'-':>7}"
        print(f"{n:>8} {t1 - t0:>10.4f} {match_time:>10.4f} {ratio}")
        previous = match_time
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eccplane",
        description="Euler characteristic curves of plane graphs and "
        "vertex-set reconstruction from six of them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded random plane graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--forbid-deg2", action="store_true")
    p.add_argument("--denom", type=int, default=DEFAULT_DENOMINATOR)
    p.add_argument("--max-rejects", type=int, default=1000)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("ecc", help="compute the curve along a direction")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--dir", required=True, help="direction as dx,dy")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_ecc)

    p = sub.add_parser("witness", help="witness heights and witnessed vertices")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--dir", required=True, help="direction as dx,dy")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("deg2", help="degree-2 vertex analysis")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-v", "--vertex", type=int, default=None)
    p.set_defaults(func=_cmd_deg2)

    p = sub.add_parser("reconstruct", help="recover vertices from six curves")
    p.add_argument("-g", "--graph", default=None)
    p.add_argument("--ecc", nargs=6, default=None, metavar="ECC_FILE")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("plan3n", help="choose 3 witnessing directions per vertex")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tries", type=int, default=10_000)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=_cmd_plan3n)

    p = sub.add_parser("render", help="draw the graph and line families as SVG")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--lines", nargs="*", default=None, metavar="DX,DY")
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--height", type=int, default=480)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("bench", help="time the reconstruction phases")
    p.add_argument("--sizes", default="4096,8192,16384,32768")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EccPlaneError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ERROR: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
