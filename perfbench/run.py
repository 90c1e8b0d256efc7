"""eccplane benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload cli-graphs --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Ops run in-process: CLI commands through
``eccplane.cli.main(argv)`` with stdout and stderr captured, the library
pipeline through ``eccplane.reconstruct_from_graph``.  Writing input
files, collecting garbage and checking outputs happen between ops,
outside the timed window.  The last stdout line is the result as JSON;
details go to ``.perfbench_out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from math import ceil
from pathlib import Path
from time import monotonic, perf_counter

import checks
from checks import Result
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every run ends well inside three minutes, however slow the program is.
HARD_STOP_S = 150.0
SETUP_REPEATS = 5

COMMAND_MEDIANS = {
    "gen": "gen_p50_ms", "ecc": "ecc_p50_ms", "witness": "witness_p50_ms",
    "deg2": "deg2_p50_ms", "reconstruct": "reconstruct_p50_ms", "render": "render_p50_ms",
    "plan3n": "plan3n_verify_p50_ms", "recover": "recover_p50_ms", "refuse": "refuse_p50_ms",
}


def _median_import_s() -> tuple[float, list[float]]:
    """Median time to import eccplane in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import eccplane; print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True,
            text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples), samples


def _run_op(ep, op, workdir: Path, tracer, op_id: int):
    """Write the op's files, run it, and return (seconds, Result)."""
    workdir.mkdir(exist_ok=True)
    for name, text in op.files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    thunk = op.prepare(ep) if op.prepare else None
    argv = [a.replace("@/", f"{workdir}/") for a in op.argv] if op.argv else None
    out, err = io.StringIO(), io.StringIO()
    rc, value, exc = 0, None, None
    gc.collect()
    if tracer is not None:
        tracer.op, tracer.active = op_id, True
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if thunk is not None:
                value = thunk()
            else:
                rc = ep.cli.main(argv)
    except SystemExit as stop:
        rc = stop.code if isinstance(stop.code, int) else 2
    except Exception:
        exc = traceback.format_exc(limit=-3)
    t1 = perf_counter()
    if tracer is not None:
        tracer.active = False
    files = {}
    for name in op.collect:
        path = workdir / name
        if path.exists():
            files[name] = path.read_text(encoding="utf-8")
    return t1 - t0, Result(rc, out.getvalue(), err.getvalue(), value, exc, files)


class Pass:
    """One pass of ops through the closed loop, with what it measured."""

    def __init__(self, keep_ops: bool = False):
        self.keep_ops = keep_ops  # kept only for a traced replay; memory otherwise
        self.cycles = []  # the ops run, cycle by cycle
        self.records = []  # per op: kind, n, seconds, failure reason, info

    @property
    def busy_s(self) -> float:
        return sum(r["s"] for r in self.records)

    def run(self, ep, cycles, work: Path, seconds, min_ops, stop_at, tracer=None):
        """Run whole cycles until ``seconds`` of op time and ``min_ops``
        ops are done (or, with ``seconds`` None, until the cycles end)."""
        for k, cycle in enumerate(cycles):
            dirs = {}
            ran = []
            if self.keep_ops:
                self.cycles.append(ran)
            for op in cycle:
                if monotonic() > stop_at:
                    return
                key = op.group or f"op{len(self.records)}"
                if key not in dirs:
                    dirs[key] = Path(tempfile.mkdtemp(dir=work, prefix=f"c{k}-"))
                s, result = _run_op(ep, op, dirs[key], tracer, len(self.records))
                reason, extra = checks.verdict(op.check, result)
                ran.append(op)
                self.records.append({"kind": op.kind, "n": op.n, "s": s, "fail": reason,
                                     "info": {**op.info, **extra}})
            for d in dirs.values():
                shutil.rmtree(d, ignore_errors=True)
            if seconds is not None and self.busy_s >= seconds and len(self.records) >= min_ops:
                return


def _cycles(workload, first):
    yield first
    k = 1
    while True:
        yield workload.cycle(k)
        k += 1


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _git_rev() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _machine() -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "eccplane").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": _git_rev(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def _inputs(records) -> dict:
    """Input descriptors summed per op kind."""
    out: dict = {}
    for r in records:
        d = out.setdefault(r["kind"], {"ops": 0})
        d["ops"] += 1
        for key, value in r["info"].items():
            if isinstance(value, int):
                d[key] = d.get(key, 0) + value
            else:
                d.setdefault(key, {})
                d[key][value] = d[key].get(value, 0) + 1
    return out


def _summary(p: Pass, tail_pct: int) -> dict:
    ms = [r["s"] * 1000 for r in p.records]
    by_kind: dict = {}
    for r in p.records:
        by_kind.setdefault(r["kind"], []).append(r["s"] * 1000)
    failures = [
        {"op": i, "kind": r["kind"], "reason": r["fail"]}
        for i, r in enumerate(p.records) if r["fail"]
    ]
    return {
        "ops": len(ms),
        "wall_s": p.busy_s,
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": _percentile(ms, tail_pct),
        "tail_percentile": tail_pct,
        "ops_beyond_tail": sum(1 for v in ms if v > _percentile(ms, tail_pct)),
        "command_p50_ms": {COMMAND_MEDIANS[k]: statistics.median(v) for k, v in by_kind.items()},
        "fail_ratio": len(failures) / len(ms),
        "failures": failures,
        "op_ms": [[r["kind"], round(r["s"] * 1000, 3)] for r in p.records],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()

    if not (SRC / "eccplane" / "__init__.py").is_file():
        print(f"no eccplane sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eccplane as ep
    import eccplane.cli  # noqa: F401  (ops call ep.cli.main)

    if not Path(ep.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"eccplane imported from {ep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, ep)
    tail_pct = workload.tail_pct
    min_ops = ceil(10 / (1 - tail_pct / 100))
    broken = checks.self_test()

    import_s, import_samples = _median_import_s()
    build_samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        first = workload.cycle(0)
        build_samples.append(perf_counter() - t0)
    setup_s = import_s + statistics.median(build_samples)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=out_dir, prefix="work-"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        main_pass = Pass(keep_ops=bool(args.trace))
        stop = started + (HARD_STOP_S * 0.4 if args.trace else HARD_STOP_S)
        main_pass.run(ep, _cycles(workload, first), work, args.seconds, min_ops, stop)
        passes = [main_pass]
        if args.trace:
            tracer = Tracer()
            tracer.install(ep)
            traced = Pass()
            try:
                traced.run(ep, main_pass.cycles, work, None, 0, started + HARD_STOP_S, tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = _summary(main_pass, tail_pct)
    attempted = sum(len(p.records) for p in passes)
    failed = sum(1 for p in passes for r in p.records if r["fail"])
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": _machine(),
        "setup": {"setup_s": setup_s, "import_s": import_samples, "build_s": build_samples},
        "checker_self_test": broken or "passed",
        "inputs": _inputs(main_pass.records), **summary,
    }
    if args.trace:
        layers, absent = layer_metrics(tracer)
        n = len(traced.records)
        overhead = traced.busy_s - sum(r["s"] for r in main_pass.records[:n])
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics = layers
        spans_path = out_dir / f"{stem}-spans.jsonl"
        with spans_path.open("w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        detail.update({
            "traced_ops": n, "traced_wall_s": traced.busy_s, "absent_metrics": absent,
            "spans_file": spans_path.name, "spans_dropped": tracer.dropped,
            "traced_failures": [r["fail"] for r in traced.records if r["fail"]],
        })
    else:
        busy = main_pass.busy_s
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": len(main_pass.records) / busy, "unit": "ops/s"},
            "vertices_per_s": {"value": sum(r["n"] for r in main_pass.records) / busy,
                               "unit": "vertices/s"},
            "op_p50_ms": {"value": summary["op_p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": summary["op_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    detail["metrics"] = metrics
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))

    print(f"{args.workload} seed {args.seed}: {summary['ops']} ops, wall_s {summary['wall_s']:.3f} s "
          f"of op time, setup_s {setup_s:.3f} s, p{tail_pct} over {summary['ops']} ops "
          f"({summary['ops_beyond_tail']} beyond)")
    for name, value in sorted(summary["command_p50_ms"].items()):
        print(f"  {name} {value:.2f} ms")
    print(f"  fail_ratio {summary['fail_ratio']:.4f} 1 ({failed}/{attempted} ops failed)")
    for f in summary["failures"][:20]:
        print(f"  failed op {f['op']} ({f['kind']}): {f['reason']}")
    if broken:
        print(f"  checker self-test failed: {broken}")
    if args.trace:
        print(f"  traced {n} ops: overhead {overhead:.3f} s; absent metrics: {absent or 'none'}")
    print(json.dumps({
        "correct": failed == 0 and not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
