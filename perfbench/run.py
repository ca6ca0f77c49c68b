#!/usr/bin/env python3
"""Run one workload of the segreml benchmark and print its metrics.

    python3 perfbench/run.py --workload engine-scale --seed 1 --seconds 30 --trace 0

One caller, one thread, closed loop: each op is a ``segreml`` command line
run in this process through ``segreml.cli.main`` with stdout captured, and
the next op starts when the previous one returns.  Inputs are written as
JSON files before timing starts.  Every answer is checked against a value
known in advance (see workloads.py); a wrong answer, an exception or a
nonzero exit code counts as a failed op and makes the run exit with code 1.

Times are put on one reference machine speed by speed.py; the unscaled
times are reported too.  With ``--trace 0`` the run reports the end-to-end
metrics.  With ``--trace 1`` it alternates untraced and traced passes over
one fixed pass of the workload and reports the per-layer metrics (see
tracing.py).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it holds the details: the environment,
the noise floor, the failure ratio and how the tail percentile is backed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_WARMUP = 2  # the first interpreters also compile the bytecode cache
SETUP_SPAWNS = 15
SETUP_CHILD = (
    "import time, segreml.cli; t = time.clock_gettime(time.CLOCK_MONOTONIC); "
    "from perfbench.speed import speed_now; print(t, speed_now())"
)
NOISE_FLOOR_LOOPS = 40_000
CHILD_HASHSEED = "12345"
CHILD_COUNTS = (
    "import sys; sys.path[:0] = sys.argv[1:3]; from perfbench.run import child_counts; "
    "child_counts(sys.argv[3], int(sys.argv[4]))"
)


def import_program():
    """Import segreml from this checkout's sources, never from anywhere else."""
    package = SRC / "segreml"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"run.py: no segreml sources at {package}; run it from a full checkout")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import segreml.cli

    if Path(segreml.cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: imported segreml from {segreml.cli.__file__}, not from {package}")
    return segreml.cli


def setup_seconds(spawns: int) -> list[tuple[float, float]]:
    """Fresh interpreter to `import segreml.cli` done, once per spawn: (seconds, at reference speed).

    CLOCK_MONOTONIC is one clock for the whole machine, so the child's
    reading after the import minus ours before the spawn is the set-up time.
    The child then reads its speed, which scales that time.
    """
    path = [str(SRC), str(ROOT), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    times = []
    for i in range(SETUP_WARMUP + spawns):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise SystemExit(f"run.py: importing segreml.cli failed: {proc.stderr.strip()}")
        ready, speed = (float(x) for x in proc.stdout.split())
        if i >= SETUP_WARMUP:
            times.append((ready - t0, (ready - t0) * speed))
    return times


def environment() -> dict:
    from segreml.kernels import kernel_name

    try:
        import gmpy2  # noqa: F401  (groebner switches to gmpy2 integers when it imports)

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    rev = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "kernel": kernel_name(),
        "gmpy2": has_gmpy2,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def run_op(cli, op, tracer=None) -> tuple[float, float, str | None]:
    """Run one op; return when it started and ended, and what was wrong with it, if anything."""
    out, err = io.StringIO(), io.StringIO()
    rc, problem = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(list(op.argv))
        except SystemExit as exc:
            problem = f"exited with {exc.code!r}"
        except Exception as exc:  # a crash is a failed op; the run goes on and reports it
            problem = f"raised {exc!r}"
        finally:
            end = time.perf_counter()
    text = out.getvalue()
    if tracer is not None:
        tracer.sums["cli.out_bytes"] += len(text.encode())
    if problem is None:
        problem = op.check(rc, text)
    if problem is not None:
        stderr = err.getvalue().strip()
        problem = f"{' '.join(op.argv)}: {problem}" + (f" [stderr: {stderr[:200]}]" if stderr else "")
    return start, end, problem


def run_pass(cli, ops, tracer=None) -> tuple[list[tuple[float, float]], list[str]]:
    """(start and end of each op, failures) of one pass over `ops`."""
    windows, failures = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        start, end, problem = run_op(cli, op, tracer)
        windows.append((start, end))
        if problem is not None:
            failures.append(problem)
    return windows, failures


def measure(cli, wl, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict, int, list[str]]:
    """The untraced run: passes until `seconds` have gone and at least wl.min_passes are done."""
    from perfbench.speed import SpeedClock
    from perfbench.workloads import make_pass

    setup = setup_seconds(SETUP_SPAWNS)
    pool = [make_pass(wl, seed, p, workdir) for p in range(wl.pool_passes)]
    windows: list[tuple[float, float]] = []
    failures: list[str] = []
    passes = 0
    with SpeedClock() as clock:
        t_start = time.perf_counter()
        while passes < wl.min_passes or time.perf_counter() - t_start < seconds:
            done, failed = run_pass(cli, pool[passes % len(pool)])
            windows += done
            failures += failed
            passes += 1
        wall = time.perf_counter() - t_start
    pct = wl.tail_percentile(len(pool[0]))
    raw = {"setup_s": statistics.median(r for r, _ in setup)}
    metrics = {"setup_s": statistics.median(s for _, s in setup)}
    for values, out in (([e - s for s, e in windows], raw), ([clock.scaled(s, e) for s, e in windows], metrics)):
        ordered = sorted(values)
        idx = max(0, math.ceil(pct * len(ordered) / 100) - 1)
        out.update(
            ops_per_s=len(values) / sum(values), op_p50_ms=statistics.median(values) * 1e3, op_tail_ms=ordered[idx] * 1e3
        )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    detail = {
        "passes": passes,
        "pass_ops": len(pool[0]),
        "distinct_passes": min(passes, len(pool)),
        "wall_s": wall,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": len(windows) - idx - 1,
        "op_tail_samples": len(windows),
        "setup_spawns": len(setup),
        "unscaled": raw,
        "speed_clock": clock.summary(),
    }
    return metrics, detail, len(windows), failures


def traced_pass(cli, ops):
    from perfbench.tracing import Tracer, patched

    tracer = Tracer()
    with patched(tracer):
        windows, failures = run_pass(cli, ops, tracer)
    return tracer, windows, failures


def measure_layers(cli, wl, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict, int, list[str]]:
    """The traced run: untraced and traced passes over pass 0, alternating which goes first."""
    from perfbench.speed import SpeedClock
    from perfbench.tracing import OVERHEAD_METRIC, exact_metric_names, write_spans
    from perfbench.workloads import make_pass

    ops = make_pass(wl, seed, 0, workdir)
    tracers, passes = [], []
    attempted, failures = 0, []
    with SpeedClock() as clock:
        t_start = time.perf_counter()
        # Start another pair only if it should end within `seconds`.
        while not passes or (time.perf_counter() - t_start) * (len(passes) + 2) / len(passes) <= seconds:
            for traced in (False, True) if len(passes) % 4 == 0 else (True, False):
                if traced:
                    tracer, windows, failed = traced_pass(cli, ops)
                    tracers.append(tracer)
                else:
                    windows, failed = run_pass(cli, ops)
                passes.append((traced, windows))
                attempted += len(windows)
                failures += failed
    busy = {False: 0.0, True: 0.0}
    for traced, windows in passes:
        busy[traced] += sum(clock.scaled(s, e) for s, e in windows)
    scales = [[clock.scaled(s, e) / (e - s) for s, e in windows] for traced, windows in passes if traced]
    summaries = [tracer.summary(scale) for tracer, scale in zip(tracers, scales)]

    child = child_run(wl.name, seed)
    attempted += child["attempted"]
    failures += child["failures"]
    counts = summaries[0][0]
    others = [c for c, _ in summaries[1:]] + [child["counts"]]
    inexact = sorted(name for name in exact_metric_names() if any(other[name] != counts[name] for other in others))

    metrics = dict(counts)
    for name in summaries[0][1]:
        metrics[name] = statistics.fmean(s[name] for _, s in summaries)
    metrics[OVERHEAD_METRIC[0]] = busy[True] / busy[False] - 1
    spans_path = SCRATCH / f"spans-{wl.name}-seed{seed}.tsv.gz"
    write_spans(spans_path, tracers)
    detail = {
        "pass_ops": len(ops),
        "traced_passes": len(tracers),
        "untraced_busy_s": busy[False],
        "traced_busy_s": busy[True],
        "spans": sum(len(t.start) for t in tracers),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counts_per": "one pass over pass 0; self_s is the mean over the traced passes, at reference speed",
        "counts_compared": f"{len(tracers)} traced passes here and one under PYTHONHASHSEED={child['hashseed']}",
        "inexact": inexact,
        "speed_clock": clock.summary(),
    }
    return metrics, detail, attempted, failures


def child_run(workload: str, seed: int) -> dict:
    """One traced pass over pass 0 in a fresh interpreter with another hash seed."""
    hashseed = CHILD_HASHSEED if os.environ.get("PYTHONHASHSEED") != CHILD_HASHSEED else "54321"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_COUNTS, str(ROOT), str(SRC), workload, str(seed)],
        env=dict(os.environ, PYTHONHASHSEED=hashseed),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run.py: the count check child failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["hashseed"] = hashseed
    return result


def child_counts(workload: str, seed: int) -> None:
    """Entry of child_run: print the exact counts of one traced pass as JSON."""
    from perfbench.workloads import WORKLOADS, make_pass

    cli = import_program()
    with workspace() as workdir:
        tracer, windows, failures = traced_pass(cli, make_pass(WORKLOADS[workload], seed, 0, workdir))
    counts, _ = tracer.summary([1.0] * len(windows))
    print(json.dumps({"counts": counts, "attempted": len(windows), "failures": failures}))


@contextlib.contextmanager
def workspace():
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    from perfbench.speed import fraction_loop
    from perfbench.tracing import metric_specs
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    noise_start = fraction_loop(NOISE_FLOOR_LOOPS)
    with workspace() as workdir:
        if args.trace:
            values, detail, attempted, failures = measure_layers(cli, wl, args.seed, args.seconds, workdir)
            specs = metric_specs()
        else:
            values, detail, attempted, failures = measure(cli, wl, args.seed, args.seconds, workdir)
            specs = END_TO_END
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fail_ratio": len(failures) / attempted,
        "noise_floor_s": {"start": noise_start, "end": fraction_loop(NOISE_FLOOR_LOOPS)},
        "env": environment(),
        **detail,
        "failures": failures[:20],
    }
    for problem in failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
