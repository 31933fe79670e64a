#!/usr/bin/env python3
"""strainlim benchmark: the CLI as users run it, one operation at a time.

    python3 bench/run.py --workload wave1d-mid --seed 0 --seconds 36 --trace 0
    python3 bench/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form measures one workload in this process; the second runs
every workload, each in a fresh interpreter, and prints a table.

An operation is one in-process call ``strainlim.driver.main([command,
config])`` on a config generated from the workload and seed (see
workloads.py), from the config path to the last CSV written.  Its
outputs are checked by reading those CSVs, and must be byte-identical
to the first operation's; an operation that raises, exits non-zero or
fails a check counts as failed and the run goes on.  Operations run
back to back (closed loop, one client) until ``--seconds`` would be
exceeded.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median
operation time), ``setup_s`` (median time of the work ``strainlim run``
does before its first step) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics of tracing.py, with ``trace.overhead_frac`` (the median over
traced operations of their time over that of their untraced neighbours,
minus 1).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment
and every operation's record go to ``bench/out/<workload>/``.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads: the load model is a
# single-threaded process, and a fixed reduction order keeps counts exact
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import glob
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import workloads
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

DEFAULT_SECONDS = 36       # run_seconds in BENCHMARK.json
MIN_OPS = 2                # the byte-identity check needs a second operation
MIN_TRACED_OPS = 3         # untraced, traced, untraced
SETUP_MIN_REPS = 5
SETUP_BUDGET_S = 1.5
SETUP_MAX_REPS = 200


def import_program():
    """Import strainlim from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import strainlim
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import strainlim from {src}: {exc}")
    where = os.path.abspath(strainlim.__file__)
    if not where.startswith(os.path.join(src, "")):
        raise SystemExit(f"bench: strainlim imported from {where}, not from {src}")
    return strainlim


# ---------------------------------------------------------------------------
# environment


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(ROOT, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(seed):
    import numpy
    import scipy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(idx, f)) for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# operations


@dataclass
class Operation:
    wall_s: float
    traced: bool
    error: str = None
    checks: list = field(default_factory=list)
    digests: dict = None

    def record(self):
        return {
            "wall_s": self.wall_s, "traced": self.traced, "error": self.error,
            "checks": [c.__dict__ for c in self.checks],
        }


def run_operation(prog, wl, cfg_path, out_dir, reference, traced=False):
    """One CLI call on a clean output directory, then its output checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    log = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log):
            code = prog.driver.main([wl.command, cfg_path])
        wall = time.perf_counter() - t0
    except (Exception, SystemExit) as exc:
        wall = time.perf_counter() - t0
        code = None
        error = f"raised {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    op = Operation(wall, traced, error)
    if error is None and code != 0:
        op.error = f"exit code {code}: {log.getvalue().strip()}"
    if op.error is None:
        try:
            op.checks = wl.check(out_dir)
            op.digests = workloads.digests(out_dir)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            op.error = f"outputs unreadable: {type(exc).__name__}: {exc}"
    if op.error is None:
        bad = [c.name for c in op.checks if not c.ok]
        if bad:
            op.error = "check failed: " + ", ".join(bad)
        elif reference is not None and op.digests != reference:
            differ = sorted(k for k in set(op.digests) | set(reference)
                            if op.digests.get(k) != reference.get(k))
            op.error = "outputs differ from the first operation: " + ", ".join(differ)
    return op


def time_setup(prog, text):
    """Median time of the work `strainlim run` does before its first step."""
    times = []
    t_begin = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
            time.perf_counter() - t_begin < SETUP_BUDGET_S and len(times) < SETUP_MAX_REPS):
        gc.collect()
        t0 = time.perf_counter()
        cfg = prog.driver.parse_config(text)
        space = cfg.build_space()
        scenario = cfg.build_scenario()
        prog.scenarios.safety_margin(scenario, space)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


class Run:
    """One workload, one seed: config on disk, operations, reference outputs."""

    def __init__(self, prog, wl, seed, seconds):
        self.prog, self.wl, self.seed = prog, wl, seed
        self.t_begin = time.perf_counter()
        self.deadline = self.t_begin + seconds
        self.dir = os.path.join(OUT_DIR, wl.name)
        self.work = os.path.join(self.dir, f"work-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.out_dir = os.path.join(self.work, "out")
        self.cfg_path = os.path.join(self.work, "config.txt")
        self.text = wl.config_text(seed, self.out_dir)
        with open(self.cfg_path, "w") as fh:
            fh.write(self.text)
        self.ops = []
        self.reference = None

    def more(self, minimum):
        """Whether to start another operation: at least minimum, then as
        long as the slowest one so far still fits before the deadline."""
        if len(self.ops) < minimum:
            return True
        slowest = max(op.wall_s for op in self.ops)
        return time.perf_counter() + slowest <= self.deadline

    def operation(self, traced=False):
        op = run_operation(self.prog, self.wl, self.cfg_path, self.out_dir,
                           self.reference, traced)
        if self.reference is None and op.error is None:
            self.reference = op.digests
        self.ops.append(op)
        return op

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    @property
    def failed(self):
        return sum(op.error is not None for op in self.ops)


def measure_end_to_end(run):
    setup_s, setup_reps = time_setup(run.prog, run.text)
    while run.more(MIN_OPS):
        run.operation()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(op.wall_s for op in run.ops), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, {"setup_reps": setup_reps}


def measure_layers(run):
    """Untraced and traced operations alternate, starting untraced."""
    tracers = []
    summaries = []
    while run.more(MIN_TRACED_OPS):
        if len(run.ops) % 2 == 0:
            run.operation()
            continue
        tracer = tracing.Tracer()
        tracer.install(run.prog)
        try:
            run.operation(traced=True)
        finally:
            tracer.restore()
        tracers.append(tracer)
        summaries.append(tracer.summary())
    per_op = [tracing.layer_metrics(s) for s in summaries]
    # counts repeat exactly; median_low keeps them whole numbers
    metrics = {name: ((statistics.median_low if unit == "count" else statistics.median)(
                   m[name][0] for m in per_op), unit)
               for name, (_, unit) in per_op[0].items()}
    metrics["trace.wall_s"] = (statistics.median(op.wall_s for op in run.ops if op.traced), "s")
    metrics["trace.overhead_frac"] = (statistics.median(_paired_ratios(run.ops)) - 1.0, "ratio")
    covered = statistics.median(
        sum(m[f"{layer}.self_s"][0] for layer in tracing.ENTRY_POINTS) / op.wall_s
        for m, op in zip(per_op, (op for op in run.ops if op.traced)))
    metrics["trace.unaccounted_frac"] = (1.0 - covered, "ratio")

    # one spans file per workload, the latest traced run's, to bound disk use
    spans_path = os.path.join(run.dir, "spans.csv")
    tracing.write_spans(spans_path, tracers)
    return metrics, {"spans": os.path.relpath(spans_path, ROOT)}


def _paired_ratios(ops):
    """Each traced operation's time over the mean of its untraced
    neighbours, so a slow spell of the machine affects both sides."""
    ratios = []
    for i, op in enumerate(ops):
        if op.traced:
            base = [ops[j].wall_s for j in (i - 1, i + 1) if j < len(ops)]
            ratios.append(op.wall_s / statistics.mean(base))
    return ratios


def measure(prog, wl, seed, seconds, trace):
    run = Run(prog, wl, seed, seconds)
    try:
        if trace:
            metrics, extra = measure_layers(run)
        else:
            metrics, extra = measure_end_to_end(run)
    finally:
        run.close()
    return run, metrics, extra


# ---------------------------------------------------------------------------
# reporting


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(wl, seed, trace, run, metrics, extra, env):
    attempted, failed = len(run.ops), run.failed
    print(f"workload {wl.name}  seed {seed}  trace {trace}: "
          f"{attempted} operations, {failed} failed (fail_rate {failed / attempted:.3g})")
    for k, op in enumerate(run.ops, start=1):
        checks = "  ".join(f"{c.name}={c.value:.4g}{'' if c.ok else ' FAIL'} (limit {c.limit:g})"
                           for c in op.checks)
        status = "ok" if op.error is None else f"FAILED {op.error}"
        print(f"  op {k}{' traced' if op.traced else ''}: {op.wall_s:.4f} s  {status}  {checks}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=wl.name, seed=seed, trace=trace, env=env,
                  config=run.text, operations=[op.record() for op in run.ops], **extra)
    path = os.path.join(OUT_DIR, wl.name, f"result-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return result


def run_all(args):
    """Every workload in its own interpreter, then one table."""
    rows = []
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + 600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            rows.append((name, "-", "run failed", f"exit code {proc.returncode}"))
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        checks = (f"{result['attempted']} ops, {result['failed']} failed, "
                  f"correct={result['correct']}")
        for metric, m in result["metrics"].items():
            rows.append((name, metric, f"{_fmt(m['value'])} {m['unit']}", checks))
    print()
    width = max(len(r[1]) for r in rows)
    for name, metric, value, checks in rows:
        print(f"{name:12s} {metric:{width}s} {value:>18s}   {checks}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="measure one workload in this process (default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload is None:
        return run_all(args)

    prog = import_program()
    wl = workloads.WORKLOADS[args.workload]
    env = environment(args.seed)
    run, metrics, extra = measure(prog, wl, args.seed, args.seconds, args.trace)
    report(wl, args.seed, args.trace, run, metrics, extra, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
