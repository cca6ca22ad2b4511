"""qcharm benchmark: certified-report latency and throughput.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The load is one closed-loop client in one process:
the next operation starts when the previous one returns, until ``--seconds``
have passed.  The median is the reported latency, so the first operation's
one-time costs carry no weight and no warm-up operation is spent.

``--trace 0`` reports the end-to-end metrics (set-up time, report latency,
report throughput, accuracy against exact references, peak memory).
``--trace 1`` wraps the program's layers in spans and reports per-layer
metrics instead.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; attempted and failed count output checks, not
operations, and a check that fails in the way of one of the program's known
defects is reported apart, not in failed (see ``workloads``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 10


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _import_program():
    """Put the checkout's src/ first on the path and import qcharm from it."""
    if not (SRC / "qcharm" / "cli.py").is_file():
        raise ImportError(f"no qcharm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcharm

    if Path(qcharm.__file__).resolve().parent != (SRC / "qcharm").resolve():
        raise ImportError(f"qcharm imported from {qcharm.__file__}, not from {SRC}")
    return qcharm


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import qcharm.cli, as every CLI
    invocation does before any work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import qcharm.cli"], cwd=ROOT, env=env, capture_output=True, timeout=120
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh import of qcharm.cli failed: {proc.stderr.decode(errors='replace')[-400:]}")
    return times


def _openblas():
    """Version and thread count of each OpenBLAS loaded in this process."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if conf is not None and threads is not None:
                    conf.restype = ctypes.c_char_p
                    conf.argtypes = []
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    info = {"config": conf().decode(), "threads": threads()}
                    break
            if info:
                break
        found[Path(path).name] = info or {"config": "unknown", "threads": None}
    return found


def environment(qcharm) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "QCH_THREADS": os.environ.get("QCH_THREADS"),
        "worker_count": qcharm.scenarios.worker_count(),
        "machine": platform.machine(),
    }


def _percentile_line(values: list[float]) -> str:
    """Median, and the highest of p75/p90/p99 with >= 10 samples beyond it."""
    n = len(values)
    parts = [f"p50 {statistics.median(values):.4f} s (n={n})"]
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            parts.append(f"p{p} {cut:.4f} s")
            break
    else:
        parts.append("no percentile above p50 has 10 samples beyond it")
    return ", ".join(parts)


def run(args) -> int:
    try:
        qcharm = _import_program()
    except ImportError as exc:
        return _fail(f"cannot load the program: {exc}")

    workload = workloads.WORKLOADS[args.workload]
    program = workloads.Program()
    env = environment(qcharm)
    print(f"qcharm benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))

    setup = None if args.trace else measure_setup()
    tracer = tracing.Tracer() if args.trace else None
    stats = tracing.LayerStats() if args.trace else None
    durations, outcomes, labels = [], [], []
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            index = 0
            while time.perf_counter() - t0 < args.seconds:
                inp = workload.make_input(args.seed, index, workdir)
                start = time.perf_counter()
                if tracer is not None:
                    with tracer.operation(index):
                        raw = workload.execute(program, inp)
                else:
                    raw = workload.execute(program, inp)
                durations.append(time.perf_counter() - start)
                if tracer is not None:
                    stats.add(tracer.take())
                outcomes.append(workload.check(program, inp, raw))
                labels.append(inp.label)
                index += 1
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()

    operations = len(outcomes)
    attempted = sum(o.checks for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    wrong = [w for o in outcomes for w in o.wrong]
    classes = Counter(f for o in outcomes for f in o.failures)
    known = Counter(f for o in outcomes for f in o.known)
    rate = 60.0 * operations / sum(durations)
    print(f"operations: {operations} in {elapsed:.1f} s, closed loop, one client, one process")
    print("report_s: " + _percentile_line(durations))
    print(f"reports_per_min: {rate:.4f} (= 60 * {operations} / {sum(durations):.2f} s busy)")
    print(
        f"failed_frac: {failed}/{attempted} checks = {failed / attempted:.4f}"
        f" ({sum(1 for o in outcomes if o.failures)}/{operations} operations with a failed check)"
    )
    print(f"failed checks by class: {json.dumps(dict(sorted(classes.items())))}")
    print(
        f"known defects: {sum(known.values())}/{attempted} checks failed as known,"
        f" by class: {json.dumps(dict(sorted(known.items())))}"
    )
    for label, d, o in zip(labels, durations, outcomes):
        summary = " ".join(f"{k}x{n}" for k, n in sorted(Counter(o.failures).items()))
        print(f"  op {d:8.3f} s  {len(o.failures):4d} failed {len(o.known):4d} known /{o.checks:<5d} {label}  {summary}")
    for w in wrong:
        print(f"WRONG: {w}")

    if args.trace:
        layer = stats.metrics()
        layer["trace.reports_per_min"] = (rate, "1/min")
        layer["checks.known_failures"] = (sum(known.values()) / operations, "count/op")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        for k, (v, u) in sorted(layer.items()):
            print(f"  {k:52s} {v:14.6g} {u}")
    else:
        digits = [d for o in outcomes for d in o.digits]
        if not digits:
            print("error: no operation produced a value with an exact reference", file=sys.stderr)
            return 1
        worst = min(digits)
        print(f"exact_digits: {worst[0]:.4f} (worst: {worst[1]}; {len(digits)} references)")
        print(f"setup_s: median of {len(setup)} fresh imports: {', '.join(f'{s:.4f}' for s in setup)}")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "report_s_p50": {"value": statistics.median(durations), "unit": "s"},
            "reports_per_min": {"value": rate, "unit": "1/min"},
            "exact_digits": {"value": worst[0], "unit": "digits"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    result = {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
