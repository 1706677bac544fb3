"""One run of one workload, in the process that ``run.py`` starts for it.

    python3 bench/harness.py --workload exact-tree --seed 1 --seconds 30 \
        --mode timed --out .bench_out

Modes: ``timed`` measures the end-to-end metrics with tracing off;
``traced`` does one round with the tracer installed and reports the
per-layer metrics; ``reference`` does the same round untraced, so that the
two give the tracing overhead.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed``, ``capped``, ``metrics``
and ``info``.

Operations run closed-loop, one after another in this one thread: the next
starts when the previous has finished and its output has been checked.  Only
the operation itself is timed; checks run outside its span.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3  # setup_s reports the median of this many set-ups


class OpCapped(Exception):
    """Raised inside an operation that reached its time cap."""


def _on_alarm(signum, frame):
    raise OpCapped()


def run_capped(call, cap_s: float):
    """``call()``, interrupted with OpCapped after ``cap_s`` seconds.

    The interrupt lands between Python bytecodes, which is where the capped
    exact kernels spend their time.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(workload, op, tracer=None, op_id=0):
    """Run one operation and check it; returns ``(status, seconds, message)``.

    Status is ``ok``, ``timeout`` (stopped at its cap; counted, not dropped),
    ``error`` (raised) or ``check`` (wrong output).
    """
    def call():
        if tracer is None:
            return workload.run(op)
        return tracer.run_op(op_id, lambda: workload.run(op))

    out = None
    message = None
    start = time.perf_counter()
    try:
        out = run_capped(call, op.cap_s) if op.cap_s else call()
        status = "ok"
    except OpCapped:
        status = "timeout"
    except Exception:  # a failed operation is counted and the run goes on
        status = "error"
        message = traceback.format_exc()
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(op_id, completed=status != "timeout")
    if status == "ok":
        try:
            message = workload.check(op, out)
        except Exception:
            message = traceback.format_exc()
        if message is not None:
            status = "check"
    return status, seconds, message


def percentile(samples, q: int) -> float:
    """The q-th percentile, interpolated between samples (never beyond them)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def environment_info() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "reference", "traced"), required=True)
    ap.add_argument("--out", required=True, help="directory for run outputs")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy  # noqa: F401  (the benchmark's own dependency; not part of import time)

    start = time.perf_counter()
    import tnrank
    import tnrank.cli  # noqa: F401
    import tnrank.verify  # noqa: F401  (builds the claim registry)

    import_s = time.perf_counter() - start
    src = os.path.join(ROOT, "src", "tnrank")
    if os.path.dirname(os.path.abspath(tnrank.__file__)) != src:
        raise SystemExit(f"imported tnrank from {tnrank.__file__}, not from {src}")

    from tracing import Tracer, layer_metrics, write_spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.out, traced=args.mode != "timed")

    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.setup()
        setup_runs.append(time.perf_counter() - t0)

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    samples, statuses, problems = [], [], {}
    for i, op in enumerate(ops):
        status, seconds, message = run_op(workload, op, tracer, i)
        samples.append(seconds)
        statuses.append(status)
        if status != "ok":
            problems[f"{i}:{op.kind}"] = status
            if message:
                print(f"operation {i} ({op.kind}) {status}:\n{message}", file=sys.stderr)
    if tracer is not None:
        tracer.uninstall()
    ops_path = os.path.join(args.out, f"ops-{args.workload}-seed{args.seed}-{args.mode}.tsv")
    with open(ops_path, "w") as fh:
        fh.write("index\tround\tkind\tstatus\tseconds\n")
        for i, (op, status, seconds) in enumerate(zip(ops, statuses, samples)):
            fh.write(f"{i}\t{op.round}\t{op.kind}\t{status}\t{seconds:.6f}\n")

    failed = sum(1 for s in statuses if s in ("error", "check"))
    capped = statuses.count("timeout")
    completed_share = workload.completed_share(statuses)
    p50, p90 = percentile(samples, 50), percentile(samples, 90)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "op_samples": len(samples),
        "samples_beyond_p90": sum(1 for s in samples if s > p90),
        "capped": capped,
        "fail_share": 1.0 - completed_share,
        "not_ok": problems,
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        **environment_info(),
        **workload.info(),
    }
    correct = failed == 0
    if tracer is None:
        metrics = {
            "setup_s": import_s + statistics.median(setup_runs),
            "wall_s": sum(samples),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "completed_share": completed_share,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = layer_metrics(tracer)
        self_sum = metrics.pop("trace.self_sum_s")
        # Self times partition the traced wall time: every instant of an
        # operation belongs to exactly one innermost span.
        gap = abs(self_sum - metrics["trace.wall_s"])
        info["self_time_gap_s"] = gap
        if gap > 1e-6 * max(1.0, metrics["trace.wall_s"]):
            print(f"self times sum to {self_sum}, traced wall is {metrics['trace.wall_s']}", file=sys.stderr)
            correct = False
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        write_spans(tracer.spans, spans_path)
        info["spans_file"] = os.path.relpath(spans_path, ROOT)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(samples),
                "failed": failed,
                "capped": capped,
                "metrics": metrics,
                "info": info,
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
