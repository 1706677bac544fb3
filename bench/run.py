"""tnrank benchmark entry point.

    python3 bench/run.py --workload exact-tree --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run starts the workload in a fresh Python process with
``TNRANK_THREADS`` unset, BLAS and OpenMP pinned to one thread and hashing
fixed.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it runs one round untraced and the same round traced, each in
its own process, and prints the per-layer metrics with the tracing overhead.

Standard output ends with an info line (versions, BLAS, CPUs, seed, commit,
sample counts) and then the result line
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Both are also written to ``.bench_out/``.  The exit code is nonzero, and no
result line is printed, when a run cannot be completed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")
DEADLINE_S = 175.0  # every process this run starts ends within this time
WORKLOADS = ("verify-suite", "exact-tree", "float-network")
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
UNSET_ENV = ("TNRANK_THREADS", "PYTHONPATH")

from tracing import LAYER_METRICS  # noqa: E402  (bench/ is the script's directory)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "completed_share": "ratio",
    "peak_rss_mb": "MB",
}


class RunFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    return env


def run_child(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--out", OUT,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()), text=True,
        )
    except subprocess.TimeoutExpired as exc:  # the child has been killed
        raise RunFailed(f"{mode} run did not finish within {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"{mode} run exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "tnrank")):
        print(f"error: no tnrank sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            reference = run_child(args, "reference", deadline)
            traced = run_child(args, "traced", deadline)
            values = dict(traced["metrics"])
            values["trace.overhead_ratio"] = values["trace.wall_s"] / reference["metrics"]["wall_s"]
            units = dict(LAYER_METRICS)
            result, info = traced, traced["info"]
            info["reference_wall_s"] = reference["metrics"]["wall_s"]
            correct = traced["correct"] and reference["correct"]
        else:
            result = run_child(args, "timed", deadline)
            values, units, info = result["metrics"], END_TO_END_UNITS, result["info"]
            correct = result["correct"]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info.update(
        git_commit=git_commit(),
        env_pinned=PINNED_ENV,
        env_unset=list(UNSET_ENV),
        seconds=args.seconds,
        trace=args.trace,
    )
    final = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"info": info, "result": final}, fh, indent=1, sort_keys=True)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
