"""Benchmark entry point for dcfmn: one workload per child process, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it builds nothing and imports the
library from the checkout's ``src``. NAME is one of the workloads in
``workload.py`` or ``all``. With ``--trace 0`` it prints the end-to-end
metrics (op_s, setup_s, peak_rss_mb); with ``--trace 1`` the per-layer ones
from a traced run. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the same numbers by name and unit, the environment and the output check.

BENCHMARK.json lists train-x2-tiny and sr-fused-720p. sr-raw-720p runs the
same way but is left out of it: three workloads do not fit enough 720p frames
into the time the benchmark's runs may take together (see README.md).

Each workload's set-up runs SETUP_REPEATS times, each in a fresh process, and
set-up time is their median. The timed process never overlaps another: the
float64 reference that checks its outputs runs after it, in its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("train-x2-tiny", "sr-raw-720p", "sr-fused-720p")
SETUP_REPEATS = 3
WORKLOAD_BUDGET_S = 175.0


class BenchError(RuntimeError):
    pass


def source_key() -> str:
    """Hash of the library and benchmark sources; keys every cached result."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "dcfmn"), HERE):
        for name in sorted(os.listdir(top)):
            if name.endswith(".py"):
                digest.update(name.encode())
                with open(os.path.join(top, name), "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit():
    """HEAD of the checkout when it is its own git work tree, else None."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def child_env():
    """One BLAS thread: a 720p frame runs as fast on one as on two (most of it
    is not BLAS), and a second spinning thread only exposes the timing to
    whatever else the host runs on the other core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def child(role, args, workload, key, deadline):
    """Run workload.py in one role and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), role,
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--key", key, "--t0", repr(time.monotonic())]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {role} step")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {role} step timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload}: {role} step exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload, key, commit):
    """Returns (correct, attempted, failed, metrics) for one workload."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = []
    if not args.trace:
        setups = [child("setup", args, workload, key, deadline)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
    run = child("run", args, workload, key, deadline)
    check = child("check", args, workload, key, deadline)
    env = dict(run["env"], git_commit=commit, source_key=key, seed=args.seed,
               workload=workload, trace=args.trace)
    errors = list(run["errors"])
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        errors.append(f"BLAS runs {env['blas_threads']} threads on {env['nproc']} cpus")
    failed = sorted(set(run["failed"]) | set(check["failed"]))
    attempted = run["attempted"]

    if args.trace:
        if "per_layer" not in run:
            raise BenchError(f"{workload}: traced run recorded nothing")
        metrics = run["per_layer"]
    else:
        if not run["op_s"]:
            raise BenchError(f"{workload}: no operation was timed")
        metrics = {
            "op_s": {"value": statistics.median(run["op_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [run["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }

    print(f"== {workload} seed {args.seed} {'traced' if args.trace else 'untraced'}")
    print("env " + json.dumps(env, sort_keys=True))
    samples = ", ".join(f"{t:.4f}" for t in run["op_s"])
    print(f"op samples after warm-up ({len(run['op_s'])}): {samples}")
    if setups:
        print("setup samples: " + ", ".join(f"{t:.4f}" for t in setups + [run["setup_s"]]))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {len(failed) / attempted:.6g} ({len(failed)} of {attempted} ops)")
    print(f"check: {check['detail']}")
    for err in errors:
        print(f"FAILED: {err}")
    return not failed and not errors, attempted, len(failed), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dcfmn", "__init__.py")):
        print(f"perfbench: no dcfmn sources under {SRC}", file=sys.stderr)
        return 2
    key = source_key()
    commit = git_commit()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append((name, run_workload(args, name, key, commit)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        correct, attempted, failed, metrics = results[0][1]
    else:
        correct = all(r[0] for _, r in results)
        attempted = sum(r[1] for _, r in results)
        failed = sum(r[2] for _, r in results)
        metrics = {f"{name}.{m}": v for name, r in results for m, v in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
