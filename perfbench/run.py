"""Benchmark of the spheredet scan pipeline, dense NMS, training targets and
the Monte-Carlo volume oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source tree.  A run builds the optional sampling
extension in place (``python setup.py build_ext --inplace``), times
SETUP_ROUNDS set-up rounds in fresh interpreters, then runs the workload in
a fresh single-threaded worker process and prints its result object as the
last line.  ``--selftest`` runs every workload briefly, plain, traced and
with a tampered op, and checks what each reports.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".perfbench-runs"
WORKLOADS = ("scan_pipeline", "dense_detect", "train_targets", "volume_oracle")
SETUP_ROUNDS = 5
TIME_LIMIT_S = 170.0
BUILD_LIMIT_S = 800.0


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(argv, deadline: float) -> str:
    """Runs a child to completion (killed at the deadline); returns stdout."""
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(map(str, argv[:4]))} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, argv[:4]))} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    return proc.stdout


def build() -> None:
    for needed in ("setup.py", "src/spheredet/__init__.py"):
        if not (ROOT / needed).is_file():
            raise BenchError(f"{ROOT / needed} not found: run from the root of a spheredet tree")
    _child([sys.executable, "setup.py", "build_ext", "--inplace"], time.monotonic() + BUILD_LIMIT_S)


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, tamper: bool = False) -> dict:
    """Set-up rounds, then one worker run; returns the result object."""
    deadline = time.monotonic() + TIME_LIMIT_S
    worker = [sys.executable, str(BENCH / "worker.py")]
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=RUNS))
    try:
        common = ["--workload", workload, "--seed", str(seed), "--dir", str(workdir)]
        _child([sys.executable, "-c", "import spheredet"], deadline)  # fills bytecode caches
        rounds = SETUP_ROUNDS if trace == 0 else 1
        setup_s = [_last_json(_child(worker + ["setup"] + common, deadline))["program_s"]
                   for _ in range(rounds)]
        argv = worker + ["run"] + common + ["--seconds", str(seconds), "--trace", str(trace)]
        result = _last_json(_child(argv + (["--tamper"] if tamper else []), deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:  # another run still uses it
            pass
    if trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    return result


def selftest(seconds: float) -> int:
    """Every workload briefly: plain, tampered and traced, with the checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    failures = 0

    def expect(label: str, ok: bool, result: dict) -> None:
        nonlocal failures
        failures += not ok
        summary = {k: result[k] for k in ("correct", "attempted", "failed")}
        print(f"{'PASS' if ok else 'FAIL'} {label} {json.dumps(summary)}")

    for workload in WORKLOADS:
        plain = run_workload(workload, 1, seconds, 0)
        expect(f"{workload} plain", plain["correct"] and plain["failed"] == 0
               and set(plain["metrics"]) == end_to_end
               and all(m["value"] > 0 for m in plain["metrics"].values()), plain)
        tampered = run_workload(workload, 1, seconds, 0, tamper=True)
        expect(f"{workload} tampered", not tampered["correct"] and tampered["failed"] == 1, tampered)
        traced = run_workload(workload, 1, seconds, 1)
        expect(f"{workload} traced", traced["correct"] and traced["failed"] == 0
               and set(traced["metrics"]) == per_layer, traced)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="short run of every workload and its checks")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.selftest:
            return selftest(args.seconds or 1.0)
        result = run_workload(args.workload, args.seed, args.seconds or 25.0, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
