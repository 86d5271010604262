#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the perfbench package (perfbench/CMakeLists.txt, which compiles the
library from src/) into $CARGO_TARGET_DIR, or .bench_build when unset, then
runs the driver binary with a scratch directory inside that build
directory. The driver's human-readable lines are passed through; the last
line of stdout is its JSON result. The exit code is the driver's: 0 when
every output checked correct, non-zero otherwise. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sort_d1", "sort_d4", "btree_lookup", "btree_commit")
ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 165


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(target):
    """Configure (once) and build `target`; build output goes to stderr."""
    if not (ROOT / "src" / "io" / "block_device.h").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return None
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("cmake configure failed")
            (out / "CMakeCache.txt").unlink(missing_ok=True)
            return None
    cmd = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return None
    return out


def selftest():
    out = build("perfbench_test")
    if out is None:
        return 2
    return subprocess.run([str(out / "perfbench_test")], cwd=out).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run perfbench's own tests")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")

    out = build("perfbench")
    if out is None:
        return 2
    scratch = out / f"data-{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(scratch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver did not finish within {RUN_TIMEOUT_S} s")
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        pass
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        log(f"driver exited {proc.returncode} without a result line")
        return proc.returncode or 4
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
