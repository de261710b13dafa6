#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload train|checkpoint|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest     # unit tests of the statistics helpers

Run from anywhere inside a checkout of the repository. The benchmark builds
itself from the checkout's sources into .bench_build/ at the checkout root
(the first run takes about a minute), then runs one workload; the last line
of standard output is the result as one JSON object. The exit code is 0 only
when every correctness check passed. See perfbench/README.md.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src'}", file=sys.stderr)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", *targets,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def commit_id():
    if not (ROOT / ".git").exists():
        return "none"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "none"


def tree_hash():
    """Hash of the library sources: names the code measured when there is
    no git metadata in the checkout."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=["train", "checkpoint", "serve"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        if not build(["perfbench_stats_test"]):
            return 2
        return subprocess.run([str(BUILD / "perfbench_stats_test")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build(["perfbench"]):
        return 2
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--commit", commit_id(),
           "--tree", tree_hash()]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
