#!/usr/bin/env python3
"""Build the repository benchmark from source and run it.

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --calibrate-serve --seconds <s>

The benchmark and the llm4vv library it links are built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
repository root). Build output goes to standard error; the benchmark's last
line on standard output is its result as one JSON object. Traced runs write
their spans to the spans/ directory of the build tree. The exit code is the
benchmark's: non-zero when the build fails, the arguments are bad, or a
verdict check fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", out, "-j", jobs]):
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)


def main(args):
    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    if args == ["--self-test"]:
        return subprocess.call([os.path.join(out, "perfbench_selftest")])
    command = [os.path.join(out, "perfbench")] + args
    if "--workload" in args:
        command += ["--out-dir", os.path.join(out, "spans")]
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
