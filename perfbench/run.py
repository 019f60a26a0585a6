#!/usr/bin/env python3
"""Build and run the FLEP simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
incrementally. The benchmark's output is passed through; its last line
is one JSON object with the keys correct, attempted, failed and metrics.
The metric names are checked against BENCHMARK.json when it is present.
See perfbench/README.md for the workloads and metrics.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Time a run may take beyond --seconds: set-up, warm-up and the last
# pass, which the binary starts only if it fits in --seconds.
RUN_SLACK_S = 145


def fail(msg, code=1):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the FLEP sources (src/) are not in this checkout", 2)
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(bdir, target)


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    if argv == ["--self-test"]:
        tests = build("perfbench_tests")
        return subprocess.run([tests], cwd=ROOT).returncode

    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(args) != {"--workload", "--seed", "--seconds",
                                      "--trace"}:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1> | --self-test", 2)
    if not args["--seconds"].isdigit():
        fail("--seconds takes a whole number", 2)
    timeout_s = int(args["--seconds"]) + RUN_SLACK_S
    binary = build("perfbench")
    out_dir = os.path.dirname(binary)
    try:
        proc = subprocess.run([binary, *argv, "--out-dir", out_dir],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {timeout_s} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")

    result = json.loads(lines[-1])
    want = expected_metrics(args["--trace"] == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"metrics do not match BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
