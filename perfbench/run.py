#!/usr/bin/env python3
"""Build and run the p2prange benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (the repo's libraries, the p2prange_node daemon and the
p2prange_perfbench binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. The benchmark
binary's stdout is relayed; its last line is the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list; this script refuses a result line that does not match.

Everything the run writes stays under the build directory, and every
process it starts (p2prange_perfbench and the daemons it forks) is
stopped and waited for before it exits.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_uniform", "engine_zipf_wide", "live_mixed")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            + generator,
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "p2prange_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)


def stop_group(pgid):
    """SIGKILLs whatever is left in the benchmark's process group (daemons
    orphaned by a crash) and waits until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def check_result(line, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        return "metrics %s do not match BENCHMARK.json %s" % (got, expected)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("src/CMakeLists.txt", "tools/p2prange_node.cc", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("%s is missing: run from the root of a full source tree" % needed, 2)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    try:
        build(build_dir, env)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e, 3)

    scratch = os.path.join(build_dir, "run-%d" % os.getpid())
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    command = [os.path.join(build_dir, "p2prange_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        fail("timed out after %d s" % RUN_TIMEOUT_S, 4)
    finally:
        stop_group(proc.pid)
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        for name in os.listdir(scratch):
            if name.endswith(".jsonl"):
                os.replace(os.path.join(scratch, name), os.path.join(traces, name))
        shutil.rmtree(scratch, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    problem = check_result(lines[-1], args.trace) if lines[-1].startswith("{") else \
        "no result line"
    if problem is not None:
        sys.stderr.write(out)
        fail(problem, 5)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
