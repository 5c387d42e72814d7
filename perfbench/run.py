#!/usr/bin/env python3
"""Build gpumc from this checkout and run one workload of its benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. The first run configures and builds
the perfbench package (gpumc's libraries, gpumc-serve and the perfbench
binary) in $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs only check that the build is current.

The output is the perfbench binary's notes, one line per metric, and
as the last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.
With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics. A per-layer metric that the
workload does not exercise is reported as 0 and marked n/a. The exit
code is 0 when a result was printed, whatever its verdicts; it is 1
when no result could be produced.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; this leaves a margin for start-up.
RUN_TIMEOUT_S = 165


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no gpumc sources under {ROOT}/src")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench", "gpumc-serve"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as done:
                    sys.stderr.write("".join(done.readlines()[-40:]))
                fail("build failed: " + " ".join(step))


def run_perfbench(command):
    """Run the perfbench binary in its own process group, so that a
    timeout also stops the gpumc-serve daemon it may have started."""
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail(f"perfbench exited with code {proc.returncode}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]")

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build(build_dir)

    out = run_perfbench([
        os.path.join(build_dir, "perfbench"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--root={ROOT}",
        f"--serve-bin={os.path.join(build_dir, 'gpumc-serve')}",
        f"--out-dir={os.path.join(build_dir, 'out')}",
    ])
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(out)
        fail("perfbench printed no result")

    measured = result["metrics"]
    listed = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail(f"end-to-end metric {m['name']} was not measured")
            got = {"value": 0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print("\n".join(lines[:-1]))
    for name, m in sorted({**measured, **metrics}.items()):
        tag = "" if name in measured else "  (n/a: not exercised)"
        print(f"  {name:34} {m['value']:>16.6g} {m['unit']}{tag}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
