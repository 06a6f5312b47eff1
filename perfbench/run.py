#!/usr/bin/env python3
"""Repository benchmark: builds PaRMIS from source and runs one workload.

    python3 perfbench/run.py --workload cell-xu3 --seed 1 --seconds 30 --trace 0

Run from the repository root.  Workloads: cell-xu3, campaign-launch,
serve-mix (see perfbench/README.md).  --trace 0 reports the end-to-end
metrics of BENCHMARK.json for the workload; --trace 1 runs the traced
layer breakdown and reports the per-layer metrics.  The build goes to
.bench_build/perfbench and working files to .bench_build/perfbench-work
(removed after the run).  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cell-xu3", "campaign-launch", "serve-mix")
# Seed used while writing a change; 7919 is held out to re-check a claim.
DEFAULT_SEED = 1
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then (re)builds the perfbench binary and the campaign CLI."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(BUILD_JOBS)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets: checks outputs and metric names")
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    binary = build(os.path.join(ROOT, ".bench_build", "perfbench"))
    work = os.path.join(ROOT, ".bench_build", "perfbench-work",
                        "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
           "--trace=%d" % args.trace, "--work-dir=" + work,
           "--plan=" + os.path.join(ROOT, "examples", "plans",
                                    "method_matrix.json"),
           "--smoke=%d" % int(args.smoke)]
    # One malloc arena: with one per thread, the campaign-launch
    # orchestrator's peak RSS depends on which worker thread frees a
    # report and moves ~10% between runs.
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.arena_max=1")
    # Own process group, so a timeout also stops the campaign workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("perfbench: runner exited with status %d" % proc.returncode)
        return 1
    lines = stdout.strip().splitlines()
    doc = json.loads(lines[-1])

    metrics = doc["metrics"]
    if set(metrics) != set(expected):
        log("perfbench: metric names differ from BENCHMARK.json:",
            sorted(set(metrics) ^ set(expected)))
        return 1
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            log("perfbench: %s reported in %s, BENCHMARK.json says %s"
                % (name, metrics[name]["unit"], unit))
            return 1

    info = doc["info"]
    print("machine: cpu=%r nproc=%d compiler=%r build_type=%s "
          "PARMIS_OBS=%s PARMIS_BATCH_SIMD=%s"
          % (cpu_model(), os.cpu_count(), info.pop("compiler"),
             info.pop("build_type"), info.pop("PARMIS_OBS"),
             info.pop("PARMIS_BATCH_SIMD")))
    print("workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, m in metrics.items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for key, value in info.items():
        print("  info %-31s %s" % (key, value))
    for failure in doc["failures"]:
        print("  FAILED: " + failure)
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
