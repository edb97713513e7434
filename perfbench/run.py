#!/usr/bin/env python3
"""Service benchmark entry point: build, run one workload, print metrics.

    python3 perfbench/run.py --workload svc-write --seed 1 --seconds 20 --trace 0

Builds udc_svc_node and the perfbench_svc driver from this checkout's
sources into .bench_build/perfbench (a no-op once built), runs one workload
against fresh 3-replica fleets, and prints the driver's report followed by
one JSON line holding the metrics BENCHMARK.json names: its end_to_end
metrics with --trace 0, its per_layer metrics with --trace 1.

    python3 perfbench/run.py --all --seed 1

runs every workload in BENCHMARK.json untraced and then traced, and prints
each end-to-end metric side by side with the tracing overhead.

Exit status is 0 only when a result was printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds once; later calls only re-check timestamps."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "udc_svc_node", "perfbench_svc"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: build step failed to run: {e}")
            return False
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log(f"run.py: build failed: {' '.join(cmd)}")
            return False
    return True


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    """Runs the driver; returns (report lines, result dict) or None."""
    cmd = [os.path.join(BUILD, "perfbench_svc"),
           f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--node={os.path.join(BUILD, 'udc_svc_node')}",
           f"--work-dir={os.path.join(BUILD, 'work')}"]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: driver did not finish: {e}")
        return None
    lines = res.stdout.rstrip("\n").split("\n")
    if res.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(res.stdout)
        log(f"run.py: driver exited {res.returncode} without a result")
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("run.py: driver's last line is not JSON")
        return None
    return lines[:-1], result


def select(result, names):
    """The contract's metrics, in its order; None if any is missing."""
    out = {}
    for name in names:
        if name not in result["metrics"]:
            log(f"run.py: driver did not report {name}")
            return None
        out[name] = result["metrics"][name]
    return out


def result_path(workload, seed):
    return os.path.join(BUILD, "results", f"{workload}-seed{seed}.json")


def print_overhead(workload, seed, traced, contract):
    """Tracing overhead: this traced run's end-to-end figures against the
    untraced run of the same workload and seed, when this checkout has one."""
    path = result_path(workload, seed)
    if not os.path.exists(path):
        print("tracing overhead: no untraced run of this workload and seed yet")
        return
    with open(path) as f:
        untraced = json.load(f)["metrics"]
    print("tracing overhead (traced vs. untraced, same workload and seed):")
    for m in contract["end_to_end"]:
        name = m["name"]
        if name not in untraced or name not in traced["metrics"]:
            continue
        a = untraced[name]["value"]
        b = traced["metrics"][name]["value"]
        rel = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {name:24s} untraced {a:12.6g}  traced {b:12.6g}  {rel}")


def one(workload, seed, seconds, trace, contract):
    got = run_once(workload, seed, seconds, trace)
    if got is None:
        return None
    lines, result = got
    print("\n".join(lines))
    if trace:
        print_overhead(workload, seed, result, contract)
    else:
        os.makedirs(os.path.dirname(result_path(workload, seed)), exist_ok=True)
        with open(result_path(workload, seed), "w") as f:
            json.dump(result, f)
    key = "per_layer" if trace else "end_to_end"
    metrics = select(result, [m["name"] for m in contract[key]])
    if metrics is None:
        return None
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="every workload, untraced then traced")
    args = ap.parse_args()
    contract = load_contract()
    seconds = args.seconds or contract["run_seconds"]
    if not args.all and not args.workload:
        ap.error("--workload or --all required")
    if not build():
        return 1
    # A fresh build leaves a lot of dirty pages behind; flush them now so the
    # first run's fdatasyncs do not pay for the compiler's writeback.
    os.sync()
    if args.all:
        ok = True
        for w in contract["workloads"]:
            for trace in (0, 1):
                print(f"=== {w['name']} trace={trace} ===", flush=True)
                r = one(w["name"], args.seed, seconds, trace, contract)
                if r is None:
                    ok = False
                    continue
                print(json.dumps(r), flush=True)
        return 0 if ok else 1
    r = one(args.workload, args.seed, seconds, args.trace, contract)
    if r is None:
        return 1
    print(json.dumps(r), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
