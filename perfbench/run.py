#!/usr/bin/env python3
"""End-to-end sweep benchmark: build, run, gate, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, default seed, untraced

Builds perfbench_sweep (the library plus perfbench/src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
checkout root, runs one workload in a fresh process, checks its JSONL output
against the expected SHA-256 for the default seed, prints every metric with
its unit and sample count, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.  See
perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 101
# Runnable by name and in the all-workloads run, but not in BENCHMARK.json's
# gated set: on a shared VM its run-to-run spread (0.1 ms cells, loopback
# sockets) exceeded the bounds there.  See perfbench/README.md.
UNGATED_WORKLOADS = ["dispatch_small"]
# A run must end within 180 s; the binary gets this long before it is killed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no fedhisyn source tree (CMakeLists.txt, src/) at {ROOT}")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_sweep",
                  "-j", str(len(os.sched_getaffinity(0)))])
    for step in steps:
        # Build chatter goes to stderr: stdout is the result channel.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench_sweep")


def run_binary(binary, workload, seed, seconds, trace):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--traced", str(trace),
            "--result-dir", os.path.join(build_dir(), "results")]
    # Own process group, so tcp workers a crashed run leaves behind are
    # killed with it.
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"perfbench_sweep exited with {proc.returncode} on {workload}")
    return json.loads(lines[-1])


def git_commit():
    # Only the tree's own repository: git would otherwise answer for any
    # repository the checkout happens to sit inside.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def gate(result, seed):
    """Apply the output hash gate; return the errors it adds."""
    with open(os.path.join(HERE, "expected_sha256.json")) as f:
        expected = json.load(f).get(result["workload"])
    if expected is None or expected["seed"] != seed:
        return []
    with open(result["out_file"], "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    if digest == expected["sha256"]:
        return []
    return [f"{result['out_file']}: sha256 {digest}, expected {expected['sha256']}"]


def run_workload(binary, spec, workload, seed, seconds, trace):
    result = run_binary(binary, workload, seed, seconds, trace)
    errors = result["errors"] + gate(result, seed)
    attempted = result["attempted"]
    failed = attempted if errors else result["failed"]
    metrics = result["metrics"]
    if "cell_ok_ratio" in metrics:
        metrics["cell_fail_ratio"]["value"] = failed / attempted
        metrics["cell_ok_ratio"]["value"] = 1 - failed / attempted

    provenance = dict(result["provenance"], git_commit=git_commit(), seed=seed,
                      workload=workload, trace=trace, seconds=seconds)
    record = dict(result, errors=errors, failed=failed, provenance=provenance)
    record_path = os.path.join(build_dir(), "results",
                               f"{workload}.seed{seed}.trace{trace}.result.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)

    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{result['cells']} cells) ==")
    print("provenance " + json.dumps(provenance))
    for error in errors:
        print("ERROR " + error)
    for name, m in metrics.items():
        note = f"; {m['note']}" if m["note"] else ""
        print(f"  {name:36s} {m['value']:<14.6g} {m['unit']:8s} (n={m['samples']}{note})")
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        fail(f"{workload} did not report {', '.join(missing)}")
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name]["value"],
                               "unit": metrics[name]["unit"]} for name in wanted}}


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"no BENCHMARK.json at {ROOT}")
    with open(spec_path) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]] + UNGATED_WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be non-negative and --seconds positive")

    binary = build()
    if args.workload:
        out = run_workload(binary, spec, args.workload, args.seed, args.seconds, args.trace)
    else:
        out = {name: run_workload(binary, spec, name, args.seed, args.seconds, args.trace)
               for name in workloads}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
