#!/usr/bin/env python3
"""VoroNet benchmark: build, run one workload, check it, report.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the library sources of ../src plus the benchmark binary) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
reuse the build.  Every metric is printed by name with its unit, then
the host provenance, and the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"} holding every
end-to-end metric of BENCHMARK.json (--trace 0) or every per-layer
metric (--trace 1).  The full result, host block included, is also
saved under <build>/results/ for perfbench/compare.py.

Exit status: 0 when every answer was right, 1 on a wrong answer (the
JSON line still prints, with "correct": false), 2 when the benchmark
could not build or run (nothing printed as a result).
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("sim_grow_churn", "sim_serve_zipf_writes")
# The end-to-end metric the traced-minus-untraced overhead is read on,
# and whether a larger value means more time.
OVERHEAD_HEADLINE = {
    "sim_grow_churn": ("join_rate", False),
    "sim_serve_zipf_writes": ("sim_query_rate", False),
}
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not build or run."""


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(bdir):
    """Configure (once) and build the benchmark; returns the build dir."""
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isfile(os.path.join(src, "protocol", "harness.hpp")):
        raise BenchError("no VoroNet sources at %s: run from a full checkout" % src)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(os.path.join(bdir, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                raise BenchError("cmake configure failed; see %s" % log_path)
        jobs = str(max(1, os.cpu_count() or 1))
        targets = ["--target", "perfbench", "trace_inspect"]
        if subprocess.call(["cmake", "--build", bdir, "-j", jobs] + targets,
                           stdout=log, stderr=log) != 0:
            raise BenchError("build failed; see %s" % log_path)
    return bdir


def cmake_cache(bdir):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    return cache


def source_digest():
    """sha256 over the library, tool and benchmark sources."""
    root = os.path.dirname(HERE)
    h = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".py", ".txt")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def host_info(bdir):
    """Where a result was measured: the fields compare.py insists match."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = cmake_cache(bdir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), ""),
                                 "-ffp-contract=off") if x)
    sha = "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, cwd=os.path.dirname(HERE))
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": version,
            "flags": flags.strip(), "build_type": build_type, "git_sha": sha,
            "source_digest": source_digest()}


def run_binary(bdir, args, out_path, trace_path):
    cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if trace_path else "0", "--out", out_path]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    if args.small:
        cmd.append("--small")
    if args.fault:
        cmd += ["--fault", args.fault]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        proc.kill()
        proc.communicate()
        raise BenchError("workload exceeded %d s" % RUN_TIMEOUT_S) from e
    sys.stderr.write(err)
    if proc.returncode not in (0, 1) or not os.path.isfile(out_path):
        raise BenchError("perfbench exited with status %d" % proc.returncode)
    with open(out_path) as f:
        return out, json.load(f)


def results_dir(bdir, workload):
    d = os.path.join(bdir, "results", workload)
    os.makedirs(d, exist_ok=True)
    return d


def save(path, args, traced, host, result):
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "traced": traced, "small": args.small, "fault": args.fault,
           "host": host, "result": result}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def untraced_history(bdir, workload, seconds, digest):
    """Headline values of earlier full-size untraced runs of `workload`
    on the same sources."""
    name, _ = OVERHEAD_HEADLINE[workload]
    values = []
    d = results_dir(bdir, workload)
    for fn in sorted(os.listdir(d)):
        if not fn.startswith("untraced-") or not fn.endswith(".json"):
            continue
        try:
            with open(os.path.join(d, fn)) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        metrics = doc.get("result", {}).get("metrics", {})
        if (doc.get("seconds") == seconds and not doc.get("small")
                and not doc.get("fault")
                and doc.get("host", {}).get("source_digest") == digest
                and name in metrics):
            values.append(metrics[name]["value"])
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny sizes (the benchmark's own tests)")
    ap.add_argument("--trace-out", default="",
                    help="where a traced run writes its span trace")
    ap.add_argument("--fault", default="", choices=("", "views"),
                    help="inject a fault the correctness gate must catch "
                         "(the benchmark's own tests)")
    args = ap.parse_args()

    with open(SPEC_PATH) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build(build_dir())
    rdir = results_dir(bdir, args.workload)
    stamp = "%s-seed%d-%d" % ("small" if args.small else "full", args.seed,
                              time.time_ns())
    out_path = os.path.join(rdir, ("traced-" if args.trace else "untraced-") + stamp + ".json")
    trace_path = ""
    if args.trace:
        trace_path = args.trace_out or os.path.join(rdir, "trace-" + stamp + ".json")
    text, result = run_binary(bdir, args, out_path, trace_path)
    sys.stdout.write(text)
    metrics = result["metrics"]
    host = host_info(bdir)

    if args.trace:
        # Tracing overhead: the traced run's headline against the median
        # of this checkout's untraced runs (one is made if none exists).
        name, is_time = OVERHEAD_HEADLINE[args.workload]
        history = [] if args.small else untraced_history(
            bdir, args.workload, args.seconds, host["source_digest"])
        if not history:
            base_path = out_path.replace("traced-", "untraced-")
            _, base = run_binary(bdir, args, base_path, "")
            save(base_path, args, False, host, base)
            history = [base["metrics"][name]["value"]]
        untraced = statistics.median(history)
        traced = metrics[name]["value"]
        if min(untraced, traced) <= 0:
            raise BenchError("%s read 0: no tracing overhead to compute" % name)
        ratio = traced / untraced if is_time else untraced / traced
        metrics["trace.overhead_frac"] = {"value": ratio - 1.0, "unit": "ratio"}
        print("%-34s %16.6g %s  (%s traced %.6g vs untraced median %.6g of %d runs)"
              % ("trace.overhead_frac", ratio - 1.0, "ratio", name, traced,
                 untraced, len(history)))
        print("trace written to %s" % trace_path)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    units = [m["name"] for m in wanted
             if m["name"] in metrics and metrics[m["name"]]["unit"] != m["unit"]]
    if missing or units:
        raise BenchError("metrics missing %s, units differ %s" % (missing, units))

    for key in ("cpu", "nproc", "compiler", "flags", "build_type", "git_sha",
                "source_digest"):
        print("host.%s: %s" % (key, host[key]))
    save(out_path, args, bool(args.trace), host, result)

    line = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                    "unit": m["unit"]} for m in wanted}}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
