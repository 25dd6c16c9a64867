#!/usr/bin/env python3
"""Compare two sets of saved benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result files or directories of them, as perfbench/run.py
saves under <build>/results/<workload>/.  Untraced full-size runs are
compared on the end-to-end metrics of BENCHMARK.json: each side's median
and quartiles, the change of the medians, and a verdict against the
metric's bound; small runs and fault-injection runs are skipped.  Results measured on different hosts (CPU model, core
count, compiler, flags or build type differ) are never compared: the
script refuses and exits 3.  Exit 1 when some metric got worse than its
bound, 0 otherwise.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
HOST_KEYS = ("cpu", "nproc", "compiler", "flags", "build_type")


def load(path):
    files = []
    if os.path.isdir(path):
        for dirpath, _, names in os.walk(path):
            files += [os.path.join(dirpath, n) for n in names
                      if n.startswith("untraced-") and n.endswith(".json")]
    else:
        files = [path]
    docs = []
    for fn in sorted(files):
        with open(fn) as f:
            doc = json.load(f)
        if ("host" not in doc or doc.get("traced") or doc.get("small")
                or doc.get("fault")):
            continue
        docs.append(doc)
    return docs


def hosts(docs):
    return {tuple((k, str(d["host"].get(k))) for k in HOST_KEYS) for d in docs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    if not base or not new:
        print("compare: no untraced full-size results on one side", file=sys.stderr)
        return 2
    hb, hn = hosts(base), hosts(new)
    if len(hb | hn) != 1:
        print("compare: refusing to compare results from different hosts:",
              file=sys.stderr)
        for h in sorted(hb | hn):
            print("  " + ", ".join("%s=%s" % kv for kv in h), file=sys.stderr)
        return 3
    with open(SPEC_PATH) as f:
        spec = json.load(f)

    worse = 0
    workloads = sorted({d["workload"] for d in base} & {d["workload"] for d in new})
    print("%-26s %-18s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "base median", "new median", "change", "bound",
        "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [d["result"]["metrics"][name]["value"] for d in base
                  if d["workload"] == w and name in d["result"]["metrics"]]
            nv = [d["result"]["metrics"][name]["value"] for d in new
                  if d["workload"] == w and name in d["result"]["metrics"]]
            if not bv or not nv:
                continue
            _, bmed, _ = quartiles(bv)
            q1, nmed, q3 = quartiles(nv)
            change = (nmed - bmed) / bmed if bmed else 0.0
            regress = change if m["better"] == "lower" else -change
            spread = (q3 - q1) / nmed if nmed else 0.0
            if regress > m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif spread > m["bound"]:
                verdict = "unresolved (spread %.3f)" % spread
            elif regress < -m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print("%-26s %-18s %12.5g %12.5g %+7.1f%% %6.2f  %s (n=%d/%d)" % (
                w, name, bmed, nmed, 100 * change, m["bound"], verdict,
                len(bv), len(nv)))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
