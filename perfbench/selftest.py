#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at reduced size (--small, one second)
with tracing off and on, and checks that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, and the line before it the host
    fingerprint;
  * every end-to-end metric (trace 0) and every per-layer metric (trace 1)
    is emitted, with the unit BENCHMARK.json gives it, and nothing else;
  * no operation failed (error_rate is 0) at the seed;
  * the count metrics repeat exactly at the same seed, and another seed
    changes the generated inputs (the seed reaches the generators).
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1
OTHER_SEED = 2
COUNT_METRICS = ("dyn_insts", "mispredictions", "ultra_cycles", "static_insts")


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--small"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit("%s seed %d trace %d: exit %d\n%s" % (
            workload, seed, trace, out.returncode, out.stderr[-3000:]))
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            print("FAIL:", what)

    first = None
    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            host, result = run(name, SEED, trace)
            tag = "%s trace %d" % (name, trace)
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], tag + ": result keys")
            expect("host" in host and "inputs_digest" in host,
                   tag + ": host fingerprint line")
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   tag + ": %d of %d operations failed" % (
                       result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(got) == set(want), tag + ": metric names differ: "
                   "missing %s, extra %s" % (sorted(set(want) - set(got)),
                                             sorted(set(got) - set(want))))
            for k in set(got) & set(want):
                expect(got[k] == want[k], tag + ": unit of " + k)
                v = result["metrics"][k]["value"]
                expect(isinstance(v, (int, float)), tag + ": value of " + k)
            if trace == 0:
                expect(all(result["metrics"][m]["value"] != 0
                           for m in want), tag + ": an end-to-end metric is 0")
                if first is None:
                    first = (name, host, result)
            print("ok:", tag, flush=True)

    # Determinism: the same seed repeats every count; another seed changes
    # the inputs (and with them the counts).
    name, host, result = first
    host2, result2 = run(name, SEED, 0)
    for m in COUNT_METRICS:
        expect(result["metrics"][m]["value"] == result2["metrics"][m]["value"],
               "%s: %s differs between two runs at seed %d" % (name, m, SEED))
    expect(host["inputs_digest"] == host2["inputs_digest"],
           "inputs differ between two runs at the same seed")
    host3, result3 = run(name, OTHER_SEED, 0)
    expect(host["inputs_digest"] != host3["inputs_digest"],
           "seed %d and seed %d generated the same inputs" % (SEED, OTHER_SEED))
    expect(result["metrics"]["dyn_insts"]["value"] !=
           result3["metrics"]["dyn_insts"]["value"],
           "dyn_insts did not change with the seed")
    print("ok: determinism", flush=True)

    if problems:
        print("%d problem(s)" % len(problems))
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
