"""Record the benchmark's baseline: two ten-seed rounds and one traced run.

Run from the repository root, with nothing else running (about 45 minutes):

    python3 perfbench/sweep.py perfbench/baseline.json

Each round runs ``run.py --trace 0`` on seeds 1-10 of every workload, one
run at a time, for ``run_seconds`` from BENCHMARK.json; then one
``--trace 1`` run at seed 1 per workload.  For every workload and end-to-end
metric it prints and records the median over seeds and the spread,
(Q3 - Q1) / median with quartiles from ``statistics.quantiles(values, n=4)``,
next to the metric's bound, and the change of the median from round 1 to
round 2.  The load average of the machine is recorded before each run.
The file is rewritten after each workload, so a cut sweep keeps its runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from workloads import EXCLUDED_INPUTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUNDS = 2
SEEDS = range(1, 11)
TRACE_SEED = 1
# detail-line figures kept per run, where the workload has them
NAMED = ("scan_graphs_per_s", "scan_jobs2_graphs_per_s", "cli.scan_graph.p50_ms",
         "cli.scan_graph.p99_ms", "analyze_wall_s", "pair_wall_s", "pair_max_s",
         "failed_share", "pass_walls_s")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    load = os.getloadavg()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    return detail, result, load


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def sweep_round(workload, seconds):
    runs = []
    for seed in SEEDS:
        detail, result, load = run_once(workload, seed, seconds, 0)
        runs.append({
            "seed": seed,
            "load_avg_1m_5m_15m": load,
            "correct": result["correct"],
            "errors": detail["errors"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failures": detail["failures"],
            "passes": detail["passes"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "named": {k: detail[k] for k in NAMED if k in detail},
        })
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"passes={detail['passes']}", file=sys.stderr, flush=True)
    names = list(runs[0]["metrics"])
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: summarize([r["metrics"][k] for r in runs]) for k in names},
        "runs": runs,
    }


def verdicts(rounds, end_to_end):
    """Spread of each round and round-to-round change against each bound."""
    out = {}
    for workload in rounds[-1]:
        rows = {}
        for m in end_to_end:
            first, last = (r[workload]["metrics"][m["name"]] for r in (rounds[0], rounds[-1]))
            rows[m["name"]] = {
                "bound": m["bound"],
                "spreads": [r[workload]["metrics"][m["name"]]["spread"] for r in rounds],
                "change": (last["median"] - first["median"]) / first["median"],
            }
            print(f"{workload:14s} {m['name']:12s} median {last['median']:.6g} "
                  f"spreads {' '.join(f'{s:.4f}' for s in rows[m['name']]['spreads'])} "
                  f"change {rows[m['name']]['change']:+.4f} bound {m['bound']}")
        out[workload] = rows
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        sys.exit(f"usage: {sys.argv[0]} OUT.json")
    out = argv[0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    doc = {
        "about": "Two ten-seed rounds of end-to-end runs (trace 0) and one traced "
                 "run (trace 1) per workload, made by sweep.py. spread = (Q3 - Q1) / "
                 "median over seeds, quartiles from statistics.quantiles(values, n=4); "
                 "change = round-2 median / round-1 median - 1.",
        "run_seconds": seconds,
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "excluded_inputs": EXCLUDED_INPUTS,
        "machine": None,
        "rounds": [],
        "per_layer": {},
    }

    def save():
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")

    for _ in range(ROUNDS):
        doc["rounds"].append({})
        for workload in workloads:
            doc["rounds"][-1][workload] = sweep_round(workload, seconds)
            save()
    doc["verdicts"] = verdicts(doc["rounds"], bench["end_to_end"])
    for workload in workloads:
        detail, result, load = run_once(workload, TRACE_SEED, seconds, 1)
        doc["machine"] = detail.pop("machine")
        for key in ("workload", "seconds", "trace"):
            detail.pop(key)
        doc["per_layer"][workload] = {"load_avg_1m_5m_15m": load,
                                      "correct": result["correct"],
                                      "attempted": result["attempted"],
                                      "failed": result["failed"], **detail}
        save()


if __name__ == "__main__":
    main()
