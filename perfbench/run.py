"""qwalk benchmark: one workload per run, printed as one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload atlas-scan --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times whole passes over the workload's inputs
with tracing off and prints the end-to-end metrics listed in BENCHMARK.json.
With ``--trace 1`` it makes a traced pass between two untraced ones and
prints the per-layer metrics; the spans are written to ``perfbench/out/``.  The line
before the result carries the details: machine, per-operation times,
failures, and the metrics the README names per workload.

Exit status: 0 when every correctness check passed, 1 when one failed (the
result line still printed), 2 when the program cannot be set up.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread: the program's matrices are small, and idle BLAS threads
# spinning on a shared two-core machine only add noise.  Set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Redraws  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUPS_PER_ROUND = 4


class SetupError(RuntimeError):
    pass


def fresh_import():
    """Import qwalk from the checkout's sources, discarding any earlier import
    so that each set-up pays the import again."""
    init = os.path.join(SRC, "qwalk", "__init__.py")
    if not os.path.isfile(init):
        raise SetupError(f"no qwalk sources at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "qwalk" or m.startswith("qwalk.")]:
        del sys.modules[name]
    q = importlib.import_module("qwalk")
    if os.path.dirname(os.path.abspath(q.__file__)) != os.path.dirname(init):
        raise SetupError(f"imported qwalk from {q.__file__}, not from {SRC}")
    return q, importlib.import_module("qwalk.cli")


def set_up(workload_cls, seed, redraws):
    """Import, input generation and warm-up; returns (workload, seconds).

    Garbage left by earlier set-ups and passes is collected first, outside
    the timed region, so that it does not land on this set-up's clock.
    """
    gc.collect()
    t0 = time.perf_counter()
    q, cli = fresh_import()
    wl = workload_cls(q, cli, seed, redraws)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def set_up_round(workload_cls, seed, redraws):
    """SETUPS_PER_ROUND set-ups; returns (the last workload, their times)."""
    times = []
    for _ in range(SETUPS_PER_ROUND):
        wl, took = set_up(workload_cls, seed, redraws)
        times.append(took)
    return wl, times


def timed_passes(workload_cls, seed, seconds):
    """Rounds of set-ups and a whole pass until the next round would end past
    ``seconds``, then one closing round of set-ups; at least one pass.

    Set-ups are spread over the run rather than taken in one burst, so that a
    few seconds of interference from other processes on the machine cannot
    move all of them at once; the closing round gives three set-up rounds
    even where only two passes fit.  Only the first pass keeps its outputs;
    later passes keep their digest, so that memory does not grow with the
    number of passes.  Returns (workload from the last set-up, set-up times
    per round, passes, the run's redraws).
    """
    setups, passes, redraws = [], [], Redraws()
    start = time.perf_counter()
    while True:
        wl, times = set_up_round(workload_cls, seed, redraws)
        setups.append(times)
        p = wl.run_pass(jobs=1)
        if passes:
            p.drop_outputs()
        passes.append(p)
        one_round = SETUPS_PER_ROUND * statistics.median(t for r in setups for t in r)
        typical = statistics.median(p.wall for p in passes) + 2 * one_round
        if time.perf_counter() - start + typical > seconds:
            # the pool of a jobs=2 pass pickles functions by name, so later
            # passes need the workload of the latest import
            wl, times = set_up_round(workload_cls, seed, redraws)
            setups.append(times)
            return wl, setups, passes, redraws


def check_passes(wl, first, others, redraws):
    """Correctness errors, failed inputs and attempted inputs of a run.

    ``first`` is checked in full; each pass in ``others`` (label -> pass) ran
    the same inputs and must repeat its output byte for byte, so it repeats
    its failures too.  Each distinct input counts once, however many passes
    ran it: the inputs of a pass, and the random draws that failed and were
    replaced.
    """
    errors, failures = wl.check(first)
    for label, p in others.items():
        if p.digest != first.digest:
            errors.append(f"output of {label} differs from the first pass")
    failures += redraws.messages()
    return errors, failures, wl.ops_per_pass + len(redraws.messages())


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(workload_cls, seed, seconds):
    wl, setups, passes, redraws = timed_passes(workload_cls, seed, seconds)
    others = {f"pass {i + 1}": p for i, p in enumerate(passes[1:], 1)}
    # Interference from other processes on the machine only ever adds time,
    # so each operation's fastest pass and each round's fastest set-up are the
    # figures it moves least.
    op_best = [min(t) for t in zip(*(p.op_times for p in passes))]
    wall = sum(op_best)
    ops = wl.ops_per_pass
    detail = {
        "passes": len(passes),
        "pass_walls_s": [p.wall for p in passes],
        "setups_s": setups,
        "op_best_s": {op[0]: t for op, t in zip(getattr(wl, "ops", ()), op_best)},
        "max_op_s": max(op_best),
    }
    if wl.name == "atlas-scan":
        others["the jobs=2 pass"] = jobs2 = wl.run_pass(jobs=2)
        detail.update({
            "scan_graphs_per_s": ops / wall,
            "scan_jobs2_graphs_per_s": ops / jobs2.wall,
            "cli.scan_graph.p50_ms": spans.percentile(op_best, 50) * 1e3,
            "cli.scan_graph.p99_ms": spans.percentile(op_best, 99) * 1e3,
        })
    elif wl.name == "exact-analyze":
        detail["analyze_wall_s"] = wall
    else:
        detail.update({"pair_wall_s": wall, "pair_max_s": detail["max_op_s"]})
    errors, failures, attempted = check_passes(wl, passes[0], others, redraws)
    detail.update({"failed_share": len(failures) / attempted,
                   "failures": sorted(set(failures))})
    metrics = {
        "setup_s": statistics.median(min(r) for r in setups),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, detail, errors, attempted, len(failures)


def per_layer(workload_cls, seed):
    redraws = Redraws()
    wl, _ = set_up(workload_cls, seed, redraws)
    untraced = wl.run_pass(jobs=1)
    detail, others = {}, {}
    tracer = spans.Tracer()
    tracer.install()
    try:
        others["the traced pass"] = traced = wl.run_pass(jobs=1)
    finally:
        tracer.uninstall()
    # an untraced pass on each side of the traced one; the faster is compared
    others["the second untraced pass"] = again = wl.run_pass(jobs=1)
    untraced_wall = min(untraced.wall, again.wall)
    if wl.name == "atlas-scan":
        others["the jobs=2 pass"] = jobs2 = wl.run_pass(jobs=2)
        detail["cli.run_scan.parallel_efficiency"] = untraced_wall / (2 * jobs2.wall)
    errors, failures, attempted = check_passes(wl, untraced, others, redraws)

    ops = wl.ops_per_pass
    table = tracer.layer_table()
    layer = {}
    for name, row in table.items():
        for key, value in row.items():
            layer[f"{name}.{key}"] = value
    bits = tracer.observed_values("spectral.char_poly_exact", "max_coeff_bits")
    layer["spectral.char_poly_exact.max_coeff_bits"] = max(bits, default=0)
    layer["spectral.decompose.calls_per_graph"] = table["spectral.decompose"]["calls"] / ops
    layer["spectral.char_poly_exact.calls_per_graph"] = (
        table["spectral.char_poly_exact"]["calls"] / ops)
    layer["trace.overhead_share"] = traced.wall / untraced_wall - 1
    searches = table["analysis.search_pst"]["calls"]
    if searches:
        hits = sum(tracer.observed_values("analysis.search_pst", "hits"))
        detail["analysis.search_pst.hit_ratio"] = hits / searches
    scan_times = tracer.durations("cli.scan_graph")
    if scan_times:
        detail["cli.scan_graph.p50_ms"] = spans.percentile(scan_times, 50) * 1e3
        detail["cli.scan_graph.p99_ms"] = spans.percentile(scan_times, 99) * 1e3
    detail.update({
        "untraced_walls_s": [untraced.wall, again.wall],
        "traced_wall_s": traced.wall,
        "absent": tracer.absent,
        "failures": sorted(set(failures)),
        "layers": layer,
    })
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{wl.name}-seed{seed}.json"))
    return layer, detail, errors, attempted, len(failures)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        declared = declared_metrics(args.trace)
        workload_cls = WORKLOADS[args.workload]
        if args.trace:
            run = per_layer(workload_cls, args.seed)
        else:
            run = end_to_end(workload_cls, args.seed, args.seconds)
        values, detail, errors, attempted, failed = run
    except (SetupError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in declared if m["name"] not in values]
    errors += [f"metric {name} not measured" for name in missing]
    detail.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "errors": errors,
    })
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
