"""The three workloads: inputs made from the seed, one timed pass, checks.

Every workload is a closed loop with one client in one process: the next
operation starts when the previous one has returned.  Only generated inputs
reach the program, through its public entry points: ``cli.run_scan`` for
scans and ``cli.main`` (stdin in, stdout out, as on the command line) for
``analyze`` and ``pair``.

Each random size draws its graphs from its own stream, seeded by the seed
and the size.  When the program fails on a drawn graph, the failure is
recorded in the run's ``Redraws`` and the next graph of that stream takes
its place, in this pass and in every later set-up of the run: a failure is
counted once per run however many passes fit, and the size stays timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG = os.path.join(HERE, "atlas1000.g6")

EDGE_DENSITY = 0.45
ANALYZE_SIZES = (28, 32)
PAIR_SIZES = (16, 32, 40, 48)
# Inputs that crash today in classify_support's np.roots guard, each in under
# 1.5 s.  With them in, the fix of that crash would read as a large slowdown.
EXCLUDED_INPUTS = ("Q5, Q6, P64, C40, Petersen x P3, K4 x C7 and Q4 x P2 crash in "
                   "classify_support's np.roots guard and are left out of the timed "
                   "workloads until that crash is fixed.")
# Failed draws replaced per random size in one run; past this the failure
# stays in every pass, so that a program failing on all inputs still ends.
MAX_REDRAWS = 3
# Every 64th line of the catalog in file order: 16 graphs of all sizes, the
# same for every seed, so that the warm-up does the same work on every seed.
WARM_UP_STRIDE = 64


@dataclass
class Pass:
    wall: float
    op_times: list
    outputs: list  # stdout text per operation
    codes: list = field(default_factory=list)  # exit code per operation
    messages: list = field(default_factory=list)  # stderr text per operation
    digest: str = field(init=False)  # of outputs and codes; outlives drop_outputs

    def __post_init__(self):
        text = json.dumps([self.outputs, self.codes])
        self.digest = hashlib.sha256(text.encode()).hexdigest()

    def drop_outputs(self):
        self.outputs = self.messages = None


class Redraws:
    """Random inputs the program failed on in one run, per operation label.

    Shared by every set-up of a run, so later set-ups draw past them.
    """

    def __init__(self):
        self.failed = {}  # label -> failure messages, one per failed draw

    def count(self, label):
        return len(self.failed.get(label, ()))

    def record(self, label, message):
        self.failed.setdefault(label, []).append(message)

    def messages(self):
        return [m for ms in self.failed.values() for m in ms]


def random_connected(q, n, rng):
    """Upper-triangle Bernoulli(EDGE_DENSITY) graph, redrawn until connected,
    as in the test suite's random corpus."""
    while True:
        a = np.triu((rng.random((n, n)) < EDGE_DENSITY).astype(int), 1)
        g = q.Graph(a + a.T)
        if g.is_connected():
            return g


def call_main(cli, argv, stdin_text):
    """Run ``qwalk`` in-process with stdin and stdout redirected to memory."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # reported as a failed operation, not a crash
        code = None
        err.write(traceback.format_exc())
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class _StampedWriter:
    """``out`` for run_scan that notes when each JSON line arrives."""

    def __init__(self):
        self.parts = []
        self.stamps = []

    def write(self, text):
        self.parts.append(text)
        self.stamps.append(time.perf_counter())


class AtlasScan:
    """``scan`` over the 1000-graph catalog, shuffled by the seed."""

    name = "atlas-scan"

    def __init__(self, q, cli, seed, redraws):
        self.cli = cli
        with open(CATALOG) as fh:
            self.lines = fh.read().split()
        self.warm_up_lines = self.lines[::WARM_UP_STRIDE]
        random.Random(seed).shuffle(self.lines)

    @property
    def ops_per_pass(self):
        return len(self.lines)

    def warm_up(self):
        self.cli.run_scan(self.warm_up_lines, self.cli.AnalysisConfig(jobs=1),
                          out=io.StringIO())

    def run_pass(self, jobs=1):
        writer = _StampedWriter()
        config = self.cli.AnalysisConfig(jobs=jobs)
        t0 = time.perf_counter()
        self.cli.run_scan(self.lines, config, out=writer)
        wall = time.perf_counter() - t0
        # per-graph latency is only defined when graphs run one after another
        stamps = [t0] + writer.stamps
        op_times = [b - a for a, b in zip(stamps, stamps[1:])] if jobs == 1 else []
        return Pass(wall=wall, op_times=op_times, outputs=["".join(writer.parts)])

    def check(self, result):
        return checks.scan_errors(self.lines, result.outputs[0])


class _MainOps:
    """A list of ``qwalk`` command lines, each fed one graph on stdin."""

    ops = ()  # (label, argv, graph6 text, graph)
    random_sizes = ()

    def __init__(self, q, cli, seed, redraws):
        self.q, self.cli, self.seed, self.redraws = q, cli, seed, redraws
        self.random_n = {f"random n={n}": n for n in self.random_sizes}

    def random_op(self, n):
        """The operation at size n, on the first graph of the (seed, n)
        stream that no earlier pass of this run failed on."""
        label = f"random n={n}"
        rng = np.random.default_rng([self.seed, n])
        for _ in range(self.redraws.count(label) + 1):
            g = random_connected(self.q, n, rng)
        return label, self.argv(g), self.q.encode_graph6(g), g

    def argv(self, g):
        raise NotImplementedError

    @property
    def ops_per_pass(self):
        return len(self.ops)

    def warm_up(self):
        p3 = self.q.encode_graph6(self.q.path(3))
        call_main(self.cli, ["analyze", "-"], p3)
        call_main(self.cli, ["pair", "-", "0", "2"], p3)

    def run_pass(self, jobs=1):
        times, outputs, codes, messages = [], [], [], []
        t0 = time.perf_counter()
        for i, (label, argv, g6, g) in enumerate(self.ops):
            while True:
                start = time.perf_counter()
                code, out, err = call_main(self.cli, argv, g6)
                took = time.perf_counter() - start
                if (code == 0 or label not in self.random_n
                        or self.redraws.count(label) == MAX_REDRAWS):
                    break
                self.redraws.record(label, f"{label} draw {self.redraws.count(label)}: "
                                           f"exit {code}: {err.strip()}")
                self.ops[i] = label, argv, g6, g = self.random_op(self.random_n[label])
            times.append(took)
            outputs.append(out)
            codes.append(code)
            messages.append(err)
        wall = time.perf_counter() - t0
        return Pass(wall=wall, op_times=times, outputs=outputs, codes=codes,
                    messages=messages)

    def check(self, result):
        errors, failures = [], []
        for op, out, code, msg in zip(self.ops, result.outputs, result.codes,
                                      result.messages):
            label = op[0]
            if code != 0:
                line = f"{label}: exit {code}: {msg.strip()}"
                (errors if self.must_succeed(label) else failures).append(line)
                continue
            doc, errs = checks.report_errors(out)
            errors += [f"{label}: {e}" for e in errs]
            if doc is not None:
                errors += self.check_report(op, doc)
        return errors, failures

    def must_succeed(self, label):
        return False

    def check_report(self, op, doc):
        return []


class ExactAnalyze(_MainOps):
    """``analyze`` on random connected graphs at n = 28, 32 and the grid P5xP6."""

    name = "exact-analyze"
    random_sizes = ANALYZE_SIZES

    def __init__(self, q, cli, seed, redraws):
        super().__init__(q, cli, seed, redraws)
        grid = q.cartesian_product(q.path(5), q.path(6))
        self.ops = [self.random_op(n) for n in ANALYZE_SIZES]
        self.ops.append(("grid P5xP6", self.argv(grid), q.encode_graph6(grid), grid))

    def argv(self, g):
        return ["analyze", "-"]

    def check_report(self, op, doc):
        label, _, _, g = op
        if "char_poly" not in doc:
            return [f"{label}: report has no char_poly"]
        return [f"{label}: {e}"
                for e in checks.charpoly_errors(g.adjacency.tolist(), doc["char_poly"])]


class PairLadder(_MainOps):
    """``pair`` on the PST fixtures with known tau, then on random connected
    graphs at n = 16, 32, 40, 48 with the pair (0, n-1)."""

    name = "pair-ladder"
    random_sizes = PAIR_SIZES

    def __init__(self, q, cli, seed, redraws):
        super().__init__(q, cli, seed, redraws)
        fixtures = [
            ("P3", q.path(3), 0, 2, math.pi / math.sqrt(2)),
            ("P3xP3", q.cartesian_product(q.path(3), q.path(3)), 0, 8,
             math.pi / math.sqrt(2)),
            ("Q3", q.hypercube(3), 0, 7, math.pi / 2),
            ("Q4", q.hypercube(4), 0, 15, math.pi / 2),
        ]
        self.tau = {label: tau for label, _, _, _, tau in fixtures}
        self.ops = [(label, ["pair", "-", str(u), str(v)], q.encode_graph6(g), g)
                    for label, g, u, v, _ in fixtures]
        self.ops += [self.random_op(n) for n in PAIR_SIZES]

    def argv(self, g):
        return ["pair", "-", "0", str(g.n - 1)]

    def must_succeed(self, label):
        # a fixture that fails to run is wrong output, not a counted failure
        return label in self.tau

    def check_report(self, op, doc):
        label = op[0]
        if label in self.tau:
            return checks.pst_fixture_errors(label, doc, self.tau[label])
        return []


WORKLOADS = {w.name: w for w in (AtlasScan, ExactAnalyze, PairLadder)}
