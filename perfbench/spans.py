"""In-memory span tracer that wraps public qwalk functions from outside.

qwalk modules import names directly (``from .spectral import char_poly_exact``),
so patching only the defining module would miss callers.  ``Tracer.install``
replaces the function object in every loaded ``qwalk`` module namespace that
binds it, and ``Tracer.uninstall`` puts the originals back.  Spans are kept in
memory as ``[function id, start ns, end ns, parent span index]`` and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

# Functions timed per layer, keyed by the module that defines them.
TRACED = {
    "graphs": ["parse_graph6", "delete_vertex"],
    "spectral": ["decompose", "eigenvalue_gap", "eigenvalue_support", "char_poly_exact"],
    "polys": ["poly_gcd", "poly_divmod"],
    "walkalg": ["walk_matrix", "rank_exact", "is_controllable",
                "cospectral_via_charpoly", "cospectral_via_gram"],
    "partitions": ["delta_u", "coarsest_equitable_refinement", "stabilizers_equal"],
    "analysis": ["necessary_conditions", "classify_support", "ratio_condition",
                 "rho_squared_integer", "search_pst", "verify_pst_event"],
    "cli": ["scan_graph", "analyze_graph", "pair_report_json", "jsonify", "run_scan"],
}

TRACED_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _coeff_bits(result):
    return max(abs(int(c)).bit_length() for c in result.coeffs)


# Result observers: traced name -> (key, function of the return value).
_OBSERVERS = {
    "spectral.char_poly_exact": ("max_coeff_bits", _coeff_bits),
    "analysis.search_pst": ("hits", lambda ev: int(ev is not None)),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.observed = {}
        self.absent = []
        self._stack = []
        self._patches = []

    def install(self):
        """Wrap every function in TRACED that the loaded qwalk still defines."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qwalk" or name.startswith("qwalk."))]
        for qualname in TRACED_NAMES:
            mod_name, fn_name = qualname.split(".")
            home = sys.modules.get(f"qwalk.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, qualname, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        observer = _OBSERVERS.get(qualname)
        observed = self.observed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [fid, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if observer is not None:
                key, fn_obs = observer
                observed.setdefault((qualname, key), []).append(fn_obs(result))
            return result

        return wrapper

    # -------------------------------------------------------------------
    # aggregation

    def layer_table(self):
        """Per function: calls, self seconds and total seconds.

        Self time is a span's duration minus its child spans; total time
        counts only spans with no enclosing span of the same function, so
        recursion (``jsonify``) is not counted twice.
        """
        n = len(self.spans)
        child = [0] * n
        for fid, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                 for name in TRACED_NAMES}
        for i, (fid, t0, t1, parent) in enumerate(self.spans):
            row = table[self.names[fid]]
            row["calls"] += 1
            row["self_s"] += (t1 - t0 - child[i]) / 1e9
            p = parent
            while p >= 0 and self.spans[p][0] != fid:
                p = self.spans[p][3]
            if p < 0:
                row["total_s"] += (t1 - t0) / 1e9
        return table

    def durations(self, qualname):
        if qualname not in self.names:
            return []
        fid = self.names.index(qualname)
        return [(t1 - t0) / 1e9 for f, t0, t1, _ in self.spans if f == fid]

    def observed_values(self, qualname, key):
        return self.observed.get((qualname, key), [])

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            json.dump({
                "fields": ["function", "start_ns", "end_ns", "parent"],
                "names": self.names,
                "absent": self.absent,
                "spans": [[f, t0 - origin, t1 - origin, p] for f, t0, t1, p in self.spans],
            }, fh, separators=(",", ":"))


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list: p99 of 1000 samples is the
    990th smallest, with ten samples beyond it."""
    ordered = sorted(values)
    k = min(len(ordered), max(1, math.ceil(q / 100 * len(ordered))))
    return ordered[k - 1]
