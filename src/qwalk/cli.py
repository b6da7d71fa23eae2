"""Command-line front end: analyze / pair / scan with JSON output.

Exit codes: 0 success, 1 empty input, 2 usage or parse error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction

import numpy as np

from . import analysis, partitions, walkalg
from .analysis import DEN_BOUND_DEFAULT, T_MAX_DEFAULT, THRESHOLD_DEFAULT
from .graphs import Graph, Graph6Error, encode_graph6, parse_graph6
from .spectral import (
    SUPPORT_TOL_DEFAULT,
    char_poly_exact,
    decompose,
    deleted_char_polys,
    eigenvalue_support,
    gap_report,
)
from .walkalg import InternalCheckError

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AnalysisConfig:
    t_max: float = T_MAX_DEFAULT
    threshold: float = THRESHOLD_DEFAULT
    grouping_tolerance: float = None  # None = auto
    support_tolerance: float = SUPPORT_TOL_DEFAULT
    denominator_bound: int = DEN_BOUND_DEFAULT
    exact_cap: int = 64
    brute_force_cap: int = 10
    jobs: int = 1

    def __post_init__(self):
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie in (0, 1)")
        for name in ("support_tolerance", "t_max"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


# ---------------------------------------------------------------------------
# JSON serialization: exact values as strings, floats as shortest round-trip

def jsonify(obj):
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, partitions.Partition):
        return obj.as_lists()
    if is_dataclass(obj) and not isinstance(obj, type):
        return {k: jsonify(v) for k, v in asdict(obj).items()}
    if isinstance(obj, np.ndarray):
        return [jsonify(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonify(x) for x in items]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _exact_poly_json(poly):
    # big integers as strings to avoid precision loss downstream
    return [str(c) for c in poly.coeffs]


def _support_class_json(sc):
    out = {"kind": sc.kind}
    if sc.kind == "Quadratic":
        out["a"] = str(sc.a)
        out["delta"] = sc.delta
        out["b_values"] = [str(b) for b in sc.b_values]
    return out


def _event_json(event):
    if event is None:
        return None
    return {
        "u": event.u,
        "v": event.v,
        "tau": event.tau,
        "gamma": {"re": event.gamma.real, "im": event.gamma.imag},
        "fidelity": event.fidelity,
        "kind": "numeric",  # evidence from a numeric search, not a proof
    }


# ---------------------------------------------------------------------------
# Graph input

def read_graph(path):
    """Load a graph from a file or '-' (stdin): JSON edge list or graph6."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    stripped = text.strip()
    if not stripped:
        raise Graph6Error("empty input", offset=0)
    # graph6 of a 60-vertex graph also starts with "{" (chr(63 + 60))
    if stripped.startswith("{") and _is_json_object(stripped):
        return Graph.from_json(stripped)
    return parse_graph6(stripped.splitlines()[0])


def _is_json_object(text):
    try:
        return isinstance(json.loads(text), dict)
    except json.JSONDecodeError:
        return False


# ---------------------------------------------------------------------------
# analyze

def analyze_graph(g, config):
    connected = g.is_connected()
    sd = decompose(g, config.grouping_tolerance)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "analyze",
        "graph6": encode_graph6(g),
        "n": g.n,
        "num_edges": g.num_edges,
        "connected": connected,
        "spectrum": {
            "eigenvalues": [float(x) for x in sd.eigenvalues],
            "multiplicities": [int(m) for m in sd.multiplicities],
            "spectral_radius": sd.spectral_radius,
        },
    }
    if not connected:
        doc["warning"] = "graph is disconnected; spectral facts only"
    if g.n >= 2:
        doc["gap"] = jsonify(gap_report(sd))
    exact_ok = g.n <= config.exact_cap
    phi = char_poly_exact(g, cap=config.exact_cap) if exact_ok else None
    if phi is not None:
        doc["char_poly"] = _exact_poly_json(phi)
        doc["rho_squared_integer"] = analysis.rho_squared_integer(sd, phi)
    vertices = []
    for u in range(g.n):
        sup = sorted(eigenvalue_support(sd, u, config.support_tolerance))
        entry = {
            "vertex": u,
            "support": sup,
            "support_values": [float(sd.eigenvalues[r]) for r in sup],
            "delta_partition": partitions.delta_u(g, u).as_lists(),
        }
        if phi is not None:
            sc = analysis.classify_support(entry["support_values"], phi)
            entry["support_class"] = _support_class_json(sc)
            if sc.kind == "Integer":
                entry["period_candidate"] = 2 * math.pi
            elif sc.kind == "Quadratic" and sc.a == 0:
                entry["period_candidate"] = 2 * math.pi / math.sqrt(sc.delta)
            if connected:
                entry["controllable"] = walkalg.is_controllable(g, u, cap=config.exact_cap)
        vertices.append(entry)
    doc["vertices"] = vertices
    return doc


# ---------------------------------------------------------------------------
# pair

def pair_report_json(g, report):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "pair",
        "graph6": encode_graph6(g),
        "n": g.n,
        "pair": [report.u, report.v],
        "verdicts": report.verdicts(),
        "all_pass": report.all_pass,
        "support_class": _support_class_json(report.support_class),
        "controllable": {"u": report.controllable_u, "v": report.controllable_v},
        "v_singleton_in_delta_u": report.v_singleton_in_delta_u,
        "gap": jsonify(report.gap),
        "pst_found": _event_json(report.pst_found),
    }
    if report.ratio.witness is not None:
        doc["ratio_witness"] = list(report.ratio.witness)
    if report.verification is not None:
        doc["verification"] = {
            "passed": report.verification.passed,
            "sign_pattern": [list(p) for p in report.verification.sign_pattern],
        }
    return doc


# ---------------------------------------------------------------------------
# scan

def scan_graph(g, config):
    """Per-graph scan summary: gap report plus per-pair condition summaries for
    cospectral pairs (cospectrality makes the pre-filter lossless).

    Per-vertex facts are computed only for vertices in a cospectral pair, and
    once per vertex however many pairs it is in.  The brute-force
    automorphism check is skipped here; the ``pair`` command runs the full
    pipeline.
    """
    doc = {"id": encode_graph6(g), "n": g.n}
    if g.n >= 2:
        sd = decompose(g, config.grouping_tolerance)
        doc["gap"] = jsonify(gap_report(sd))
    connected = g.is_connected()
    doc["connected"] = connected
    if not connected or g.n < 2 or g.n > config.exact_cap:
        doc["pairs"] = []
        return doc
    phi = char_poly_exact(g, cap=config.exact_cap)
    deleted = [p.coeffs for p in deleted_char_polys(g, cap=config.exact_cap)]
    cospectral = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                  if deleted[u] == deleted[v]]
    supports = [
        sorted(eigenvalue_support(sd, u, config.support_tolerance))
        for u in range(g.n)
    ]
    rho_ok = analysis.rho_squared_integer(sd, phi) if cospectral else None
    classes, controllable, deltas = {}, {}, {}
    pairs = []
    for u, v in cospectral:
        if u not in classes:
            sup_vals = [float(sd.eigenvalues[r]) for r in supports[u]]
            sclass = analysis.classify_support(sup_vals, phi)
            if len(sup_vals) >= 2:
                ratio = analysis.ratio_condition(sup_vals, config.denominator_bound)
            else:
                ratio = analysis.RatioResult(holds=True)
            classes[u] = sclass, ratio
        for w in (u, v):
            if w not in controllable:
                controllable[w] = walkalg.walk_rank(g, w, cap=config.exact_cap) == g.n
                deltas[w] = partitions.delta_u(g, w)
        sclass, ratio = classes[u]
        verdicts = {
            "cospectral": True,
            "equal_supports": supports[u] == supports[v],
            "ratio_condition": ratio.holds,
            "support_class_not_neither": sclass.kind != "Neither",
            "rho_squared_integer": rho_ok,
            "delta_partition_equal": deltas[u] == deltas[v],
            "controllability": g.n < 4 or not (controllable[u] or controllable[v]),
        }
        entry = {"u": u, "v": v, "verdicts": verdicts}
        if all(verdicts.values()):
            event = analysis.search_pst(
                sd, u, v, t_max=config.t_max, threshold=config.threshold
            )
            entry["pst"] = _event_json(event)
        pairs.append(entry)
    doc["pairs"] = pairs
    return doc


def _scan_line(item):
    index, line, config = item
    line = line.strip()
    if not line:
        return index, None
    try:
        g = parse_graph6(line)
        doc = scan_graph(g, config)
    except (Graph6Error, ValueError) as exc:
        doc = {"id": line, "error": str(exc)}
    return index, json.dumps(doc, separators=(",", ":"), sort_keys=True)


def run_scan(lines, config, out=None):
    """Scan newline-delimited graph6 input; one JSON line per graph, emitted in
    input order regardless of worker count. Returns the number processed."""
    if out is None:
        out = sys.stdout
    items = [(i, line, config) for i, line in enumerate(lines)]
    processed = 0
    if config.jobs <= 1:
        results = map(_scan_line, items)
        for _, doc in results:
            if doc is not None:
                out.write(doc + "\n")
                processed += 1
    else:
        with multiprocessing.Pool(config.jobs) as pool:
            for _, doc in pool.imap(_scan_line, items, chunksize=16):
                if doc is not None:
                    out.write(doc + "\n")
                    processed += 1
    return processed


# ---------------------------------------------------------------------------
# argument parsing

def _add_shared_flags(p):
    p.add_argument("--t-max", type=float, default=T_MAX_DEFAULT)
    p.add_argument("--threshold", type=float, default=THRESHOLD_DEFAULT)
    p.add_argument("--tol-group", type=float, default=None,
                   help="eigenvalue grouping tolerance (default: auto)")
    p.add_argument("--tol-support", type=float, default=SUPPORT_TOL_DEFAULT)
    p.add_argument("--den-bound", type=int, default=DEN_BOUND_DEFAULT)
    p.add_argument("--exact-cap", type=int, default=64)
    p.add_argument("--bf-cap", type=int, default=10)


def _config_from_args(args, jobs=1):
    return AnalysisConfig(
        t_max=args.t_max,
        threshold=args.threshold,
        grouping_tolerance=args.tol_group,
        support_tolerance=args.tol_support,
        denominator_bound=args.den_bound,
        exact_cap=args.exact_cap,
        brute_force_cap=args.bf_cap,
        jobs=jobs,
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Continuous-time quantum walk analysis: spectra, perfect "
        "state transfer conditions, and catalog scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="single-graph spectral analysis")
    p_an.add_argument("input", help="graph file (graph6 or JSON edge list) or '-'")
    p_an.add_argument("--json", dest="json_out", default=None,
                      help="write the report to this file instead of stdout")
    _add_shared_flags(p_an)

    p_pair = sub.add_parser("pair", help="full PST pipeline for one vertex pair")
    p_pair.add_argument("input")
    p_pair.add_argument("u", type=int)
    p_pair.add_argument("v", type=int)
    p_pair.add_argument("--json", dest="json_out", default=None)
    _add_shared_flags(p_pair)

    p_scan = sub.add_parser("scan", help="bulk scan of a graph6 catalog")
    p_scan.add_argument("input", help="newline-delimited graph6 file or '-'")
    p_scan.add_argument("--jobs", type=int,
                        default=int(os.environ.get("QWALK_JOBS", "1")))
    _add_shared_flags(p_scan)
    return parser


def _emit(doc, json_out):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            config = _config_from_args(args)
            g = read_graph(args.input)
            _emit(analyze_graph(g, config), args.json_out)
            return 0
        if args.command == "pair":
            config = _config_from_args(args)
            g = read_graph(args.input)
            if not (0 <= args.u < g.n and 0 <= args.v < g.n) or args.u == args.v:
                print(f"error: invalid vertex pair ({args.u}, {args.v}) for n={g.n}",
                      file=sys.stderr)
                return 2
            report = analysis.analyze_pair(
                g, args.u, args.v,
                t_max=config.t_max,
                threshold=config.threshold,
                grouping_tolerance=config.grouping_tolerance,
                support_tolerance=config.support_tolerance,
                denominator_bound=config.denominator_bound,
                exact_cap=config.exact_cap,
                brute_force_cap=config.brute_force_cap,
            )
            _emit(pair_report_json(g, report), args.json_out)
            return 0
        if args.command == "scan":
            config = _config_from_args(args, jobs=max(1, args.jobs))
            if args.input == "-":
                lines = sys.stdin.read().splitlines()
            else:
                with open(args.input) as fh:
                    lines = fh.read().splitlines()
            processed = run_scan(lines, config)
            return 0 if processed else 1
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (Graph6Error, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
