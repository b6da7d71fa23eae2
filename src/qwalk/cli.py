"""Command-line front end: analyze / pair / scan with JSON output.

Exit codes: 0 success, 1 empty input, 2 usage or parse error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import multiprocessing
import os
import sys
from json.encoder import encode_basestring_ascii

from . import analysis
from .analysis import T_MAX_DEFAULT, THRESHOLD_DEFAULT, AnalysisConfig
from .graphs import (Graph, Graph6Error, encode_graph6, graph6_body, graph6_size, parse_graph6,
                     parse_graph6_stack)
from .partitions import BRUTE_FORCE_CAP_DEFAULT
from .spectral import EXACT_CAP_DEFAULT, SUPPORT_TOL_DEFAULT, _check_cap
from .walkalg import InternalCheckError

SCHEMA_VERSION = 3


# ---------------------------------------------------------------------------
# JSON serialization: exact values as strings, floats as shortest round-trip

def _support_class_json(sc):
    out = {"kind": sc.kind}
    if sc.kind == "Quadratic":
        out["a"] = str(sc.a)
        out["delta"] = sc.delta
        out["b_values"] = [str(b) for b in sc.b_values]
    return out


def _gap_json(gap):
    return {"sigma": gap.sigma, "bound": gap.bound, "satisfied": gap.satisfied}


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


_SCALAR_JSON = {int: int.__repr__, float: float.__repr__, str: encode_basestring_ascii,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): {None: "null"}.__getitem__}


def _dumps(value, indent="\n"):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, each
    line after the first prefixed by ``indent[1:]``.  The stdlib writes
    indented JSON in pure Python; this writes str-keyed dicts, lists of one
    exact scalar type and lists of int lists (the Δ_u cells) in a few joins,
    and leaves the rest to the stdlib."""
    inner = indent + "  "
    kind = type(value)
    if kind is dict and value and all(type(k) is str for k in value):
        return "{" + inner + ("," + inner).join(
            encode_basestring_ascii(k) + ": " + _dumps(value[k], inner)
            for k in sorted(value)) + indent + "}"
    if kind is list and value:
        kinds = set(map(type, value))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is list and set(map(type, itertools.chain.from_iterable(value))) <= {int}:
            deeper, inner_sep = inner + "  ", "," + inner + "  "
            items = [f"[{deeper}{inner_sep.join(map(int.__repr__, row))}{inner}]"
                     if row else "[]" for row in value]
        elif kind in _SCALAR_JSON:
            items = map(_SCALAR_JSON[kind], value)
        else:
            items = (_dumps(x, inner) for x in value)
        text = "[" + inner + ("," + inner).join(items) + indent + "]"
    elif kind in _SCALAR_JSON:
        text = _SCALAR_JSON[kind](value)
    else:  # escaped JSON holds no raw newline, so this indents it exactly
        return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)
    # no other token holds "nan" or "inf": float.__repr__ to JSON's names
    return text.replace("nan", "NaN").replace("inf", "Infinity") if kind is float else text


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
    data = analysis.GraphData(g, config)
    connected, sd = data.connected, data.sd
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
        doc["gap"] = _gap_json(data.gap)
    exact_ok = g.n <= config.exact_cap
    if exact_ok:
        doc["char_poly"] = [str(c) for c in data.phi]  # big integers as strings
        doc["rho_squared_integer"] = data.rho_squared_is_integer
    deltas = data.deltas(range(g.n))
    if exact_ok:  # one psi_u run and one class pass for every vertex
        psi = data.minimal_polys(range(g.n))
        classes = data.support_classes(psi)
    vertices = []
    for u in range(g.n):
        sup = data.supports[u]
        entry = {
            "vertex": u,
            "support": list(sup),
            "support_values": data.values(sup),
            "delta_partition": deltas[u].as_lists(),
        }
        if exact_ok:
            entry["support_class"] = _support_class_json(classes[u])
            period = analysis.period_candidate(classes[u])
            if period is not None:
                entry["period_candidate"] = period
            if connected:
                entry["controllable"] = len(psi[u]) - 1 == g.n
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
        "gap": _gap_json(report.gap),
        "pst_found": _event_json(report.pst_found),
    }
    if report.verification is not None:
        doc["verification"] = {
            "passed": report.verification.passed,
            "sign_pattern": [list(p) for p in report.verification.sign_pattern],
        }
    return doc


# ---------------------------------------------------------------------------
# scan

def _scan_doc(data, gid):
    """Per-graph scan summary, under the id ``gid`` (the canonical graph6 of
    ``data.g``): gap report plus the verdicts of every
    cospectral pair (cospectrality is a verdict, so the pre-filter is
    lossless) and a time search for each pair that passes them all, from
    the facts that ``analysis.fill_stacked`` gave ``data`` for its
    cospectral pairs.  A graph with no vertex, or a connected one above the
    exact cap, is an error, as in ``pair``; the brute-force automorphism
    check is left to ``pair``."""
    g, config = data.g, data.config
    if g.n < 1 or data.connected:
        _check_cap(g, config.exact_cap)
    doc = {"id": gid, "n": g.n, "connected": data.connected}
    if g.n >= 2:
        doc["gap"] = _gap_json(data.gap)
    pairs = []
    if data.connected and g.n >= 2:
        for u, v in data.cospectral_pairs:
            verdicts = data.report(u, v).verdicts()
            entry = {"u": u, "v": v, "verdicts": verdicts}
            if all(verdicts.values()):
                entry["pst"] = _event_json(analysis.search_pst(
                    data.sd, u, v, t_max=config.t_max, threshold=config.threshold
                ))
            pairs.append(entry)
    doc["pairs"] = pairs
    return doc


# Most lines of a scan chunk, and most sum of n**3 over its lines.  A chunk
# runs each stacked kernel once per n; the line cap bounds its Python state
# (~10 KB a catalog graph), the budget its n x n arrays (16 graphs of n = 64).
SCAN_CHUNK = 256
SCAN_WORK = 2**22


def _scan_chunk(item):
    """A JSON line per non-blank line of a chunk, the graph6 decoded and
    the facts stacked; a malformed line is an error line of its own."""
    lines, config = item
    lines, docs, datas = [line.strip() for line in lines], {}, {}
    todo = [i for i, line in enumerate(lines) if line]
    for i, got in zip(todo, parse_graph6_stack([lines[i] for i in todo])):
        if isinstance(got, Graph6Error):
            docs[i] = {"id": lines[i], "error": str(got)}
        else:
            g, gid = got
            datas[i] = analysis.GraphData(g, config), gid
    analysis.fill_stacked([data for data, _ in datas.values()],
                          lambda data: data.cospectral_pairs)
    for i, (data, gid) in datas.items():
        try:
            docs[i] = _scan_doc(data, gid)
        except ValueError as exc:
            docs[i] = {"id": lines[i], "error": str(exc)}
    return [json.dumps({**docs[i], "schema_version": SCHEMA_VERSION},
                       separators=(",", ":"), sort_keys=True) for i in sorted(docs)]


def _scan_chunks(lines, jobs):
    """``lines`` cut in order into chunks: a chunk closes at
    min(``SCAN_CHUNK``, ceil(lines / jobs)) lines, or before a line that
    would take its sum of n**3 past ``SCAN_WORK``, n read from each line's
    graph6 size prefix after any '>>graph6<<' header by ``graph6_size`` (0
    for a blank line or a malformed prefix); a chunk holds at least one
    line."""
    cap = max(1, min(SCAN_CHUNK, math.ceil(len(lines) / max(1, jobs))))
    chunks, start, work = [], 0, 0
    for i, line in enumerate(lines):
        body = graph6_body(line.strip())
        try:
            n = max(0, graph6_size(body)[0]) if body else 0
        except Graph6Error:  # a malformed line decodes to no graph
            n = 0
        if i - start == cap or i > start and work + n**3 > SCAN_WORK:
            chunks.append(lines[start:i])
            start, work = i, 0
        work += n**3
    return chunks + [lines[start:]] if lines else []


def run_scan(lines, config, out=None):
    """Scan newline-delimited graph6 input; one JSON line per graph, emitted in
    input order regardless of worker count, at most one per line, a chunk
    (``_scan_chunks``) at a time.  Returns the number processed."""
    if out is None:
        out = sys.stdout
    chunks = [(chunk, config) for chunk in _scan_chunks(lines, config.jobs)]
    jobs = min(config.jobs, len(chunks))
    processed = 0
    with multiprocessing.Pool(jobs) if jobs > 1 else contextlib.nullcontext() as pool:
        for docs in (pool.imap if pool else map)(_scan_chunk, chunks):
            for doc in docs:
                out.write(doc + "\n")
            processed += len(docs)
    return processed


# ---------------------------------------------------------------------------
# argument parsing

def _add_shared_flags(p):
    p.add_argument("--t-max", type=float, default=T_MAX_DEFAULT)
    p.add_argument("--threshold", type=float, default=THRESHOLD_DEFAULT)
    p.add_argument("--tol-group", type=float, default=None,
                   help="eigenvalue grouping tolerance (default: auto)")
    p.add_argument("--tol-support", type=float, default=SUPPORT_TOL_DEFAULT)
    p.add_argument("--exact-cap", type=int, default=EXACT_CAP_DEFAULT)
    p.add_argument("--bf-cap", type=int, default=BRUTE_FORCE_CAP_DEFAULT)


def _config_from_args(args, jobs=1):
    return AnalysisConfig(
        t_max=args.t_max,
        threshold=args.threshold,
        grouping_tolerance=args.tol_group,
        support_tolerance=args.tol_support,
        exact_cap=args.exact_cap,
        brute_force_cap=args.bf_cap,
        jobs=jobs,
    )


def _env_jobs():
    """QWALK_JOBS, 1 when unset, None when no integer (an error for scan)."""
    try:
        return int(os.environ.get("QWALK_JOBS", "1"))
    except ValueError:
        return None


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
    p_scan.add_argument("--jobs", type=int, default=_env_jobs())
    _add_shared_flags(p_scan)
    return parser


def _emit(doc, json_out):
    text = _dumps(doc)
    if json_out:
        with open(json_out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("analyze", "pair"):
            config = _config_from_args(args)
            g = read_graph(args.input)
            if args.command == "analyze":
                doc = analyze_graph(g, config)
            else:
                doc = pair_report_json(g, analysis.GraphData(g, config).pair(args.u, args.v))
            _emit(doc, args.json_out)
            return 0
        if args.command == "scan":
            if args.jobs is None:
                raise ValueError("QWALK_JOBS must be an integer")
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
