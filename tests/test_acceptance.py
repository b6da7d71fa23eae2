"""End-to-end acceptance checks. Each test prints one pass/fail line."""

import hashlib
import io
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

import qwalk as q
from qwalk.cli import AnalysisConfig, _event_json, analyze_graph, pair_report_json, run_scan
from qwalk.partitions import Partition, automorphisms

from conftest import random_connected_graphs, random_graphs, ratio_condition
from oracles import (equitable_quotient_checks, support_size_crosscheck, trace_identity_check,
                     transfer_similarity)


def report(num, ok, detail):
    print("criterion %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


@pytest.fixture(scope="module")
def pst_events():
    """Fixture graphs with known PST, searched numerically once."""
    cases = [
        ("P2", q.path(2), 0, 1, math.pi / 2, 1e-9),
        ("P3", q.path(3), 0, 2, math.pi / math.sqrt(2), 1e-9),
        ("Q1", q.hypercube(1), 0, 1, math.pi / 2, 1e-8),
        ("Q2", q.hypercube(2), 0, 3, math.pi / 2, 1e-8),
        ("Q3", q.hypercube(3), 0, 7, math.pi / 2, 1e-8),
        ("Q4", q.hypercube(4), 0, 15, math.pi / 2, 1e-8),
    ]
    t0 = time.perf_counter()
    found = []
    for name, g, u, v, tau, tol in cases:
        sd = q.decompose(g)
        ev = q.search_pst(sd, u, v, t_max=10)
        found.append((name, g, sd, ev, tau, tol))
    return found, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_corpus():
    return random_connected_graphs(300, 10, seed=20240901)


@pytest.fixture(scope="session")
def catalog_lines(atlas_connected):
    """1000-graph scan catalog: the full connected atlas plus a few extras."""
    graphs = [g for n in range(1, 8) for g in atlas_connected[n]]
    graphs += [q.hypercube(3), q.petersen(), q.path(8), q.cycle(8)]
    assert len(graphs) == 1000
    return [q.encode_graph6(g) for g in graphs]


def test_criterion_1_pst_fixtures(pst_events):
    found, elapsed = pst_events
    errs = []
    for name, _, _, ev, tau, tol in found:
        if ev is None:
            errs.append("%s: no event" % name)
        elif ev.fidelity < 1 - 1e-9:
            errs.append("%s: fidelity %.3e" % (name, 1 - ev.fidelity))
        elif abs(ev.tau - tau) > tol:
            errs.append("%s: tau off by %.3e" % (name, abs(ev.tau - tau)))
    if elapsed >= 5.0:
        errs.append("runtime %.2fs" % elapsed)
    report(1, not errs, errs or "6 fixtures, %.2fs" % elapsed)


def test_criterion_2_theory_consistency(pst_events):
    found, _ = pst_events
    errs = []
    for name, g, sd, ev, _, _ in found:
        ver = q.verify_pst_event(sd, ev)
        if not ver.passed:
            errs.append("%s: verification" % name)
        rep = q.GraphData(g).pair(ev.u, ev.v)
        bad = [k for k, v in rep.verdicts().items() if not v]
        if bad:
            errs.append("%s: %s" % (name, bad))
        if g.n >= 4 and (rep.controllable_u or rep.controllable_v):
            errs.append("%s: controllable endpoint" % name)
    report(2, not errs, errs or "all events verified, all conditions hold")


def test_criterion_3_cospectrality_oracles(random_corpus, atlas_connected):
    corpus = random_corpus + [g for n in range(2, 8) for g in atlas_connected[n]]
    pairs = 0
    bad = 0
    for g in corpus:
        deleted = q.GraphData(g).char_polys[1]  # one recurrence run per graph
        for u, v in itertools.combinations(range(g.n), 2):
            pairs += 1
            if q.cospectral_via_gram(g, u, v) != (deleted[u] == deleted[v]):
                bad += 1
    report(3, bad == 0,
           "%d graphs, %d pairs, %d disagreements" % (len(corpus), pairs, bad))


def test_criterion_4_support_identity(random_corpus, atlas_connected):
    corpus = random_corpus + [g for n in range(1, 8) for g in atlas_connected[n]]
    checked = 0
    bad = 0
    for g in corpus:
        for rank, support, poles in support_size_crosscheck(g, range(g.n)).values():
            checked += 1
            if not rank == support == poles:
                bad += 1
    report(4, bad == 0, "%d vertices, %d disagreements" % (checked, bad))


def test_criterion_5_gap_bound(random_corpus, atlas_connected):
    corpus = [g for g in random_corpus if 3 <= g.n <= 8]
    corpus += [g for n in range(3, 8) for g in atlas_connected[n]]
    gap_bad = 0
    trace_bad = 0
    for g in corpus:
        rep = q.GraphData(g).gap
        if not rep.satisfied:
            gap_bad += 1
        lhs, rhs = trace_identity_check(g)
        if abs(lhs - rhs) > 1e-6 * max(abs(rhs), 1.0):
            trace_bad += 1
    # n = 2 equality case, reported and exempted
    k2 = q.GraphData(q.path(2)).gap
    assert k2.sigma ** 2 == pytest.approx(k2.bound)
    report(5, gap_bad == 0 and trace_bad == 0,
           "%d graphs, %d gap / %d trace violations; K2 attains equality (exempt)"
           % (len(corpus), gap_bad, trace_bad))


def test_criterion_6_p4_enumeration(atlas_connected):
    hits = []
    for n in range(4, 7):
        for g in atlas_connected[n]:
            eigs = np.sort(np.linalg.eigvalsh(g.adjacency.astype(float)))
            if np.diff(eigs).min() >= 1 - 1e-9:
                hits.append(g)
    p4 = q.path(4)
    p4_eigs = np.sort(np.linalg.eigvalsh(p4.adjacency.astype(float)))
    ok = len(hits) == 1 and hits[0].n == 4 and \
        sorted(hits[0].degree(u) for u in range(4)) == [1, 1, 2, 2] and \
        np.allclose(np.sort(np.linalg.eigvalsh(hits[0].adjacency.astype(float))),
                    p4_eigs, atol=1e-9)
    report(6, ok, "connected n=4..6: %d graph(s) with min eigenvalue gap >= 1, "
           "unique hit is P4" % len(hits))


def test_criterion_7_support_classes():
    errs = []

    q3 = q.hypercube(3)
    sc = q.GraphData(q3).pair(0, 7).support_class
    if sc.kind != "Integer":
        errs.append("Q3: %s" % sc.kind)

    for name, g, u, v in [("P3", q.path(3), 0, 2),
                          ("P3xP3", q.cartesian_product(q.path(3), q.path(3)), 0, 8)]:
        sc = q.GraphData(g).pair(u, v).support_class
        if not (sc.kind == "Quadratic" and sc.a == 0 and sc.delta == 2):
            errs.append("%s: %s" % (name, sc))

    sc = q.GraphData(q.path(4)).pair(0, 3).support_class
    if sc.kind != "Neither":
        errs.append("P4: %s" % sc.kind)
    report(7, not errs,
           errs or "Q3 Integer; P3, P3xP3 Quadratic (a=0, delta=2); P4 Neither")


def test_criterion_8_equitable_exactness():
    corpus = random_graphs(200, 12, seed=424242)
    bad = 0
    for g in corpus:
        pi0 = Partition.from_cells([[0], range(1, g.n)], g.n) if g.n > 1 \
            else Partition.trivial(1)
        pi = q.coarsest_equitable_refinement(g, pi0)
        checks = equitable_quotient_checks(g, pi)
        ok = (pi.refines(pi0)
              and q.coarsest_equitable_refinement(g, pi) == pi
              and checks["equitable"] and checks["AP_eq_PB"]
              and checks["A_commutes_QQt"])
        if not ok:
            bad += 1
    q3_cells = [len(c) for c in q.GraphData(q.hypercube(3)).deltas([0])[0].cells]
    report(8, bad == 0 and q3_cells == [1, 3, 3, 1],
           "200 graphs exact, %d failures; delta_u(Q3) cells %s" % (bad, q3_cells))


def test_criterion_9_transfer_similarity():
    ts = transfer_similarity(q.path(4), 0, 3)
    p4_ok = (np.array_equal(ts.matrix.astype(int), np.eye(4, dtype=int)[::-1])
             and ts.commutes_with_adjacency and ts.orthogonal and ts.maps_u_to_v)

    # pair found by brute-force catalog search over n <= 9
    g = q.parse_graph6("GSv~Sc")
    u, v = 1, 7
    data = q.GraphData(g)
    psi = data.minimal_polys((u, v))
    pair_ok = (data.cospectral(u, v)
               and len(psi[u]) - 1 == g.n and len(psi[v]) - 1 == g.n
               and not any(p[u] == v for p in automorphisms(g)))
    ts2 = transfer_similarity(g, u, v)
    entries = {abs(x) for row in ts2.matrix for x in row}
    pair_ok = pair_ok and ts2.orthogonal and ts2.commutes_with_adjacency \
        and ts2.maps_u_to_v and not entries <= {0, 1}
    report(9, p4_ok and pair_ok,
           "P4 ends give the reversal; GSv~Sc (1,7) gives an orthogonal "
           "non-permutation Q")


def test_criterion_10_scan_determinism(catalog_lines):
    outputs = []
    times = []
    for jobs in (1, 4, 8):
        buf = io.StringIO()
        t0 = time.perf_counter()
        n = run_scan(catalog_lines, AnalysisConfig(jobs=jobs), out=buf)
        times.append(time.perf_counter() - t0)
        assert n == len(catalog_lines)
        outputs.append(buf.getvalue().encode())
    identical = outputs[0] == outputs[1] == outputs[2]
    in_budget = max(times) < 60.0
    report(10, identical and in_budget,
           "1000 graphs; jobs 1/4/8 byte-identical=%s; times %.1f/%.1f/%.1fs"
           % (identical, *times))


@pytest.fixture(scope="module")
def scan_text(catalog_lines):
    buf = io.StringIO()
    run_scan(catalog_lines, AnalysisConfig(jobs=1), out=buf)
    return buf.getvalue()


# SHA-256 of run_scan's output over catalog_lines, schema version 3: every
# pair's verdicts include sign_condition, and only pairs passing all of them
# are searched.
SCAN_GOLDEN_SHA256 = "84d5b44a79dc30a04890f7b0f09c8941a399ab724bbe40537051fa1bb0d63079"

# The same digest for schema version 2, whose scan lines differ only in
# their schema_version.
SCAN_V2_SHA256 = "0453958928c03f872d03da071b34ade9d3e94ac6cca828893016ea6f72e6136a"

# The same digest for schema version 1, whose scan verdicts left out
# sign_condition and which searched every pair passing the rest.
SCAN_V1_SHA256 = "89458569f97dabf11cc034599f86edef28987ca2568e5f55f69b0400eba4d546"


def test_scan_output_matches_golden(scan_text):
    assert hashlib.sha256(scan_text.encode()).hexdigest() == SCAN_GOLDEN_SHA256


def test_scan_at_a_long_t_max_matches_golden(catalog_lines):
    # a pair whose verdicts all pass is searched over one period of
    # |H(t)_uv|, so --t-max 5000 finds the events of the default run
    buf = io.StringIO()
    run_scan(catalog_lines, AnalysisConfig(t_max=5000, jobs=1), out=buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == SCAN_GOLDEN_SHA256


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
def test_scan_lines_do_not_depend_on_chunks(catalog_lines, scan_text, order):
    # the golden catalog is sorted by n, so its chunks hold one or two vertex
    # counts; in another order every chunk stacks graphs of mixed sizes
    index = list(range(len(catalog_lines)))
    if order == "shuffled":
        random.Random(20261018).shuffle(index)
    else:
        index.reverse()
    buf = io.StringIO()
    assert run_scan([catalog_lines[i] for i in index], AnalysisConfig(jobs=1), out=buf) == 1000
    golden = scan_text.splitlines()
    assert buf.getvalue().splitlines() == [golden[i] for i in index]


def _as_schema_v2(text):
    """Rebuild schema-version-2 scan output from version-3 output."""
    rows = []
    for line in text.splitlines():
        doc = json.loads(line)
        doc["schema_version"] = 2
        rows.append(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    return "".join(rows)


def test_scan_output_maps_back_to_schema_v2(scan_text):
    v2 = _as_schema_v2(scan_text)
    assert hashlib.sha256(v2.encode()).hexdigest() == SCAN_V2_SHA256


def _as_schema_v1(text):
    """Rebuild schema-version-1 scan output from version-2 output."""
    rows = []
    for line in text.splitlines():
        doc = json.loads(line)
        del doc["schema_version"]
        for pair in doc.get("pairs", []):
            del pair["verdicts"]["sign_condition"]
            if all(pair["verdicts"].values()):
                pair.setdefault("pst", None)
        rows.append(json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n")
    return "".join(rows)


def test_scan_output_maps_back_to_schema_v1(scan_text):
    v1 = _as_schema_v1(_as_schema_v2(scan_text))
    assert hashlib.sha256(v1.encode()).hexdigest() == SCAN_V1_SHA256


def test_scan_verdicts_are_the_pair_verdicts(catalog_lines, scan_text):
    """Every cospectral pair gets the verdicts of the full pipeline, less
    the brute-force stabilizer check that scan skips, and a pair searched
    in scan passes them all and gets the event that pair finds."""
    checked = sign_failures = searched = 0
    for line, row in zip(catalog_lines, scan_text.splitlines()):
        data = q.GraphData(q.parse_graph6(line))
        for pair in json.loads(row)["pairs"]:
            full = data.pair(pair["u"], pair["v"])
            expected = full.verdicts()
            del expected["automorphism_stabilizer_equal"]
            assert pair["verdicts"] == expected, (line, pair)
            assert ("pst" in pair) == all(expected.values())
            if "pst" in pair and full.all_pass:
                assert pair["pst"] == json.loads(json.dumps(_event_json(full.pst_found)))
                searched += 1
            checked += 1
            sign_failures += not expected["sign_condition"]
    assert (checked, sign_failures, searched) == (2734, 1320, 32)


# The graphs whose ``analyze`` and ``pair (0, n - 1)`` reports are pinned by
# REPORTS_GOLDEN_SHA256: fixtures with PST, products, and the exact cap.
REPORT_GRAPHS = {
    "P3": q.path(3),
    "Q4": q.hypercube(4),
    "Petersen": q.petersen(),
    "P3xP3": q.cartesian_product(q.path(3), q.path(3)),
    "P5xP6": q.cartesian_product(q.path(5), q.path(6)),
    "Q6": q.hypercube(6),
    "C40": q.cycle(40),
    "random32": random_connected_graphs(1, 32, seed=32, n_min=32)[0],
}

# SHA-256 of the ``analyze`` then ``pair (0, n - 1)`` JSON of every graph in
# REPORT_GRAPHS, in order, as the CLI prints them.
REPORTS_GOLDEN_SHA256 = "b3527519559ce36a73ed8c90be2b68a104e2cc2cddd3a5bcdde2ae118dfaccb2"

# The same digest for schema version 2, whose pair reports also carried the
# failing support values of the float ratio test as ``ratio_witness``.
REPORTS_V2_SHA256 = "604796819e4fe12cece74b34768d9cb00144fade797eb4fdec5fa1e995e9552b"


@pytest.fixture(scope="module")
def report_docs():
    """(GraphData, analyze doc, pair (0, n - 1) doc) of every REPORT_GRAPHS graph."""
    config = AnalysisConfig()
    out = []
    for g in REPORT_GRAPHS.values():
        data = q.GraphData(g, config)
        out.append((data, analyze_graph(g, config), pair_report_json(g, data.pair(0, g.n - 1))))
    return out


def _reports_digest(docs):
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def test_analyze_and_pair_reports_match_golden(report_docs):
    assert _reports_digest(doc for _, *docs in report_docs for doc in docs) == REPORTS_GOLDEN_SHA256


def _reports_as_schema_v2(report_docs):
    """Rebuild the schema-version-2 reports from version-3 ones: a pair
    whose ratio condition fails gets back the witness of the float test
    over its common support."""
    for data, analyze_doc, pair_doc in report_docs:
        yield {**analyze_doc, "schema_version": 2}
        pair_doc = {**pair_doc, "schema_version": 2}
        if not pair_doc["verdicts"]["ratio_condition"]:
            u, v = pair_doc["pair"]
            common = sorted(set(data.supports[u]) & set(data.supports[v]))
            pair_doc["ratio_witness"] = list(ratio_condition(data.values(common)).witness)
        yield pair_doc


def test_reports_map_back_to_schema_v2(report_docs):
    v2 = list(_reports_as_schema_v2(report_docs))
    witnessed = [doc["n"] for doc in v2 if "ratio_witness" in doc]
    assert witnessed == [30, 40, 32]  # P5xP6, C40, random32
    assert _reports_digest(v2) == REPORTS_V2_SHA256
