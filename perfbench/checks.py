"""Correctness checks on qwalk outputs, run outside the timed region.

The exact determinant here is the benchmark's own (Bareiss elimination over
Python integers) and shares no code with qwalk.
"""

from __future__ import annotations

import json

TAU_TOL = 1e-9
DET_POINTS = (-2, 0, 1, 3)


def det_exact(rows):
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def charpoly_errors(adjacency, coeffs):
    """Compare phi(k) from the report against det(kI - A) at a few integers."""
    n = len(adjacency)
    phi = [int(c) for c in coeffs]
    if len(phi) != n + 1:
        return [f"char_poly has {len(phi)} coefficients for n={n}"]
    errors = []
    for k in DET_POINTS:
        value = 0
        for c in phi:
            value = value * k + c
        mat = [[(k if i == j else 0) - int(adjacency[i][j]) for j in range(n)]
               for i in range(n)]
        if value != det_exact(mat):
            errors.append(f"phi({k}) != det({k}I - A)")
    return errors


def report_errors(text):
    """Parse a JSON report; return (doc, errors) with the schema check applied."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, [f"unparseable report: {exc}"]
    if not isinstance(doc.get("schema_version"), int):
        return doc, ["report lacks schema_version"]
    return doc, []


def pst_fixture_errors(label, doc, tau):
    errors = []
    if doc.get("all_pass") is not True:
        bad = sorted(k for k, v in doc.get("verdicts", {}).items() if not v)
        errors.append(f"{label}: all_pass is not true (failing: {bad})")
    found = doc.get("pst_found")
    if not found:
        errors.append(f"{label}: no PST event found")
    elif abs(found["tau"] - tau) > TAU_TOL:
        errors.append(f"{label}: tau {found['tau']!r} differs from {tau!r}")
    return errors


def scan_errors(lines, text):
    """Each input line yields one JSON line with its id, in input order."""
    out = text.splitlines()
    if len(out) != len(lines):
        return [f"scan wrote {len(out)} lines for {len(lines)} graphs"], []
    errors, failures = [], []
    for line, row in zip(lines, out):
        try:
            doc = json.loads(row)
        except json.JSONDecodeError:
            errors.append(f"scan line for {line!r} is not JSON")
            continue
        if doc.get("id") != line:
            errors.append(f"scan line for {line!r} has id {doc.get('id')!r}")
        elif "error" in doc:
            failures.append(f"{line}: {doc['error']}")
    return errors, failures
