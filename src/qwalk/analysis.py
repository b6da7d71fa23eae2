"""Perfect-state-transfer detection and its necessary-condition pipeline.

Numeric search results are evidence, not proof: an empty search never claims
non-existence.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import partitions, walkalg
from .graphs import connected_stack
from .spectral import (_FLOAT64_EXACT, EXACT_CAP_DEFAULT, SUPPORT_TOL_DEFAULT, char_polys,
                       decompose, decompose_stack, gap_report, support_mask, supports_stack,
                       transition_matrix)
from .polys import poly_divides, poly_eval, poly_gcds, poly_trim

THRESHOLD_DEFAULT = 1 - 1e-9
T_MAX_DEFAULT = 50.0

_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class AnalysisConfig:
    t_max: float = T_MAX_DEFAULT
    threshold: float = THRESHOLD_DEFAULT
    grouping_tolerance: float = None  # None = auto
    support_tolerance: float = SUPPORT_TOL_DEFAULT
    exact_cap: int = EXACT_CAP_DEFAULT
    brute_force_cap: int = partitions.BRUTE_FORCE_CAP_DEFAULT
    jobs: int = 1

    def __post_init__(self):
        if not 0 < self.threshold < 1:
            raise ValueError("threshold must lie in (0, 1)")
        positive = ["support_tolerance", "t_max", "exact_cap"]
        if self.grouping_tolerance is not None:
            positive.append("grouping_tolerance")
        for name in positive:
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.brute_force_cap < 0:
            raise ValueError("brute_force_cap must be non-negative")


@dataclass(frozen=True)
class PstEvent:
    u: int
    v: int
    tau: float
    gamma: complex
    fidelity: float


def fidelity(sd, u, v, t):
    """|H(t)_{u,v}|, clamped to [0, 1]."""
    coeffs = sd.idempotents[:, u, v]
    return min(abs(_amplitude(sd.eigenvalues, coeffs, t)), 1.0)


# ---------------------------------------------------------------------------
# Time search

# Points in the first block of the time grid; each later block doubles, up
# to _SEARCH_BLOCK_ENTRIES (point, eigenvalue) entries.
_FIRST_BLOCK = 256
_SEARCH_BLOCK_ENTRIES = 2**18


def _amplitude(thetas, coeffs, t):
    """sum_r c_r exp(i theta_r t) at one time t."""
    return (coeffs * np.exp(1j * (t * thetas))).sum()


def _golden_max(f, lo, hi):
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2


def _polish_peak(itheta, coeffs, slope, tau, halfwidth):
    """Sharpen a fidelity maximum by bisecting d/dt |amplitude|^2, with
    ``itheta`` = i theta and ``slope`` = i theta c, so that one exp gives the
    amplitude and its derivative.

    Golden section alone bottoms out near sqrt(eps) in time because the
    fidelity is flat at a true peak; the derivative crosses zero linearly.
    """

    def deriv(t):
        e = np.exp(itheta * t)
        return 2 * (np.conj((coeffs * e).sum()) * (slope * e).sum()).real

    lo, hi = tau - halfwidth, tau + halfwidth
    dlo, dhi = deriv(lo), deriv(hi)
    if not (dlo > 0 > dhi):
        return tau
    for _ in range(200):
        mid = (lo + hi) / 2
        dm = deriv(mid)
        if dm == 0 or hi - lo < 1e-14:
            return mid
        if dm > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _grid_peaks(vals, floor):
    """Indices of the local maxima of ``vals`` (ties included) at or above
    ``floor``.  Only the flat |amplitude| == 1 case (single support
    eigenvalue) peaks at the first grid point; a merely decreasing start is
    the trivial t -> 0 plateau of a diagonal entry.  A block whose largest
    value is below ``floor`` has no peak, and is not searched for one."""
    if vals.max() < floor:
        return np.flatnonzero(())
    peaks = vals >= floor
    peaks[1:] &= vals[1:] >= vals[:-1]
    peaks[1:-1] &= vals[1:-1] >= vals[2:]
    peaks[0] &= len(vals) == 1 or abs(vals[0] - vals[1]) < 1e-12
    return np.flatnonzero(peaks)


def _search_amplitude(thetas, coeffs, t_max, threshold, rho):
    """Earliest t in (0, t_max] with |sum_r c_r exp(i theta_r t)| >= threshold.

    The grid, np.arange's step, 2 step, ... to t_max, or t_max alone, is
    evaluated in blocks in time order, ``_FIRST_BLOCK`` points and then
    twice the last, up to ``_SEARCH_BLOCK_ENTRIES`` // len(thetas), each
    made from its index range and read with one point of its neighbours on
    either side.  A point's value does not depend on its block, so
    ``_grid_peaks`` finds the peaks of the whole grid, in order; the search
    stops at the first that refines to the threshold."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    step = math.pi / (100 * max(rho, 1.0))
    count = math.ceil((t_max + step / 2 - step) / step)  # np.arange's length
    origin, count = (step, count) if count > 0 else (t_max, 1)
    cap = max(1, _SEARCH_BLOCK_ENTRIES // len(thetas))
    itheta = 1j * thetas
    slope = itheta * coeffs

    # a true peak can drop by at most (step/2) * rho * sum|c_r| <= pi/200
    # between grid samples; 0.02 leaves slack
    f = lambda t: abs(_amplitude(thetas, coeffs, t))
    start, size = 0, min(_FIRST_BLOCK, cap)
    while start < count:
        stop = min(start + size, count)
        first = max(start - 1, 0)
        ts = origin + np.arange(first, min(stop + 1, count)) * step
        amps = np.sum(coeffs * np.exp(1j * np.multiply.outer(ts, thetas)), axis=-1)
        for i in _grid_peaks(np.abs(amps), threshold - 0.02):
            if not start <= i + first < stop:
                continue
            lo = max(ts[i] - step, step * 1e-9)
            hi = min(ts[i] + step, t_max)
            tau = _polish_peak(itheta, coeffs, slope, _golden_max(f, lo, hi), min(step, 1e-4))
            fid = f(tau)
            if fid >= threshold:
                return tau, min(fid, 1.0)
        start, size = stop, min(2 * size, cap)
    return None


def search_pst(sd, u, v, t_max=T_MAX_DEFAULT, threshold=THRESHOLD_DEFAULT):
    """Grid scan plus local refinement for the earliest time with
    |H(t)_{u,v}| >= threshold; returns None when nothing reaches it."""
    if not 0 < threshold < 1:
        raise ValueError("threshold must lie in (0, 1)")
    thetas = np.asarray(sd.eigenvalues)
    coeffs = sd.idempotents[:, u, v].astype(complex)
    hit = _search_amplitude(thetas, coeffs, t_max, threshold, sd.spectral_radius)
    if hit is None:
        return None
    tau, fid = hit
    amp = _amplitude(thetas, coeffs, tau)
    return PstEvent(u=u, v=v, tau=float(tau), gamma=complex(amp / abs(amp)),
                    fidelity=float(fid))


# Largest deviation that ``verify_pst_event`` accepts in each structural check.
_VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class PstVerification:
    """Structural checks of a PST event against the spectral decomposition."""

    maps_u_to_v: bool
    maps_v_to_u: bool
    periodic_u: bool
    periodic_v: bool
    diag_phase_matches: bool
    sign_pattern: tuple  # (support index, +1 or -1) pairs
    f_plus_f_minus_zero: bool
    f_plus_nonzero: bool
    f_minus_nonzero: bool

    @property
    def passed(self):
        return all((
            self.maps_u_to_v, self.maps_v_to_u, self.periodic_u, self.periodic_v,
            self.diag_phase_matches, self.f_plus_f_minus_zero,
            self.f_plus_nonzero, self.f_minus_nonzero,
        ))


def verify_pst_event(sd, event, support_tolerance=SUPPORT_TOL_DEFAULT):
    """Re-verify a PST event: swap action, period 2*tau, and the signed
    idempotent split F+ / F- with F+ F- = 0."""
    u, v, tau, gamma = event.u, event.v, event.tau, event.gamma
    h = transition_matrix(sd, tau)
    if abs(h[v, u]) < event.fidelity - 1e-6:
        raise ValueError("event fails re-verification against this decomposition")
    swap = h[:, [u, v]]  # columns u and v of H(tau), less gamma e_v and gamma e_u
    swap[[v, u], [0, 1]] -= gamma
    maps_u_to_v, maps_v_to_u = np.abs(swap).max(axis=0) < _VERIFY_TOL
    h2 = transition_matrix(sd, 2 * tau)
    periodic_u = abs(abs(h2[u, u]) - 1) < _VERIFY_TOL
    periodic_v = abs(abs(h2[v, v]) - 1) < _VERIFY_TOL
    diag_phase_matches = abs(h2[u, u] - gamma**2) < _VERIFY_TOL

    signs = [(r, 1 if (np.exp(1j * sd.eigenvalues[r] * tau) / gamma).real >= 0 else -1)
             for r in supports_stack([sd], support_tolerance)[0][u]]
    f_plus = sum(sd.idempotents[r] for r, s in signs if s == 1)
    f_minus = sum(sd.idempotents[r] for r, s in signs if s == -1)
    plus_nonzero = any(s == 1 for _, s in signs)
    minus_nonzero = any(s == -1 for _, s in signs)
    prod_zero = not (plus_nonzero and minus_nonzero) or bool(
        np.max(np.abs(f_plus @ f_minus)) < _VERIFY_TOL)
    return PstVerification(
        maps_u_to_v=maps_u_to_v,
        maps_v_to_u=maps_v_to_u,
        periodic_u=periodic_u,
        periodic_v=periodic_v,
        diag_phase_matches=diag_phase_matches,
        sign_pattern=tuple(signs),
        f_plus_f_minus_zero=prod_zero,
        f_plus_nonzero=plus_nonzero,
        f_minus_nonzero=minus_nonzero,
    )


# ---------------------------------------------------------------------------
# Arithmetic conditions

@dataclass(frozen=True)
class SupportClass:
    """Arithmetic type of an eigenvalue support: all integers, all of the form
    (a + b_i sqrt(delta))/2, or neither."""

    kind: str  # "Integer" | "Quadratic" | "Neither"
    a: int = None
    delta: int = None
    b_values: tuple = None


def period_candidate(support_class):
    """Closed-form period of a vertex with this support class: 2*pi for an
    integer support, 2*pi/sqrt(delta) for a quadratic one with a = 0, else
    None."""
    if support_class.kind == "Integer":
        return 2 * math.pi
    if support_class.kind == "Quadratic" and support_class.a == 0:
        return 2 * math.pi / math.sqrt(support_class.delta)
    return None


def squarefree_part(m):
    """m over its largest square divisor, for a positive integer m."""
    if m <= 0:
        raise ValueError("need a positive integer")
    out, d = 1, 2
    while d * d <= m:
        while m % (d * d) == 0:
            m //= d * d
        if m % d == 0:
            m, out = m // d, out * d
        d += 1
    return out * m


# Dyadic precision of the root guard: a support value passes only when a root
# of psi provably lies within 2**(1 - _GUARD_BITS) of it.
_GUARD_BITS = 30

# The unit roundoff of float64.
_UNIT = 2.0**-53

# Fewest values on which the root guard runs its float stage: below this its
# fixed cost, some tens of microseconds, exceeds that of the exact stage on
# every value of a small graph (a pair report, the smallest scan stacks).
_FLOAT_STAGE_VALUES = 16


def _float_signs(table, points):
    """The float stage of the root guard: the sign of the polynomial of
    each row of ``table`` (exact float64 coefficients in descending powers,
    zero-padded on the left) at each point of the same row of ``points``,
    by one float64 Horner run over all rows, and whether that sign is
    certain.

    With exact coefficients c_j and an exact point y, the computed value
    differs from p(y) by at most gamma_2d * S, d the degree (here the
    widest row's), S = sum |c_j| |y|**j and gamma_k = k u / (1 - k u), u
    the unit roundoff (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 5.1).  S comes from a second Horner run,
    on the |c_j| at |y|, which underestimates it by at most the factor
    1 - gamma_2d.  A sign is certain when the value is finite and its
    magnitude exceeds gamma_2d / (1 - gamma_2d) * S-hat, rounded up, plus
    2**-1000 for any underflow; both runs share one array."""
    k = 2 * (table.shape[1] - 1)
    gamma = k * _UNIT / (1 - k * _UNIT)
    ends = points.shape[1]
    coeffs = np.repeat(np.stack([table.T, abs(table.T)], axis=2), ends, axis=2)
    both = np.concatenate([points, abs(points)], axis=1)
    acc = np.zeros(both.shape)
    for c in coeffs:  # (rows, 2 * ends) per power
        acc *= both
        acc += c
    value, size = acc[:, :ends], acc[:, ends:]
    bound = gamma / (1 - gamma) * (1 + 2.0**-40) * size + 2.0**-1000
    return np.sign(value), np.isfinite(value) & np.isfinite(size) & (abs(value) > bound)


def _exact_signs(coeffs, ms):
    """The exact stage of the root guard: the product of the signs of
    2**(B*d) p(x / 2**B), B = _GUARD_BITS, at x = m - 1 and m + 1 for each
    integer m of ``ms``, by Horner's rule in integers on the coefficients
    c_i 2**(B*i), shifted once for all m."""
    shifted = [c << (_GUARD_BITS * i) for i, c in enumerate(coeffs)]
    out = []
    for m in ms:
        lo = hi = 0
        for c in shifted:
            lo = lo * (m - 1) + c
            hi = hi * (m + 1) + c
        out.append(((lo > 0) - (lo < 0)) * ((hi > 0) - (hi < 0)))
    return out


def _guard(psis, rows, values):
    """For each float of the list ``values``, whether the squarefree integer
    polynomial psis[rows[i]] is zero at an end of, or changes sign across,
    the dyadic interval [m - 1, m + 1] / 2**B that holds it (m the nearest
    integer to v * 2**B, B = _GUARD_BITS); either proves a root in it, as a
    list of bools.  On a stack of at least ``_FLOAT_STAGE_VALUES`` values
    the signs at the ends come from one ``_float_signs`` run over every
    value whose polynomial has coefficients exact in float64 (|c| <= 2**53)
    and whose ends are exact (|m| < 2**52), where it is certain at both
    ends, and from ``_exact_signs`` on the values it leaves undecided, so
    the verdicts are those of exact arithmetic."""
    signs = {}  # value index -> the product of the signs at its ends
    exact = ([max(map(abs, psi), default=0) <= _FLOAT64_EXACT for psi in psis]
             if len(values) >= _FLOAT_STAGE_VALUES else [])
    if any(exact):
        at = np.array(rows, dtype=np.intp)
        m = np.rint(np.array(values) * 2.0**_GUARD_BITS)
        floats = np.flatnonzero(np.array(exact)[at] & (abs(m) < 2.0**52))
        if len(floats):
            width = max(map(len, psis))
            table = np.array([(0,) * (width - len(psi)) + psi if ok else (0,) * width
                              for psi, ok in zip(psis, exact)], dtype=float)
            sign, certain = _float_signs(
                table[at[floats]], (m[floats, None] + [-1, 1]) / 2.0**_GUARD_BITS)
            sure = certain.all(axis=1)
            signs = dict(zip(floats[sure].tolist(), (sign[sure, 0] * sign[sure, 1]).tolist()))
    by_row = {}  # row -> its values with an undecided end
    for i, r in enumerate(rows):
        if i not in signs:
            by_row.setdefault(r, []).append(i)
    for r, at in by_row.items():
        signs.update(zip(at, _exact_signs(psis[r], [round(values[i] * 2**_GUARD_BITS)
                                                    for i in at])))
    return [signs[i] <= 0 for i in range(len(values))]


def _root_masks(coeffs, points, valid):
    """The distinct entries where ``valid`` of each row of the int64 array
    ``points`` (|x| < 2**62), sorted, the others 0, and whether each is a
    root of the integer polynomial of the same row of ``coeffs``: one Horner
    run, in int64 when c w x**w < 2**63 (c the largest |coefficient|, w the
    width, x the largest |point|) bounds every partial value."""
    points = np.sort(np.where(valid, points, 2**62), axis=1)
    distinct = points != 2**62
    distinct[:, 1:] &= points[:, 1:] != points[:, :-1]
    points = np.where(distinct, points, 0)
    width = coeffs.shape[1]
    top = int(abs(coeffs).max(initial=0)) * width * max(int(abs(points).max(initial=0)), 1)**width
    kind = np.int64 if top < 2**63 else object
    x, acc = points.astype(kind), np.zeros(points.shape, dtype=kind)
    for c in coeffs.astype(kind).T:
        acc = acc * x + c[:, None]
    return points, distinct & (acc == 0)


def _classes(psis, candidates):
    """The class of the root set of each squarefree monic integer polynomial
    psis[i], all rows at once.  The floats of candidates[i], a row of a
    NaN-padded array such as a graph's distinct eigenvalues, are only
    candidates for its roots; every acceptance is exact, so a missed root
    could only give a wrong Neither.  Integer when d = deg psi distinct
    rounded candidates are roots.  Else a = -2 c_1 / d must be an integer
    and P(s) = 2**d psi((s + a) / 2), from one Taylor shift, must be
    s**(d mod 2) Q(s**2), where Q has deg Q roots w among the positive
    rounded (2x - a)**2 of the candidates x, all b**2 delta with one
    squarefree delta > 1: psi is Quadratic(a, delta, the b = +-sqrt(w /
    delta), and 0 for odd d, in descending order).  Else Neither."""
    width = max(map(len, psis))
    c = np.array([(0,) * (width - len(psi)) + psi for psi in psis], dtype=object)
    degree = np.array([len(psi) - 1 for psi in psis])
    x = np.asarray(candidates, dtype=float)
    ok = abs(x) < 2.0**52
    x = np.where(ok, x, 0)
    integer = _root_masks(c, np.rint(x).astype(np.int64), ok)[1].sum(axis=1)
    kinds = [SupportClass(kind="Neither"), SupportClass(kind="Integer")]
    out = [kinds[i] for i in (integer == degree).tolist()]
    twice = np.array([-2 * psi[1] if len(psi) > 1 else 0 for psi in psis], dtype=object)
    rows = np.flatnonzero((integer != degree) & (twice % np.maximum(degree, 1) == 0))
    if not len(rows):
        return out
    c, x, ok, degree, a = c[rows], x[rows], ok[rows], degree[rows], twice[rows] // degree[rows]
    # 2**lead P(s) = sum_k 2**k c_k (s + a)**(width - 1 - k), lead the
    # leading coefficient's column, by Horner's rule in s + a: every
    # partial value is below max|c| 2**width width (|a| + 1)**width
    top = int(abs(c).max()) * 2**width * width * (int(abs(a).max()) + 1)**width
    kind = np.int64 if top < 2**63 else object
    p = (c * 2 ** np.arange(width).astype(object)).astype(kind)  # P for a = 0
    moved, a = np.flatnonzero(a != 0), a.astype(kind)
    shifted = np.zeros((len(moved), width), dtype=kind)
    for r in p[moved].T if len(moved) else ():
        shifted[:, :-1] = shifted[:, 1:] + a[moved, None] * shifted[:, :-1]
        shifted[:, -1] = a[moved] * shifted[:, -1] + r
    p[moved] = shifted
    # times s when lead is odd, every power has the parity of width - 1, the
    # even columns hold Q (times a power of w) and the odd ones are zero
    p = np.where(((width - 1 - degree) % 2 == 1)[:, None], np.roll(p, -1, axis=1), p)
    even = (p[:, 1::2] == 0).all(axis=1)
    rows, p, x, ok, a, degree = rows[even], p[even], x[even], ok[even], a[even], degree[even]
    if not len(rows):
        return out
    w = np.rint((2 * x - a.astype(float)[:, None]) ** 2)
    fits = ok & (w > 0) & (w < 2.0**62)
    points, roots = _root_masks(p[:, ::2], np.where(fits, w, 0).astype(np.int64), fits)
    full = roots.sum(axis=1) == degree // 2
    for i, a_i, d, row, found in zip(rows[full].tolist(), a[full].tolist(),
                                     degree[full].tolist(), points[full], roots[full]):
        squares = row[found].tolist()
        deltas = {squarefree_part(m) for m in squares}
        if len(deltas) == 1 and 1 not in deltas:
            delta, = deltas
            bs = {math.isqrt(m // delta) for m in squares} | ({0} if d % 2 else set())
            out[i] = SupportClass(kind="Quadratic", a=int(a_i), delta=delta,
                                  b_values=tuple(sorted(bs | {-b for b in bs}, reverse=True)))
    return out


def classify_support(psi, eigenvalues):
    """Classify the root set of ``psi``, a squarefree monic integer
    polynomial (coefficients in descending powers) such as the minimal
    polynomial psi_u of e_u, whose roots are u's eigenvalue support, as
    Integer / Quadratic / Neither (``_classes`` of a stack of one).  The
    floats ``eigenvalues``, such as the graph's distinct eigenvalues, are
    only candidates for the roots; every acceptance is exact."""
    psi = tuple(psi)
    if not psi or psi[0] != 1:
        raise ValueError("psi must be monic")
    return _classes([psi], np.array([eigenvalues], dtype=float).reshape(1, -1))[0]


# How close a float must be to an integer for rho_squared_integer to test
# that integer.
_NEAR_INT_TOL = 1e-8


def rho_squared_integer(sd, phi):
    """True iff the squared spectral radius is an integer, verified exactly
    against ``phi``, the characteristic polynomial as a coefficient tuple."""
    rho = sd.spectral_radius
    r2 = rho * rho
    m = round(r2)
    if abs(r2 - m) > _NEAR_INT_TOL:
        return False
    if abs(rho - round(rho)) < _NEAR_INT_TOL:
        return poly_eval(phi, round(rho)) == 0
    # rho = sqrt(m) with m no square (an integer rho is caught above), so
    # t^2 - m is irreducible and shares a root with phi only when it divides it
    return poly_divides([1, 0, -m], phi)


# ---------------------------------------------------------------------------
# Aggregated pipeline

@dataclass(frozen=True)
class TransferReport:
    """Every necessary-condition verdict for a vertex pair, plus any numeric
    PST event (all conditions evaluated, no short-circuiting)."""

    u: int
    v: int
    n: int
    cospectral: bool
    equal_supports: bool
    sign_condition: bool
    ratio_condition: bool
    support_class: SupportClass
    rho_squared_is_integer: bool
    delta_partition_equal: bool
    v_singleton_in_delta_u: bool
    controllable_u: bool
    controllable_v: bool
    stabilizer_equal: bool  # None when n exceeds the brute-force cap
    gap: object
    pst_found: PstEvent = None
    verification: PstVerification = None

    @property
    def controllability_ok(self):
        # controllability only forbids PST on >= 4 vertices
        if self.n < 4:
            return True
        return not (self.controllable_u or self.controllable_v)

    def verdicts(self):
        out = {
            "cospectral": self.cospectral,
            "equal_supports": self.equal_supports,
            "sign_condition": self.sign_condition,
            "ratio_condition": self.ratio_condition,
            "support_class_not_neither": self.support_class.kind != "Neither",
            "rho_squared_integer": self.rho_squared_is_integer,
            "delta_partition_equal": self.delta_partition_equal,
            "controllability": self.controllability_ok,
        }
        if self.stabilizer_equal is not None:
            out["automorphism_stabilizer_equal"] = self.stabilizer_equal
        return out

    @property
    def all_pass(self):
        return all(self.verdicts().values())


# Most idempotent entries that each float temporary of a ``signs_stack``
# block holds: a block gathers this many entries over n of its rows.
_SIGN_BLOCK_ENTRIES = 2**18


def signs_stack(sds, pairs, support_tolerance):
    """Strong cospectrality of every pair (u, v) of pairs[i] of sds[i], all
    of one vertex count, as a dict per decomposition: min(max|x - y|,
    max|x + y|) < 1e-7 on every r in the support of u or of v
    (``support_mask``), x and y the columns u and v of E_r.  Each (pair, r)
    is a row; the rows run in blocks of ``_SIGN_BLOCK_ENTRIES`` // n, and a
    pair that a block boundary cuts fails if either part does."""
    idems, mask = support_mask(sds, support_tolerance)
    sizes = np.array([len(sd.eigenvalues) for sd in sds])
    graph = np.repeat(np.arange(len(sds)), [len(p) for p in pairs])
    u, v = np.array([p for ps in pairs for p in ps], dtype=np.intp).reshape(-1, 2).T
    ends = np.cumsum(sizes[graph])  # each pair's rows end here
    shift = np.cumsum(sizes)[graph] - ends  # a row's number to its cluster row
    bad = np.zeros(len(u), dtype=bool)
    total = int(ends[-1]) if len(ends) else 0
    step = max(1, _SIGN_BLOCK_ENTRIES // idems.shape[-1])
    for start in range(0, total, step):
        rows = np.arange(start, min(start + step, total))
        p = np.searchsorted(ends, rows, side="right")
        r = rows + shift[p]
        keep = mask[r, u[p]] | mask[r, v[p]]
        p, r = p[keep], r[keep]
        if len(p):
            x, y = idems[r, :, u[p]], idems[r, :, v[p]]
            fail = ~(np.minimum(abs(x - y).max(axis=1), abs(x + y).max(axis=1)) < 1e-7)
            heads = np.flatnonzero(np.diff(p, prepend=-1))
            bad[p[heads]] |= np.logical_or.reduceat(fail, heads)
    ok = iter((~bad).tolist())
    return [{pair: next(ok) for pair in ps} for ps in pairs]


def _guards_stack(datas, keys):
    """The root guard of every (support, psi_u) of keys[i] of datas[i], as a
    dict per graph: None, or the ValueError of its first value that fails;
    one ``_guard`` run over the stack, each distinct psi one row of it."""
    psis, rows, values, ends = {}, [], [], []
    for d, ks in zip(datas, keys):
        eigenvalues = d.sd.eigenvalues.tolist()
        for support, psi in ks:
            values += [eigenvalues[r] for r in support]
            rows += [psis.setdefault(psi, len(psis))] * len(support)
            ends.append(len(values))
    out = [None] * len(ends)
    for i in [i for i, ok in enumerate(_guard(list(psis), rows, values)) if not ok]:
        k = bisect.bisect_right(ends, i)
        out[k] = out[k] or ValueError(f"value {values[i]} is not a root of the polynomial")
    found = iter(out)
    return [{key: next(found) for key in ks} for ks in keys]


def _classes_stack(datas, keys):
    """The class of every polynomial of keys[i] of datas[i], as a dict per
    graph: one ``_classes`` run, with each graph's distinct eigenvalues."""
    eigenvalues = [d.sd.eigenvalues for d in datas]
    sizes = np.array([len(e) for e in eigenvalues])
    table = np.full((len(datas), sizes.max()), np.nan)
    table[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate(eigenvalues)
    found = iter(_classes([psi for ks in keys for psi in ks],
                          table[[i for i, ks in enumerate(keys) for _ in ks]]))
    return [{psi: next(found) for psi in ks} for ks in keys]


def _reports_stack(datas, pairs):
    """The ``TransferReport`` of every pair (u, v) of pairs[i] of datas[i],
    all of one vertex count, whose Delta_u, psi_u and sign condition are
    cached, as a dict per graph, or the ValueError of u's root guard
    (one ``_guards_stack`` run).  Equal supports are psi_u = psi_v, the
    supports being their root sets.  The ratio condition, that every
    (theta_k - theta_l) / (theta_r - theta_s) over the common support, the
    roots of h = gcd(psi_u, psi_v), be rational, holds iff deg h < 2 or h is
    not Neither (Godsil, "Periodic graphs", 2011); h is psi_u when psi_u =
    psi_v, as on every cospectral pair, else from one ``poly_gcds`` run."""
    n = datas[0].g.n
    psis = [d._cache["psi"] for d in datas]
    # per graph: u -> its support and psi_u, the key of its root guard
    owns = [{u: (d.supports[u], psi[u]) for u, _ in ps} for d, ps, psi in zip(datas, pairs, psis)]
    unequal = [(i, u, v) for i, (ps, psi) in enumerate(zip(pairs, psis))
               for u, v in ps if psi[u] != psi[v]]
    commons = [{} for _ in datas]  # per graph: unequal pair -> gcd(psi_u, psi_v)
    if unequal:
        rows = np.array([(0,) * (n + 1 - len(psis[i][w])) + psis[i][w]
                         for i, u, v in unequal for w in (u, v)], dtype=object)
        gcds, _ = poly_gcds(rows[0::2], rows[1::2])
        for (i, u, v), h in zip(unequal, gcds.tolist()):
            commons[i][u, v] = tuple(poly_trim(h))
    guards = _guards_stack(datas, [set(own.values()) for own in owns])
    memos = _fill("classes", datas, [[psi for _, psi in own.values()]
                                     + [h for h in common.values() if len(h) > 2]
                                     for own, common in zip(owns, commons)])
    out = []
    for d, ps, psi, own, common, memo, guard in zip(datas, pairs, psis, owns, commons, memos,
                                                     guards):
        deltas, signs = d._cache["deltas"], d._cache["signs"]
        deleted, rho, gap = d.char_polys[1], d.rho_squared_is_integer, d.gap
        holds = lambda h: len(h) < 3 or memo[h].kind != "Neither"  # the ratio condition
        classes = {u: (guard[key], memo[key[1]], holds(key[1])) for u, key in own.items()}
        found = {}
        for u, v in ps:
            error, support_class, ratio = classes[u]
            if error is not None:
                found[u, v] = _vertex_error(u, d.config, error)
                continue
            equal = (u, v) not in common
            found[u, v] = TransferReport(
                u=u, v=v, n=n,
                cospectral=deleted[u] == deleted[v],
                equal_supports=equal,
                sign_condition=signs[u, v],
                ratio_condition=ratio if equal else holds(common[u, v]),
                support_class=support_class,
                rho_squared_is_integer=rho,
                delta_partition_equal=deltas[u] == deltas[v],
                v_singleton_in_delta_u=deltas[u].count(v) == 1,
                controllable_u=len(psi[u]) - 1 == n,
                controllable_v=len(psi[v]) - 1 == n,
                stabilizer_equal=None,
                gap=gap,
            )
        out.append(found)
    return out


def _vertex_error(u, config, exc):
    """A root-guard failure of u's support, naming u and the support tolerance."""
    return ValueError(f"vertex {u}, support tolerance {config.support_tolerance}: {exc}")


def _fill(name, datas, keys):
    """Cache ``name`` of the keys[i] of every ``GraphData`` datas[i], all of
    one vertex count unless ``name`` is "classes", from one stacked kernel
    run over those not cached yet; returns the caches.  The keys are
    vertices for "deltas" (label rows) and "psi", vertex pairs for "signs"
    and "reports", and polynomials, psi_u or a gcd of two, for "classes"."""
    memos = [d._cache.setdefault(name, {}) for d in datas]
    todo = [(m, sorted(set(k) - m.keys()), d) for d, m, k in zip(datas, memos, keys)]
    todo = [t for t in todo if t[1]]
    if todo:
        memos_, missing, owners = zip(*todo)
        if name == "deltas":
            facts = partitions.delta_stack([d.g for d in owners], missing)
        elif name == "psi":
            facts = walkalg.minimal_polys_stack([d.char_rows for d in owners], missing)
        elif name == "signs":
            facts = signs_stack([d.sd for d in owners], missing,
                                owners[0].config.support_tolerance)
        elif name == "classes":
            facts = _classes_stack(owners, missing)
        else:
            facts = _reports_stack(owners, missing)
        for memo, found in zip(memos_, facts):
            memo.update(found)
    return memos


def _fill_pairs(datas, pairs):
    """Cache Delta_u and psi_u of both vertices and the sign condition of
    every pair of the list pairs[i] of datas[i], all of one vertex count."""
    for name in ("deltas", "psi"):
        _fill(name, datas, [{w for pair in p for w in pair} for p in pairs])
    _fill("signs", datas, pairs)


def _set(datas, name, stack, of="g"):
    """Set the cached property ``name`` of the ``datas`` that lack it, from
    one run of ``stack`` over their graphs, or their attribute ``of``."""
    todo = [d for d in datas if name not in vars(d)]
    for d, value in zip(todo, stack([getattr(d, of) for d in todo]) if todo else ()):
        vars(d)[name] = value


def fill_stacked(datas, pairs):
    """The facts ``scan`` needs of every ``GraphData`` d of ``datas`` (one
    config, one scan chunk), facts already known left out, by one run of
    each stacked kernel per vertex count: connectivity and the decomposition
    of d with a vertex (unless connected above the cap, an error); for d
    connected within the cap with n >= 2, every support, phi and every
    phi(G - u) (``char_rows``), and, for the vertex pairs ``pairs(d)``,
    Delta_u and psi_u of their vertices and their sign condition.  Then one
    class pass over psi_u of every pair's u in the chunk, and last the
    reports, by one verdict pass (``_reports_stack``) per vertex count.  A
    support value that fails the root guard is kept as the error of its
    pairs, which ``report`` raises, so the other graphs' facts stay whole."""
    ready = []  # (graphs of one vertex count, their pairs) that get reports
    for n, group in itertools.groupby(sorted(datas, key=lambda d: d.g.n), lambda d: d.g.n):
        group, config = list(group), datas[0].config
        if n < 1:
            continue
        _set(group, "connected", connected_stack)
        group = [d for d in group if not (d.connected and n > config.exact_cap)]
        _set(group, "sd", lambda graphs: decompose_stack(graphs, config.grouping_tolerance))
        group = [d for d in group if d.connected and n >= 2]
        if group:
            _set(group, "supports", lambda sds: supports_stack(sds, config.support_tolerance),
                 of="sd")
            _set(group, "char_rows", lambda graphs: char_polys(graphs, config.exact_cap))
            ready.append((group, [pairs(d) for d in group]))
            _fill_pairs(*ready[-1])
    _fill("classes", [d for group, _ in ready for d in group],
          [[d._cache["psi"][u] for u, _ in p] for group, ps in ready for d, p in zip(group, ps)])
    for group, ps in ready:
        _fill("reports", group, ps)


class GraphData:
    """Every fact the commands derive from one graph, each computed once, on
    first use: the decomposition, phi, every phi(G - u), the gap and
    rho^2-integrality; every vertex's support; per vertex Delta_u (as a
    label row) and the minimal polynomial psi_u of e_u, whose degree gives
    controllability; per vertex pair the sign condition and the report;
    per polynomial, psi_u or the gcd of two, the class of its root set.
    Each comes from a stacked kernel, for all the vertices or pairs a view
    asks for at once (``deltas``, ``minimal_polys``, ``support_classes``),
    and only what is not yet known is run, in stacked runs over many graphs
    (``fill_stacked``) or over a stack of one.

    The verdict pass (``_reports_stack``) is the one place where the
    necessary conditions for a vertex pair become verdicts; ``report``
    reads it, and ``pair`` adds the checks that only a single-pair report
    runs.
    """

    def __init__(self, g, config=AnalysisConfig()):
        self.g = g
        self.config = config
        self._cache = {}

    @functools.cached_property
    def sd(self):
        return decompose(self.g, self.config.grouping_tolerance)

    @functools.cached_property
    def char_rows(self):
        """(phi, every phi(G - u)) as integer rows, from one Faddeev-LeVerrier run."""
        return char_polys([self.g], self.config.exact_cap)[0]

    @functools.cached_property
    def char_polys(self):
        """(phi, (phi(G - u) for every u)) as tuples of Python ints."""
        phi, deleted = self.char_rows
        return tuple(phi.tolist()), tuple(map(tuple, deleted.tolist()))

    @property
    def phi(self):
        return self.char_polys[0]

    @functools.cached_property
    def gap(self):
        return gap_report(self.sd) if self.g.n >= 2 else None

    @functools.cached_property
    def rho_squared_is_integer(self):
        return rho_squared_integer(self.sd, self.phi)

    @functools.cached_property
    def connected(self):
        return self.g.is_connected()

    def cospectral(self, u, v):
        """phi(G - u) = phi(G - v), coefficient-wise, for distinct vertices."""
        _check_pair(self.g.n, u, v)
        deleted = self.char_polys[1]
        return deleted[u] == deleted[v]

    @functools.cached_property
    def cospectral_pairs(self):
        deleted = self.char_polys[1]
        return [(u, v) for u, v in itertools.combinations(range(self.g.n), 2)
                if deleted[u] == deleted[v]]

    @functools.cached_property
    def supports(self):
        """Per vertex u, the sorted indices of the eigenvalues in its support."""
        return supports_stack([self.sd], self.config.support_tolerance)[0]

    def values(self, support):
        return [float(self.sd.eigenvalues[r]) for r in support]

    def deltas(self, roots):
        """Delta_u of every u of ``roots``, as a new dict of Partitions in
        their order, built from the cached label rows."""
        roots = list(roots)
        memo = _fill("deltas", [self], [roots])[0]
        return {u: partitions.Partition.from_labels(memo[u]) for u in roots}

    def minimal_polys(self, roots):
        """psi_u, of degree rank W_u, of every u of ``roots``, as a new dict in their order."""
        roots = list(roots)
        memo = _fill("psi", [self], [roots])[0]
        return {u: memo[u] for u in roots}

    def support_classes(self, psis):
        """The class of psis[u], u's minimal polynomial, of every vertex u of
        the dict ``psis``, as a new dict in its order; a ValueError names
        the first u with a support value that fails the root guard."""
        keys = {u: (self.supports[u], tuple(psi)) for u, psi in psis.items()}
        guard, = _guards_stack([self], [set(keys.values())])
        for u, key in keys.items():
            if guard[key] is not None:
                raise _vertex_error(u, self.config, guard[key])
        memo = _fill("classes", [self], [[psi for _, psi in keys.values()]])[0]
        return {u: memo[psi] for u, (_, psi) in keys.items()}

    def report(self, u, v):
        """Every necessary-condition verdict for PST from u to v, except the
        brute-force stabilizer check, which ``pair`` adds: the pair's entry
        of the verdict pass (``_reports_stack``), run as a stack of one
        unless ``fill_stacked`` or an earlier call cached it."""
        _check_pair(self.g.n, u, v)
        memo = self._cache.get("reports")
        if memo is None or (u, v) not in memo:
            _fill_pairs([self], [[(u, v)]])
            memo = _fill("reports", [self], [[(u, v)]])[0]
        found = memo[u, v]
        if isinstance(found, ValueError):
            raise ValueError(str(found))
        return found

    def pair(self, u, v):
        """``report`` on a checked pair, plus the Gram cross-check of
        cospectrality, the brute-force stabilizer check within its cap and,
        when every verdict passes (as in ``scan``), the numeric time search
        and the verification of any event it finds."""
        g, config = self.g, self.config
        _check_pair(g.n, u, v)
        if not self.connected:
            raise ValueError("necessary-condition pipeline requires a connected graph")
        report = self.report(u, v)
        if walkalg.cospectral_via_gram(g, u, v, cap=config.exact_cap) != report.cospectral:
            raise walkalg.InternalCheckError(
                f"cospectrality routes disagree on pair ({u}, {v})"
            )
        if g.n <= config.brute_force_cap:
            report = replace(report, stabilizer_equal=partitions.stabilizers_equal(
                g, u, v, n_cap=config.brute_force_cap))
        if report.all_pass:
            event = search_pst(self.sd, u, v, t_max=config.t_max, threshold=config.threshold)
            if event is not None:
                report = replace(report, pst_found=event, verification=verify_pst_event(
                    self.sd, event, config.support_tolerance))
        return report


def _check_pair(n, u, v):
    """ValueError unless u and v are distinct vertices of 0 .. n - 1."""
    if not (0 <= u < n and 0 <= v < n) or u == v:
        raise ValueError(f"invalid vertex pair ({u}, {v}) for n={n}")
