import functools
import io
import itertools
import json
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qwalk as q
from qwalk.analysis import squarefree_part
from qwalk.polys import poly_eval, poly_gcd

from conftest import (as_tuples, poly_divmod, random_connected_graphs, random_graphs,
                      ratio_condition, reconstruct_rational)
from oracles import (check_periodicity, class_by_factoring, finiteness_bound, near_root_reference,
                     poly_degree)
from test_acceptance import REPORT_GRAPHS

SQRT2 = math.sqrt(2)
SQRT5 = math.sqrt(5)
P4_EIGS = [(1 + SQRT5) / 2, (-1 + SQRT5) / 2, (1 - SQRT5) / 2, (-1 - SQRT5) / 2]


def psi(g, u):
    """The minimal polynomial psi_u of e_u, which classify_support takes."""
    return q.GraphData(g).minimal_polys([u])[u]


def near_roots(coeffs, values):
    """The root guard (``analysis._guard``) of the floats ``values`` against
    the one polynomial ``coeffs``, as a list of bools."""
    values = [float(v) for v in values]
    return q.analysis._guard([tuple(coeffs)], [0] * len(values), values)


def root_values(data, coeffs):
    """The distinct eigenvalues of ``data`` that pass the root guard against
    ``coeffs``: the exact root set, as floats."""
    eigenvalues = data.values(range(len(data.sd.eigenvalues)))
    return [x for x, near in zip(eigenvalues, near_roots(coeffs, eigenvalues))
            if near]


class TestFidelity:
    def test_p2_at_pi_half(self):
        sd = q.decompose(q.path(2))
        assert q.fidelity(sd, 0, 1, math.pi / 2) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_at_zero(self):
        sd = q.decompose(q.petersen())
        assert q.fidelity(sd, 4, 4, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_p3_ends(self):
        sd = q.decompose(q.path(3))
        assert q.fidelity(sd, 0, 2, math.pi / SQRT2) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        sd = q.decompose(q.parse_graph6("GSv~Sc"))
        for t in (0.4, 1.9, 3.7):
            assert q.fidelity(sd, 1, 5, t) == q.fidelity(sd, 5, 1, t)


class TestSearchPst:
    def test_p3_ends(self):
        sd = q.decompose(q.path(3))
        ev = q.search_pst(sd, 0, 2, t_max=10)
        assert ev is not None
        assert ev.tau == pytest.approx(math.pi / SQRT2, abs=1e-9)
        assert ev.fidelity >= 1 - 1e-9
        assert abs(ev.gamma - (-1)) < 1e-6

    def test_hypercube_antipodal(self):
        sd = q.decompose(q.hypercube(3))
        ev = q.search_pst(sd, 0, 7, t_max=10)
        assert ev.tau == pytest.approx(math.pi / 2, abs=1e-8)
        assert abs(abs(ev.gamma) - 1) < 1e-9

    def test_p4_ends_empty(self):
        sd = q.decompose(q.path(4))
        assert q.search_pst(sd, 0, 3, t_max=50, threshold=0.999) is None

    def test_bad_threshold(self):
        sd = q.decompose(q.path(2))
        with pytest.raises(ValueError):
            q.search_pst(sd, 0, 1, threshold=1.5)


class TestPeriodicity:
    def test_hypercube_period_pi(self):
        # integer eigenvalues with even gaps realign at pi already
        sd = q.decompose(q.hypercube(3))
        tau = check_periodicity(sd, 0, t_max=10)
        assert tau == pytest.approx(math.pi, abs=1e-8)

    def test_k1_reports_grid_minimum(self):
        sd = q.decompose(q.Graph.from_edges(1, []))
        tau = check_periodicity(sd, 0, t_max=5)
        assert tau is not None and 0 < tau < 0.1

    def test_p3_end(self):
        sd = q.decompose(q.path(3))
        tau = check_periodicity(sd, 0, t_max=10)
        assert tau == pytest.approx(math.pi * SQRT2, abs=1e-8)

    def test_candidate_tested_first(self):
        data = q.GraphData(q.path(3))
        sc = q.classify_support(data.phi, data.sd.eigenvalues)
        # candidate 2*pi/sqrt(2) beats the scan cap here
        tau = check_periodicity(data.sd, 0, t_max=1.0, support_class=sc)
        assert tau == pytest.approx(math.pi * SQRT2, abs=1e-9)


class TestVerifyPstEvent:
    def test_p2_structure(self):
        sd = q.decompose(q.path(2))
        ev = q.search_pst(sd, 0, 1, t_max=5)
        assert abs(ev.gamma - 1j) < 1e-8
        ver = q.verify_pst_event(sd, ev)
        assert ver.passed
        # F+ collects theta=1, F- collects theta=-1; both rank one
        assert ver.sign_pattern == ((0, 1), (1, -1))

    def test_p3_signs(self):
        sd = q.decompose(q.path(3))
        ev = q.search_pst(sd, 0, 2, t_max=5)
        ver = q.verify_pst_event(sd, ev)
        assert ver.passed
        # exp(i theta tau)/gamma at tau = pi/sqrt2: (+, -, +) on (sqrt2, 0, -sqrt2)
        assert ver.sign_pattern == ((0, 1), (1, -1), (2, 1))

    def test_diag_phase(self):
        sd = q.decompose(q.hypercube(4))
        ev = q.search_pst(sd, 0, 15, t_max=5)
        ver = q.verify_pst_event(sd, ev)
        assert ver.diag_phase_matches and ver.periodic_u and ver.periodic_v

    def test_near_miss_fails_without_raising(self):
        # a 0.9 threshold accepts P4's near transfer between its ends; the
        # event is real, so nothing raises, but no swap or period check holds
        sd = q.decompose(q.path(4))
        ev = q.search_pst(sd, 0, 3, threshold=0.9)
        assert ev.fidelity == pytest.approx(0.986, abs=1e-3)
        assert ev.tau == pytest.approx(2.81, abs=1e-2)
        ver = q.verify_pst_event(sd, ev)
        assert not (ver.maps_u_to_v or ver.maps_v_to_u or ver.periodic_u)
        assert not ver.passed

    def test_stale_event_rejected(self):
        sd = q.decompose(q.path(2))
        bogus = q.PstEvent(u=0, v=1, tau=0.3, gamma=1j, fidelity=1.0)
        with pytest.raises(ValueError):
            q.verify_pst_event(sd, bogus)


class TestRatioCondition:
    def test_sqrt2_multiples(self):
        assert ratio_condition([SQRT2, 0, -SQRT2]).holds

    def test_integers(self):
        assert ratio_condition([3.0, 1.0, -1.0, -3.0]).holds

    def test_p4_fails_with_witness(self):
        res = ratio_condition(P4_EIGS)
        assert not res.holds
        assert res.witness is not None and len(res.witness) == 4

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            ratio_condition([1.0])

    @settings(max_examples=50, deadline=None)
    @given(
        c=st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                       max_denominator=50).filter(lambda f: f != 0),
        d=st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                       max_denominator=50),
    )
    def test_affine_invariance(self, c, d):
        base = [SQRT2, 0.0, -SQRT2]
        mapped = [float(c) * v + float(d) for v in base]
        assert ratio_condition(mapped).holds == ratio_condition(base).holds

    def test_reconstruct_rational(self):
        assert reconstruct_rational(1 / 3) == Fraction(1, 3)
        assert reconstruct_rational(-7 / 8) == Fraction(-7, 8)
        assert reconstruct_rational(1 / (1 + SQRT5)) is None
        assert reconstruct_rational(math.pi) is None

    def test_report_verdict_is_the_reference(self, atlas_connected):
        # report reads the condition from the exact class of the common
        # support; the continued-fraction reference must agree on every pair
        # of the atlas graphs and on the reported pairs of the fixtures
        atlas = [q.GraphData(g) for graphs in atlas_connected.values() for g in graphs]
        fixtures = [q.GraphData(g) for g in REPORT_GRAPHS.values()]
        checked = failing = 0
        reference = {}  # common support values -> reference verdict
        for datas, pairs in [
            (atlas, lambda n: itertools.combinations(range(n), 2)),
            (fixtures, lambda n: {(0, n - 1), (0, 1), (1, n - 2)} - {(1, 1)}),
        ]:
            q.analysis.fill_stacked(datas, lambda d: list(pairs(d.g.n)))
            for data in datas:
                for u, v in pairs(data.g.n):
                    common = sorted(set(data.supports[u]) & set(data.supports[v]))
                    values = tuple(data.values(common))
                    if values not in reference:
                        reference[values] = len(values) < 2 or ratio_condition(values).holds
                    expected = reference[values]
                    assert data.report(u, v).verdicts()["ratio_condition"] == expected, (data.g, u, v)
                    checked += 1
                    failing += not expected
        assert (checked, failing) == (19869, 19176)


class TestClassifySupport:
    """classify_support classifies the exact root set of psi; the floats it
    takes are only candidates for the roots."""

    def test_hypercube_integer(self):
        g = q.hypercube(3)
        sc = q.classify_support(psi(g, 0), q.decompose(g).eigenvalues)
        assert sc.kind == "Integer"

    def test_p3_quadratic(self):
        sc = q.classify_support(q.GraphData(q.path(3)).phi, [SQRT2, 0.0, -SQRT2])
        assert sc.kind == "Quadratic"
        assert sc.a == 0 and sc.delta == 2
        assert sc.b_values == (Fraction(2), Fraction(0), Fraction(-2))

    def test_p4_neither(self):
        sc = q.classify_support(q.GraphData(q.path(4)).phi, P4_EIGS)
        assert sc.kind == "Neither"

    def test_non_root_rejected(self):
        # the root guard, not the class, rejects a value that is no root
        assert near_roots(q.GraphData(q.path(3)).phi, [0.77]) == [False]

    def test_near_root_rejected(self):
        # the guard is exact: a value 1e-6 off sqrt(2) is not a root
        phi = q.GraphData(q.path(3)).phi
        assert near_roots(phi, [SQRT2 + 1e-6, SQRT2]) == [False, True]

    def test_repeated_roots_accepted(self):
        # K6 has -1 five times in phi, once in psi_0 = (t - 5)(t + 1); float
        # root finding scatters it by ~1e-3, and a candidate 2e-16 off still
        # rounds to the root
        g = q.complete(6)
        assert psi(g, 0) == (1, -4, -5)
        assert q.classify_support(psi(g, 0), [5.0, -1.0000000000000002]).kind == "Integer"

    def test_missing_candidate_gives_neither(self):
        # every acceptance is exact: without a candidate near a root the
        # class can only fall to Neither, never to a wrong Integer or
        # Quadratic
        phi = q.GraphData(q.path(3)).phi
        # one of a conjugate pair suffices, as (2x - a)^2 is their square
        assert q.classify_support(phi, [-SQRT2, 0.0]).kind == "Quadratic"
        assert q.classify_support(phi, [0.0, 1.0]).kind == "Neither"
        assert q.classify_support(psi(q.complete(6), 0), [5.0, 0.4]).kind == "Neither"

    @pytest.mark.parametrize("coeffs,kind", [
        ((1,), "Integer"),  # psi = 1, an empty support
        ((1, -3), "Integer"),
        ((1, -1, -1), "Quadratic"),  # (1 +- sqrt 5) / 2: a = 1, Delta = 5
        ((1, 0, -3, -1), "Neither"),  # 2 cos(2 pi k / 9), a cubic field
        ((1, -1, -2, 2), "Neither"),  # (t - 1)(t^2 - 2): a = 2/3
        ((1, 0, -5, 0, 6), "Neither"),  # (t^2 - 2)(t^2 - 3): two Deltas
        ((1, -2, -5, 4, 6), "Neither"),  # (t^2 - 2)(t - 3)(t + 1): a = 1, P(s) not even
        ((1, 0, -10, 0, 16, 0), "Quadratic"),  # t (t^2 - 2)(t^2 - 8): b = 4, 2, 0
    ])
    def test_small_degrees(self, coeffs, kind):
        candidates = [x.real for x in np.roots(coeffs)] if len(coeffs) > 1 else []
        assert q.classify_support(coeffs, candidates).kind == kind

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError, match="monic"):
            q.classify_support((2, 0, -4), [SQRT2, -SQRT2])

    def test_two_integers_plus_ratio_forces_integer(self):
        # whenever the root set of psi_u holds >= 2 integers and satisfies
        # the ratio condition, psi_u must classify as Integer
        for g in (q.hypercube(2), q.hypercube(3), q.complete(4), q.star(4)):
            data = q.GraphData(g)
            for u, psi_u in data.minimal_polys(range(g.n)).items():
                vals = root_values(data, psi_u)
                assert len(vals) == len(psi_u) - 1
                ints = [v for v in vals if abs(v - round(v)) < 1e-8]
                if len(ints) >= 2 and ratio_condition(vals).holds:
                    assert q.classify_support(psi_u, data.sd.eigenvalues).kind == "Integer"

    def test_squarefree_part(self):
        assert squarefree_part(8) == 2
        assert squarefree_part(45) == 5
        assert squarefree_part(7) == 7
        assert squarefree_part(36) == 1


class TestRhoSquared:
    def test_hypercube(self):
        data = q.GraphData(q.hypercube(3))
        assert q.rho_squared_integer(data.sd, data.phi)

    def test_p3(self):
        data = q.GraphData(q.path(3))
        assert q.rho_squared_integer(data.sd, data.phi)

    def test_p4(self):
        data = q.GraphData(q.path(4))
        assert not q.rho_squared_integer(data.sd, data.phi)


def _fraction_root(phi, x):
    return poly_eval(phi, Fraction(x)) == 0


def _fraction_fit_quadratic(vals, phi, a, delta, tol):
    bs = []
    for v in vals:
        b2 = (2 * v - float(a)) / math.sqrt(delta) * 2
        if abs(b2 - round(b2)) >= tol:
            return None
        b = Fraction(round(b2), 2)
        if abs(v - (float(a) + float(b) * math.sqrt(delta)) / 2) >= tol:
            return None
        bs.append(b)
    for b in set(bs):
        if b == 0:
            if not _fraction_root(phi, a / 2):
                return None
        else:
            quad = [Fraction(1), -a, (a * a - b * b * delta) / 4]
            if poly_degree(poly_divmod(phi, quad)[1]) >= 0:
                return None
    return q.SupportClass(kind="Quadratic", a=a, delta=delta, b_values=tuple(bs))


def reference_classify(vals, phi, tol=1e-8):
    """classify_support without its root guard, every exact check over
    Fractions: evaluation at Fraction(x) and poly_divmod remainders."""
    if all(abs(v - round(v)) < tol for v in vals):
        if all(_fraction_root(phi, round(v)) for v in set(vals)):
            return q.SupportClass(kind="Integer")
    irrational = [v for v in vals if abs(v - round(v)) >= tol]
    squares = [(x - y) ** 2 for i, x in enumerate(irrational) for y in irrational[i + 1:]]
    deltas = {squarefree_part(round(d2)) for d2 in squares
              if d2 > tol and abs(d2 - round(d2)) < tol} - {1}
    twice_a = sorted({round(2 * (x + y)) for i, x in enumerate(vals) for y in vals[i + 1:]})
    for delta in sorted(deltas):
        for m in twice_a:
            fit = _fraction_fit_quadratic(vals, phi, Fraction(m, 2), delta, tol)
            if fit is not None:
                return fit
    return q.SupportClass(kind="Neither")


def reference_rho_squared_integer(sd, phi, tol=1e-8):
    """rho_squared_integer with a gcd in place of division by t^2 - m."""
    rho = sd.spectral_radius
    m = round(rho * rho)
    if abs(rho * rho - m) > tol:
        return False
    if abs(rho - round(rho)) < tol:
        return _fraction_root(phi, round(rho))
    return poly_degree(poly_gcd(phi, [1, 0, -m])) > 0


class TestExactChecksMatchFractionReference:
    """classify_support of psi_u and of each gcd(psi_u, psi_v), whose root
    sets are u's support and the common support, and rho_squared_integer
    decide as the Fraction references against phi do; the class reference
    is the old search over pairwise delta and a candidates, run on the
    exact root set."""

    def _check(self, graphs):
        kinds, rho_verdicts = set(), set()
        for g in graphs:
            data = q.GraphData(g)
            sd, phi = data.sd, data.phi
            rho = q.rho_squared_integer(sd, phi)
            assert rho == reference_rho_squared_integer(sd, phi)
            rho_verdicts.add(rho)
            minimal = set(data.minimal_polys(range(g.n)).values())
            # psi_u (u = v) and each gcd(psi_u, psi_v)
            for h in {tuple(poly_gcd(x, y)) for x in minimal for y in minimal}:
                sc = q.classify_support(h, sd.eigenvalues)
                assert sc == reference_classify(root_values(data, h), phi)
                kinds.add(sc.kind)
        assert kinds == {"Integer", "Quadratic", "Neither"}
        assert rho_verdicts == {True, False}

    def test_atlas(self, atlas_connected):
        self._check(g for graphs in atlas_connected.values() for g in graphs)

    def test_random_corpus(self):
        self._check(random_connected_graphs(80, 16, seed=20261018))

    @pytest.mark.parametrize("m,expected", [(2, True), (3, False), (5, False)])
    def test_radius_near_a_square_root(self, m, expected):
        # graphs whose rho^2 is within tol of an integer have rho = sqrt(m)
        # exactly, so a stub radius exercises the rejecting side
        sd = SimpleNamespace(spectral_radius=math.sqrt(m))
        phi = q.GraphData(q.path(3)).phi  # t (t^2 - 2)
        assert q.rho_squared_integer(sd, phi) == expected
        assert reference_rho_squared_integer(sd, phi) == expected


class TestClassByFactoring:
    """The class pass agrees with the factoring oracle on every polynomial
    it classified: psi_u of every vertex of the connected catalog graphs and
    of larger fixtures, by the pass ``analyze`` runs, and every gcd(psi_u,
    psi_v) of degree >= 2 of the atlas pairs with psi_u != psi_v, by the
    verdict pass over all those pairs."""

    def test_classes_match_the_oracle(self, atlas_connected):
        atlas = [q.GraphData(g) for n in range(1, 8) for g in atlas_connected[n]]
        extras = [q.GraphData(g) for g in (
            q.hypercube(3), q.petersen(), q.path(8), q.cycle(8), q.hypercube(4), q.hypercube(5),
            q.path(20), q.cycle(20), q.cartesian_product(q.path(3), q.path(3)),
            q.cartesian_product(q.path(5), q.path(4)))]
        q.analysis.fill_stacked(atlas, lambda d: list(itertools.combinations(range(d.g.n), 2)))
        oracle, gcds = {}, 0
        for data in atlas + extras:
            minimal = data.minimal_polys(range(data.g.n))
            data.support_classes(minimal)
            classes = data._cache["classes"]
            gcds += len(classes.keys() - set(minimal.values()))
            for psi, sc in classes.items():
                if psi not in oracle:
                    oracle[psi] = class_by_factoring(psi)
                assert sc == oracle[psi], (data.g, psi)
        kinds = {}
        for sc in oracle.values():
            kinds[sc.kind] = kinds.get(sc.kind, 0) + 1
        assert kinds == {"Integer": 29, "Quadratic": 36, "Neither": 2256}
        assert gcds == 161


class TestSupportAgainstPsi:
    """Each numeric support value must be a root of psi_u, not merely of
    phi, and at the default tolerance the numeric support has deg psi_u
    values."""

    def test_eigenvalue_outside_the_support_rejected(self, monkeypatch):
        # 0 is a root of phi(P3) = t (t^2 - 2) but not of psi_1 = t^2 - 2
        data = q.GraphData(q.path(3))
        zero = next(r for r, x in enumerate(data.sd.eigenvalues) if abs(x) < 1e-9)
        real = q.analysis.supports_stack
        monkeypatch.setattr(q.analysis, "supports_stack", lambda sds, tol: [
            tuple(tuple(sorted(set(s) | {zero})) for s in sups) for sups in real(sds, tol)])
        psi = data.minimal_polys((1,))[1]
        assert psi == (1, 0, -2)
        assert zero in data.supports[1]
        with pytest.raises(ValueError, match="not a root"):
            data.support_classes({1: psi})

    def test_support_size_is_the_degree_of_psi(self):
        graphs = [q.Graph(nx.to_numpy_array(G, dtype=int)) for G in nx.graph_atlas_g()
                  if 1 <= G.number_of_nodes() <= 7]
        for g in graphs + list(LARGE.values()):
            data = q.GraphData(g)
            minimal = data.minimal_polys(range(g.n))
            assert [len(data.supports[u]) for u in range(g.n)] == \
                [len(minimal[u]) - 1 for u in range(g.n)]

    # ROADMAP item 9: deg psi_u = n puts every eigenvalue in u's support, but
    # one weight (E_r)_uu falls below the default support tolerance, so the
    # numeric support has n - 1 values; this fails until supports are
    # counted exactly
    @pytest.mark.xfail(strict=True, reason="numeric support misses a root of psi_u")
    @pytest.mark.parametrize("n,p,seed,u", [(48, 0.45, 4, 39), (48, 0.9, 1, 42),
                                            (64, 0.9, 0, 35)])
    def test_support_size_is_the_degree_of_psi_on_dense_random_graphs(self, n, p, seed, u):
        rng = np.random.default_rng(seed)
        a = np.triu((rng.random((n, n)) < p).astype(int), 1)
        data = q.GraphData(q.Graph(a + a.T))
        assert len(data.supports[u]) == len(data.minimal_polys([u])[u]) - 1

    def test_disconnected_graphs_match_the_reference(self):
        # analyze classifies the supports of a disconnected graph too
        from qwalk import cli
        graphs = [g for g in random_graphs(300, 10, seed=1013) if not g.is_connected()]
        assert len(graphs) > 50
        kinds = set()
        for g in graphs:
            doc = cli.analyze_graph(g, cli.AnalysisConfig())
            phi = q.GraphData(g).phi
            for entry in doc["vertices"]:
                sc = reference_classify(entry["support_values"], phi)
                assert entry["support_class"] == cli._support_class_json(sc)
                kinds.add(sc.kind)
        assert kinds == {"Integer", "Quadratic", "Neither"}


class TestNecessaryConditions:
    def test_hypercube_antipodal_all_pass(self):
        rep = q.GraphData(q.hypercube(3)).pair(0, 7)
        assert rep.all_pass
        assert rep.pst_found is not None
        assert rep.pst_found.tau == pytest.approx(math.pi / 2, abs=1e-8)
        assert rep.verification.passed

    def test_petersen_fails_delta(self):
        data = q.GraphData(q.petersen())
        rep = data.pair(0, 1)
        assert not rep.verdicts()["delta_partition_equal"]
        assert not rep.v_singleton_in_delta_u
        # distance partition around a vertex has a final cell of size 6
        assert [len(c) for c in data.deltas([0])[0].cells] == [1, 3, 6]

    def test_p4_ends(self):
        rep = q.GraphData(q.path(4)).pair(0, 3)
        assert rep.support_class.kind == "Neither"
        assert rep.controllable_u and rep.controllable_v
        assert not rep.verdicts()["controllability"]
        assert not rep.all_pass

    def test_disconnected_rejected(self):
        g = q.Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            q.GraphData(g).pair(0, 2)

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            q.GraphData(q.path(3)).pair(1, 1)

    def test_pst_fixture_pairs_pass_everything(self):
        fixtures = [
            (q.path(2), 0, 1),
            (q.path(3), 0, 2),
            (q.hypercube(2), 0, 3),
            (q.hypercube(3), 0, 7),
            (q.cartesian_product(q.path(3), q.path(3)), 0, 8),
        ]
        for g, u, v in fixtures:
            rep = q.GraphData(g, q.AnalysisConfig(t_max=10)).pair(u, v)
            assert rep.pst_found is not None, (g, u, v)
            assert rep.all_pass, (g, u, v, rep.verdicts())
            assert rep.verification.passed
            if g.n >= 4:
                assert not rep.controllable_u and not rep.controllable_v


def _count_calls(monkeypatch, name, *modules):
    """Patch ``name`` in every module with a wrapper recording its args."""
    calls = []
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


class TestSearchPolicy:
    def test_pair_searches_only_when_every_verdict_passes(self, monkeypatch):
        calls = _count_calls(monkeypatch, "search_pst", q.analysis)
        rep = q.GraphData(q.path(4)).pair(0, 1)
        assert not rep.verdicts()["cospectral"] and rep.pst_found is None and not calls
        rep = q.GraphData(q.hypercube(4)).pair(0, 15)
        assert rep.all_pass and rep.pst_found is not None and len(calls) == 1


class TestOneDecomposition:
    def test_graph_data_pair(self, monkeypatch):
        calls = _count_calls(monkeypatch, "decompose", q.spectral, q.analysis)
        q.GraphData(q.hypercube(3)).pair(0, 7)
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["analyze_graph", "_scan_chunk"])
    def test_cli_graph_commands(self, monkeypatch, command):
        # a scan chunk decomposes through fill_stacked's decompose_stack, so
        # count the eigensolver, which every route calls
        from qwalk import cli
        calls = _count_calls(monkeypatch, "eigh", np.linalg)
        if command == "analyze_graph":
            cli.analyze_graph(q.hypercube(3), cli.AnalysisConfig())
        else:
            cli._scan_chunk(([q.encode_graph6(q.hypercube(3))], cli.AnalysisConfig()))
        assert len(calls) == 1


def _stack_n(stack):
    """The vertex count of a stack of graphs or of (phi, phi(G - u)) pairs."""
    first = next(iter(stack))
    return first.n if isinstance(first, q.Graph) else len(first[0]) - 1


class TestComputeOnce:
    """GraphData computes each per-vertex fact once per vertex, by one run
    of each batched kernel over the vertices a view needs, and each support
    classification once per distinct support; the eigensolver and the
    connectivity test run once per graph, or once per vertex count in a
    scan chunk, as does the recurrence that gives phi and every phi(G - u),
    with nothing cached across calls."""

    KERNELS = (("minimal_polys_stack", q.walkalg), ("delta_stack", q.partitions))

    def _spy_kernels(self, monkeypatch):
        return {name: _count_calls(monkeypatch, name, module)
                for name, module in self.KERNELS}

    @staticmethod
    def _spy_recurrence(monkeypatch):
        return _count_calls(monkeypatch, "_faddeev_leverrier", q.spectral)

    @staticmethod
    def _spy_float_side(monkeypatch):
        return {"eigh": _count_calls(monkeypatch, "eigh", np.linalg),
                "connected_stack": _count_calls(monkeypatch, "connected_stack",
                                                q.graphs, q.analysis)}

    @staticmethod
    def _assert_once(calls, roots):
        for name, made in calls.items():
            assert len(made) == 1, name
            # a stack of one graph
            assert [sorted(r) for r in made[0][1]] == [sorted(roots)], name

    @staticmethod
    def _assert_recurrence_once(made, g):
        assert [list(args[0]) for args in made] == [[g]]

    @pytest.mark.parametrize("name,distinct", [("random32", 2), ("P5xP6", 3)])
    def test_analyze_graph(self, monkeypatch, name, distinct):
        from qwalk import cli
        g = {"random32": _random_connected(32, seed=32),
             "P5xP6": q.cartesian_product(q.path(5), q.path(6))}[name]
        data = q.GraphData(g)
        assert len(set(data.supports)) == distinct
        # random32 has one psi_u for two numeric supports: one vertex's
        # support misses a weight below the support tolerance (ROADMAP item 9)
        psis = len(set(data.minimal_polys(range(g.n)).values()))
        classify = _count_calls(monkeypatch, "_classes_stack", q.analysis)
        guard = _count_calls(monkeypatch, "_guards_stack", q.analysis)
        calls = self._spy_kernels(monkeypatch)
        recurrence = self._spy_recurrence(monkeypatch)
        float_side = self._spy_float_side(monkeypatch)
        cli.analyze_graph(g, cli.AnalysisConfig())
        # one guard pass over the distinct (support, psi_u) of one graph,
        # and one class pass over its distinct psi_u
        assert [[len(keys) for keys in args[1]] for args in guard] == [[distinct]]
        assert [[len(keys) for keys in args[1]] for args in classify] == [[psis]]
        self._assert_once(calls, range(g.n))
        self._assert_recurrence_once(recurrence, g)
        assert {name: len(made) for name, made in float_side.items()} == \
            {"eigh": 1, "connected_stack": 1}

    def test_scan_chunk(self, monkeypatch):
        from qwalk import cli
        calls = self._spy_kernels(monkeypatch)
        recurrence = self._spy_recurrence(monkeypatch)
        line, = cli._scan_chunk(([q.encode_graph6(q.hypercube(3))], cli.AnalysisConfig()))
        doc = json.loads(line)
        assert len(doc["pairs"]) == 28  # Q3 is vertex-transitive
        self._assert_once(calls, range(8))
        self._assert_recurrence_once(recurrence, q.hypercube(3))

    @pytest.mark.parametrize("u,v", [(0, 7), (5, 2)])
    def test_pair(self, monkeypatch, u, v):
        calls = self._spy_kernels(monkeypatch)
        recurrence = self._spy_recurrence(monkeypatch)
        float_side = self._spy_float_side(monkeypatch)
        q.GraphData(q.hypercube(3)).pair(u, v)
        self._assert_once(calls, (u, v))
        self._assert_recurrence_once(recurrence, q.hypercube(3))
        assert {name: len(made) for name, made in float_side.items()} == \
            {"eigh": 1, "connected_stack": 1}

    def test_library_views(self, monkeypatch):
        # the views of one GraphData share every fact: psi_u and Delta_u of
        # every vertex, every cospectrality verdict and a pair report
        g = q.hypercube(4)
        calls = self._spy_kernels(monkeypatch)
        recurrence = self._spy_recurrence(monkeypatch)
        eigh = _count_calls(monkeypatch, "eigh", np.linalg)
        data = q.GraphData(g)
        assert len(data.minimal_polys(range(16))) == len(data.deltas(range(16))) == 16
        assert all(data.cospectral(u, v) for u, v in itertools.combinations(range(16), 2))
        assert data.pair(0, 15).all_pass
        self._assert_once(calls, range(16))
        self._assert_recurrence_once(recurrence, g)
        assert len(eigh) == 1

    def test_scan_chunk_runs_each_kernel_once_per_vertex_count(self, monkeypatch):
        # every graph has a cospectral pair, so every kernel runs for every n;
        # the lines mix three vertex counts and fit in one chunk
        from qwalk import cli
        graphs = [q.cycle(5), q.complete(4), q.hypercube(3), q.cycle(4), q.complete(5),
                  q.cycle(8), q.star(4), q.petersen(), q.path(4), q.cycle(7)]
        lines = [q.encode_graph6(g) for g in graphs]
        assert len(lines) <= cli.SCAN_CHUNK
        # minimal_polys_stack takes the (phi, every phi(G - u)) of each graph
        polys = {g: as_tuples(q.spectral._faddeev_leverrier([g])[0]) for g in graphs}
        calls = self._spy_kernels(monkeypatch)
        calls["_faddeev_leverrier"] = self._spy_recurrence(monkeypatch)
        float_side = self._spy_float_side(monkeypatch)
        calls["connected_stack"] = float_side["connected_stack"]
        # the verdict pass takes GraphData; the root guard and the class
        # pass run once over the whole chunk
        verdicts = _count_calls(monkeypatch, "_reports_stack", q.analysis)
        chunk_wide = [_count_calls(monkeypatch, name, q.analysis)
                      for name in ("_guards_stack", "_classes_stack")]
        guards = _count_calls(monkeypatch, "_guard", q.analysis)
        assert cli.run_scan(lines, cli.AnalysisConfig(), out=io.StringIO()) == len(lines)
        calls["_reports_stack"] = [([d.g for d in args[0]],) for args in verdicts]
        assert len(guards) == 1
        for made in chunk_wide:
            assert [sorted(d.g.n for d in args[0]) for args in made] == \
                [sorted(g.n for g in graphs)]
        by_n = {}
        for g in graphs:
            by_n.setdefault(g.n, set()).add(g)
        for name, made in calls.items():
            stacked = sorted(({as_tuples(x) for x in args[0]} if name == "minimal_polys_stack"
                              else set(args[0]) for args in made), key=_stack_n)
            expected = [by_n[n] if name != "minimal_polys_stack" else {polys[g] for g in by_n[n]}
                        for n in sorted(by_n)]
            assert stacked == expected, name
        # one eigensolver call per vertex count, on the stack of its graphs
        assert sorted((args[0].shape for args in float_side["eigh"]), key=lambda s: s[1]) == \
            [(len(by_n[n]), n, n) for n in sorted(by_n)]


class TestFinitenessBound:
    @pytest.mark.parametrize("k,expected", [
        (1, (5, 5, 2)),
        (2, (8, 8, 17)),
        (3, (10, 10, 3070)),
    ])
    def test_examples(self, k, expected):
        assert finiteness_bound(k) == expected

    def test_bad_input(self):
        with pytest.raises(ValueError):
            finiteness_bound(0)


def _random_connected(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        a = np.triu((rng.random((n, n)) < 0.45).astype(int), 1)
        g = q.Graph(a + a.T)
        if g.is_connected():
            return g


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


@st.composite
def squarefree_polys(draw):
    """An integer polynomial of degree <= 12 with coefficients up to 2**60,
    squarefree as a multiple of distinct linear factors t - r and distinct
    irreducible quadratics t^2 + b t + c, and its real roots."""
    # a run of consecutive roots far from 0, where float Horner loses the
    # sign next to a root
    start = draw(st.integers(-20, 20))
    run = range(start, min(start + draw(st.integers(0, 12)), 21))
    roots = sorted(set(run) | set(draw(st.lists(st.integers(-20, 20), max_size=12 - len(run)))))
    quadratics = [(b, c) for b, c in draw(st.lists(
        st.tuples(st.integers(-12, 12), st.integers(-60, 60)), unique=True,
        max_size=(12 - len(roots)) // 2))
        if b * b - 4 * c < 0 or math.isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c]
    coeffs = [1]
    for r in roots:
        coeffs = _times(coeffs, [1, -r])
    for b, c in quadratics:
        coeffs = _times(coeffs, [1, b, c])
    # a leading factor below 2**20, shifted left so that some rows pass
    # 2**53 (about a fifth of hypothesis's draws)
    lead = draw(st.integers(1, 2**20)) * draw(st.sampled_from([1, -1]))
    room = 60 - max(map(abs, coeffs)).bit_length() - abs(lead).bit_length()
    assume(room >= 0)
    coeffs = [c * lead << draw(st.integers(0, room)) for c in coeffs]
    real = [float(r) for r in roots] + [(-b + sign * math.sqrt(b * b - 4 * c)) / 2
                                        for b, c in quadratics if b * b > 4 * c
                                        for sign in (1, -1)]
    return coeffs, real


LARGE = {
    "Q5": q.hypercube(5),
    "Q6": q.hypercube(6),
    "P64": q.path(64),
    "C40": q.cycle(40),
    "random60": _random_connected(60, seed=60),
}


class TestLargeGraphs:
    """Graphs inside the exact cap that used to trip the float root guard."""

    @pytest.mark.parametrize("name", sorted(LARGE))
    def test_every_support_passes_the_guard(self, name):
        # the eigenvalues that pass the guard against psi_u are u's support,
        # the exact root set, and its class is read without error
        data = q.GraphData(LARGE[name])
        minimal = data.minimal_polys(range(data.g.n))
        eigenvalues = data.values(range(len(data.sd.eigenvalues)))
        for u in range(data.g.n):
            near = near_roots(minimal[u], eigenvalues)
            assert tuple(np.flatnonzero(near).tolist()) == data.supports[u]
        assert data.support_classes(minimal).keys() == minimal.keys()

    def test_guard_matches_the_per_value_reference(self, atlas_connected):
        # every support value of LARGE and of the catalog, and the values 2
        # and 5 grid steps of 2**-B off it, where it mostly fails
        graphs = list(LARGE.values()) + [g for n in range(2, 8) for g in atlas_connected[n]]
        graphs += [q.hypercube(3), q.petersen(), q.path(8), q.cycle(8)]
        unit = 2.0**-q.analysis._GUARD_BITS
        verdicts = set()
        for g in graphs:
            data = q.GraphData(g)
            minimal = data.minimal_polys(range(g.n))
            for u in range(g.n):
                coeffs = minimal[u]
                vals = [v + k * unit for v in data.values(data.supports[u])
                        for k in (0, -2, 2, -5, 5)]
                near = near_roots(coeffs, vals)
                assert near == [near_root_reference(coeffs, v) for v in vals]
                assert all(near[::5])
                verdicts.update(near)
        assert verdicts == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(poly=squarefree_polys(), off=st.lists(st.floats(-25, 25), max_size=4))
    @example(poly=(functools.reduce(_times, ([1, -r] for r in range(-20, -12))),
                   [float(r) for r in range(-20, -12)]), off=[])
    def test_guard_matches_the_reference_on_random_polynomials(self, poly, off):
        # on, 1 to 5 grid steps of 2**-B off, and away from the real roots;
        # coefficients past 2**53 leave a row to the exact stage alone.  The
        # float stage runs on stacks of _FLOAT_STAGE_VALUES values or more,
        # so the values are also guarded with it made to run on any stack
        coeffs, roots = poly
        unit = 2.0**-q.analysis._GUARD_BITS
        vals = [x + k * unit for x in roots for k in (0, -1, 1, -2, 2, -3, 3, -5, 5)] + off
        expected = [near_root_reference(coeffs, v) for v in vals]
        assert near_roots(coeffs, vals) == expected
        with mock.patch.object(q.analysis, "_FLOAT_STAGE_VALUES", 0):
            assert near_roots(coeffs, vals) == expected

    def test_guard_stages_on_cap_size_supports(self, monkeypatch):
        # phi of K64 reaches 66 bits and psi_u of a random n = 64 graph
        # passes 2**53 too, so the exact stage decides their values, while
        # psi_u = (t - 63)(t + 1) of K64 goes to the float stage in a stack
        # of every value below; each polynomial alone is guarded too
        stages = {name: _count_calls(monkeypatch, name, q.analysis)
                  for name in ("_float_signs", "_exact_signs")}
        rng = np.random.default_rng(64)
        a = np.triu((rng.random((64, 64)) < 0.45).astype(int), 1)
        unit = 2.0**-q.analysis._GUARD_BITS
        graphs = [q.complete(64), q.Graph(a + a.T)]
        assert max(map(abs, q.GraphData(graphs[0]).phi)).bit_length() == 66
        psis, rows, values, expected = [], [], [], []
        for g in graphs:
            data = q.GraphData(g)
            for u, psi in data.minimal_polys(range(0, 64, 9)).items():
                vals = [v + k * unit for v in data.values(data.supports[u]) for k in (0, -2, 2)]
                for coeffs in (psi, data.phi):
                    near = [near_root_reference(coeffs, v) for v in vals]
                    assert near_roots(coeffs, vals) == near
                    rows += [len(psis)] * len(vals)
                    psis.append(tuple(coeffs))
                    values += vals
                    expected += near
        assert set(expected) == {True, False}
        for calls in stages.values():
            del calls[:]
        assert q.analysis._guard(psis, rows, values) == expected
        assert stages["_float_signs"] and stages["_exact_signs"]

    @pytest.mark.parametrize("name", ["Q5", "Q6"])
    def test_hypercube_antipodal_pst(self, name):
        g = LARGE[name]
        report = q.GraphData(g).pair(0, g.n - 1)
        assert report.all_pass
        assert report.support_class.kind == "Integer"
        assert report.pst_found.tau == pytest.approx(math.pi / 2, abs=1e-6)
        assert report.verification.passed

    @pytest.mark.parametrize("name,v", [("P64", 63), ("C40", 20), ("random60", 59)])
    def test_pair_completes(self, name, v):
        report = q.GraphData(LARGE[name]).pair(0, v)
        assert not report.all_pass
        assert report.pst_found is None
