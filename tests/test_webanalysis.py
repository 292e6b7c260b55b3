"""Web verdicts: critical data, dicriticity, smoothness, caustics, certification."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import matrix_product, to_sympy
from test_cli import _without_input

import webweave.webanalysis as wa
from webweave import contactgeom, polycore
from webweave.cli import main, parse_input
from webweave.contactgeom import BiHomogPde, Chart, ChartForm, chart_form, \
    rehomogenize, standard_atlas
from webweave.idealcalc import is_trivial_ideal, normal_form
from webweave.polycore import MultiPoly, PolyMatrix, UsageError, VarTable, poly_adjugate, \
    poly_det, scalar_equal
from webweave.webanalysis import (
    CiWeb,
    caustic_generators,
    certify_algebraicity,
    chart_web_data,
    is_algebraic_web,
    is_dicritical,
    is_hyperdicritical,
    is_linearizable_pde,
    multidegree,
    multidegree_data,
    smoothness_chart_check,
    weight,
)

BI2 = VarTable.bihomog(2)
U0, U1, U2 = (MultiPoly.var(BI2, f"u{k}") for k in range(3))
X0, X1, X2 = (MultiPoly.var(BI2, f"X{k}") for k in range(3))
C02 = Chart(2, 0, 2)
T02 = C02.table
x1, x2, p1 = (MultiPoly.var(T02, n) for n in ("x1", "x2", "p1"))
SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
STRETCH_N4 = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "stretch_n4.json"


# -- weights and degrees ---------------------------------------------------


def test_weight_and_multidegree_examples(clairaut_web, cusp_web):
    assert weight(clairaut_web) == 2 and multidegree(clairaut_web) == (0,)
    assert weight(cusp_web) == 2 and multidegree(cusp_web) == (1,)
    bi3 = VarTable.bihomog(3)
    u = [MultiPoly.var(bi3, f"u{k}") for k in range(4)]
    X = [MultiPoly.var(bi3, f"X{k}") for k in range(4)]
    w3 = CiWeb(3, (BiHomogPde(3, X[0] * u[1]**2 - X[1] * u[3]**2),
                   BiHomogPde(3, u[2]**2 - u[1] * u[3])))
    assert weight(w3) == 4 and multidegree(w3) == (1, 0)
    m = multidegree_data(w3)
    assert m.weight == 4 and m.degree == 0


def test_web_size_validation(conic_pde):
    with pytest.raises(UsageError):
        CiWeb(3, (conic_pde,))


# -- chart packages --------------------------------------------------------


def test_clairaut_chart_data(clairaut_web):
    d = chart_web_data(clairaut_web, C02)
    assert d.critical_det == 2 * p1 + 2 * x1 * (x2 - p1 * x1)
    assert d.contact_jacobian.at(0, 0) == 0
    assert d.obstruction() == d.contact_jacobian  # adj of the 1 x 1 block P is 1
    assert not d.degenerate


def test_cusp_chart_data(cusp_web):
    d = chart_web_data(cusp_web, C02)
    assert d.critical_det == 2 * p1
    assert d.contact_jacobian.at(0, 0) == -1
    assert d.obstruction() == d.contact_jacobian  # adj of the 1 x 1 block P is 1
    assert [g.to_string() for g in d.critical_basis] == ["p1", "x1"]


def test_n3_mixed_chart_data():
    c03 = Chart(3, 0, 3)
    T = c03.table
    xx1, xx2, pp1, pp2 = (MultiPoly.var(T, n) for n in ("x1", "x2", "p1", "p2"))
    P1 = rehomogenize(ChartForm(c03, pp1**2 - xx1))
    P2 = rehomogenize(ChartForm(c03, pp2 - xx2))
    w = CiWeb(3, (P1, P2))
    d = chart_web_data(w, c03)
    P = _columns(d.jacobian, c03.table.group("p"))
    assert P.at(0, 0) == 2 * pp1 and P.at(1, 1) == 1
    assert P.at(0, 1) == 0 and P.at(1, 0) == 0
    assert d.critical_det == 2 * pp1
    th = d.contact_jacobian
    assert th.at(0, 0) == -1 and th.at(1, 1) == -1
    assert th.at(0, 1) == 0 and th.at(1, 0) == 0
    # adj(P) = diag(1, 2 p1), so adj(P) Θ = diag(-1, -2 p1)
    ob = d.obstruction()
    _assert_adjugate_identity(P, ob, d.critical_det, th)
    assert ob.at(0, 0) == -1 and ob.at(1, 1) == -2 * pp1
    assert ob.at(0, 1) == 0 and ob.at(1, 0) == 0
    v = is_hyperdicritical(w, charts=[c03])
    assert v.per_chart[0].status == "false"


def _columns(J: PolyMatrix, cols) -> PolyMatrix:
    """The submatrix of J on all its rows and the given columns, built anew."""
    return PolyMatrix.from_rows([[J.at(r, c) for c in cols] for r in range(J.rows)])


def _assert_adjugate_identity(P: PolyMatrix, ob: PolyMatrix, det: MultiPoly,
                              theta: PolyMatrix):
    """P adj(P) Θ = det(P) Θ, which pins adj(P) Θ down wherever det(P) != 0."""
    prod = matrix_product(P, ob)
    for r in range(P.rows):
        for c in range(theta.cols):
            assert prod.at(r, c) == det * theta.at(r, c)


def test_jacobian_adjugate_identity_per_chart(clairaut_web, cusp_web, fermat_web):
    for web in (clairaut_web, cusp_web, fermat_web):
        for c in standard_atlas(2):
            d = chart_web_data(web, c)
            _assert_adjugate_identity(_columns(d.jacobian, c.table.group("p")),
                                      d.obstruction(), d.critical_det, d.contact_jacobian)


def _seeded_webs(rng, n: int, count: int):
    """``count`` random webs on P_n with equations of bi-degree (<= 1, <= 2)."""
    webs = []
    while len(webs) < count:
        try:
            webs.append(CiWeb(n, tuple(
                BiHomogPde(n, _random_bihomog(rng, rng.randint(0, 1), rng.randint(1, 2), n))
                for _ in range(n - 1))))
        except UsageError:
            continue  # a zero equation or one divisible by the incidence form
    return webs


def _minor_webs() -> list[CiWeb]:
    """The four samples, then seeded webs at n = 2..5."""
    rng = random.Random(14)
    webs = [parse_input(str(SAMPLES / name))[0].web() for name in
            ("clairaut_conic.json", "cusp.json", "fermat_cubic_dual.json", "mixed_n3.json")]
    for n, count in ((2, 4), (3, 3), (4, 2), (5, 2)):
        webs += _seeded_webs(rng, n, count)
    return webs


def test_chart_minors_match_explicit_submatrices(monkeypatch):
    # critical_det, the obstruction and smooth's maximal minors are read off
    # one minor table of the bordered Jacobian; here det P and the maximal
    # minors are recomputed from submatrices built on their own, and the
    # obstruction X checked against P X = det(P) Θ, on the samples and on
    # seeded webs at n = 2..5
    seen = []
    monkeypatch.setattr(wa, "is_trivial_ideal",
                        lambda gens, *args: seen.append(gens) or is_trivial_ideal(gens, *args))
    for web in _minor_webs():
        for chart in standard_atlas(web.n):
            d = chart_web_data(web, chart)
            P = _columns(d.jacobian, chart.table.group("p"))
            assert d.critical_det == poly_det(P), chart
            _assert_adjugate_identity(P, d.obstruction(), d.critical_det, d.contact_jacobian)
            if web.n > 3:
                continue
            J = d.jacobian
            gens = list(d.forms) + [poly_det(_columns(J, cols)) for cols in
                                    itertools.combinations(range(J.cols), J.rows)]
            assert d.smooth == is_trivial_ideal(gens), chart
            assert seen.pop() == gens


def test_obstruction_is_adjugate_times_contact_matrix():
    # Cramer's rule reads entry (r, c) of adj(P) Θ as a signed minor of
    # [J | Θ]; the reference is the product of the adjugate of P, built as
    # an explicit submatrix, with Θ.  At n = 4, P is 3 x 3 and every sign
    # (-1)^(k-1-r), r = 0, 1, 2, occurs
    for web in _minor_webs() + [parse_input(str(STRETCH_N4))[0].web()]:
        for chart in standard_atlas(web.n):
            d = chart_web_data(web, chart)
            P = _columns(d.jacobian, chart.table.group("p"))
            assert d.obstruction() == matrix_product(poly_adjugate(P), d.contact_jacobian), chart


def test_stretch_n4_verdict_digests(capsys):
    # no sample reaches n = 4, the first size with a 3 x 3 block P; these
    # reports were recorded when the obstruction was the product of an
    # explicit adjugate with Θ, and must not change by a byte
    for command, digest in (
            ("dicritical", "f2de835916cce52f4f68881957e14b078027b910a57d7242d8d6de1f09eea39a"),
            ("smooth", "ce3590ae7344a26ab485c49ee53ba988835ec7032d783e0edbf3b1b36b689adb")):
        assert main([command, str(STRETCH_N4)]) == 0
        out = _without_input(capsys.readouterr().out, [])
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, command


# -- dicriticity ------------------------------------------------------------


def test_clairaut_dicritical_all_charts(clairaut_web):
    v = is_dicritical(clairaut_web)
    assert v.aggregated
    assert len(v.per_chart) == 6
    assert all(cv.status == "true" for cv in v.per_chart)


def test_cusp_not_dicritical(cusp_web):
    v = is_dicritical(cusp_web)
    assert not v.aggregated
    # in the defining chart: obstruction entry -1 survives against {p1, x1}
    d = chart_web_data(cusp_web, C02)
    assert normal_form(d.obstruction().at(0, 0), d.critical_basis) == -1


def test_fermat_dicritical(fermat_web):
    assert is_dicritical(fermat_web).aggregated


def test_hyperdicriticity(clairaut_web, cusp_web):
    v = is_hyperdicritical(clairaut_web)
    assert v.aggregated and dict(v.extra)["theta_vanishes_on_web"]
    assert not is_hyperdicritical(cusp_web).aggregated


def test_theta_vanishes_for_zero_multidegree_webs(clairaut_web, fermat_web):
    # webs cut out by u-only equations have identically zero contact matrix
    for web in (clairaut_web, fermat_web):
        for c in standard_atlas(2):
            d = chart_web_data(web, c)
            assert all(not e for e in d.contact_jacobian.entries)


# -- linearizability ---------------------------------------------------------


def test_linearizability(conic_pde, cusp_pde, fermat_pde):
    assert is_linearizable_pde(conic_pde).aggregated
    assert is_linearizable_pde(fermat_pde).aggregated
    assert not is_linearizable_pde(cusp_pde).aggregated


def test_algebraic_implies_linearizable_and_dicritical():
    # another u-only equation beyond the fixtures
    S = BiHomogPde(2, U0 * U1 * U2 + U1**3)
    web = CiWeb(2, (S,))
    assert is_algebraic_web(web)
    assert is_linearizable_pde(S).aggregated
    assert is_dicritical(web).aggregated


def test_is_algebraic_web(clairaut_web, cusp_web, fermat_web):
    assert is_algebraic_web(clairaut_web)
    assert not is_algebraic_web(cusp_web)
    assert is_algebraic_web(fermat_web)


# -- smoothness ---------------------------------------------------------------


def test_clairaut_smooth_everywhere(clairaut_web):
    v = smoothness_chart_check(clairaut_web)
    assert v.aggregated


def test_cusp_smooth_in_defining_chart(cusp_web):
    v = smoothness_chart_check(cusp_web, charts=[C02])
    assert v.aggregated


def test_cusp_singular_on_boundary(cusp_web):
    # the closure of the affine surface p1^2 = x1 acquires a singular line
    # over X0 = 0 (all partials of X0 u1^2 - X1 u2^2 vanish at u = [1:0:0]),
    # visible exactly in the two charts containing those points
    v = smoothness_chart_check(cusp_web)
    assert not v.aggregated
    assert v.chart_status() == {"0,1": "true", "0,2": "true", "1,0": "false",
                                "1,2": "true", "2,0": "false", "2,1": "true"}


def test_fermat_smooth(fermat_web):
    assert smoothness_chart_check(fermat_web).aggregated


def test_non_reduced_input_detected():
    sq = rehomogenize(ChartForm(C02, (p1 - x1) ** 2))
    web = CiWeb(2, (sq,))
    d = chart_web_data(web, C02)
    assert any("non-reduced" in w for w in d.warnings)
    v = smoothness_chart_check(web, charts=[C02])
    assert not v.aggregated


def test_common_coefficient_factor_warned():
    # x1 * (p1^2 + 1): every p-coefficient carries the factor x1
    S = BiHomogPde(2, X1 * (U1**2 + U2**2))
    web = CiWeb(2, (S,))
    d = chart_web_data(web, C02)
    assert any("common non-constant factor" in w for w in d.warnings)
    clean = chart_web_data(CiWeb(2, (BiHomogPde(2, U1**2 + U2**2),)), C02)
    assert not any("common non-constant factor" in w for w in clean.warnings)
    # squarefree, although x1 divides F and its p1- and x2-partials
    for chart in standard_atlas(2):
        assert not any("non-reduced" in w for w in chart_web_data(web, chart).warnings)


def _random_bihomog(rng, a: int, b: int, n: int = 2) -> MultiPoly:
    """A random bi-homogeneous polynomial of bi-degree (a, b) over P_n."""
    table = VarTable.bihomog(n)

    def monomial(d):
        e = [0] * (n + 1)
        for _ in range(d):
            e[rng.randrange(n + 1)] += 1
        return e
    f = MultiPoly.const(table, 0)
    for _ in range(rng.randint(1, 3)):
        term = MultiPoly.const(table, rng.choice([-3, -2, -1, 1, 2, 3]))
        for var, exps in (("X", monomial(a)), ("u", monomial(b))):
            for k, e in enumerate(exps):
                term = term * MultiPoly.var(table, f"{var}{k}") ** e
        f = f + term
    return f


def test_non_reduced_warning_matches_sympy_sqf_list():
    # the warning fires exactly when the chart form has a repeated
    # non-constant factor, on products of random bi-homogeneous factors,
    # some of them squared
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    checked = repeated = 0
    while checked < 120:
        H = MultiPoly.const(BI2, 1)
        for _ in range(rng.randint(1, 3)):
            factor = _random_bihomog(rng, rng.randint(0, 1), rng.randint(0, 1))
            H = H * factor ** rng.choice([1, 1, 2])
        try:
            web = CiWeb(2, (BiHomogPde(2, H),))
        except UsageError:
            continue  # zero, u-degree 0 or divisible by the incidence form
        for chart in standard_atlas(2):
            data = chart_web_data(web, chart)
            syms = sympy.symbols(chart.table.names)
            _, factors = sympy.sqf_list(to_sympy(sympy, data.forms[0], syms), *syms)
            expected = any(m > 1 for _, m in factors)
            warned = any("non-reduced" in w for w in data.warnings)
            assert warned == expected, (str(H), chart)
            checked += 1
            repeated += expected
    assert 0 < repeated < checked


def _warned_web() -> CiWeb:
    # equation 1, X1 (u1 + u2)^2, is non-reduced in every chart and has
    # p-coefficients with the common factor x1 where X1 is not normalized;
    # equation 2, (X2 u3 - X3 u1)^2, is non-reduced in every chart
    bi3 = VarTable.bihomog(3)
    X = [MultiPoly.var(bi3, f"X{k}") for k in range(4)]
    u = [MultiPoly.var(bi3, f"u{k}") for k in range(4)]
    return CiWeb(3, (BiHomogPde(3, X[1] * (u[1] + u[2]) ** 2),
                     BiHomogPde(3, (X[2] * u[3] - X[3] * u[1]) ** 2)))


NON_REDUCED = "may be non-reduced (shares a factor with a partial derivative)"
COMMON_FACTOR = "has p-coefficients with a common non-constant factor"
WARNED_WEB_WARNINGS = tuple(
    f"chart ({chart}): equation {k} {text}" for chart, k, text in [
        ("0,1", 1, NON_REDUCED), ("0,1", 1, COMMON_FACTOR), ("0,1", 2, NON_REDUCED),
        ("0,2", 1, NON_REDUCED), ("0,2", 1, COMMON_FACTOR), ("0,2", 2, NON_REDUCED),
        ("0,3", 1, NON_REDUCED), ("0,3", 1, COMMON_FACTOR), ("0,3", 2, NON_REDUCED),
        ("1,0", 1, NON_REDUCED), ("1,0", 2, NON_REDUCED),
        ("1,2", 1, NON_REDUCED), ("1,2", 2, NON_REDUCED),
        ("1,3", 1, NON_REDUCED), ("1,3", 2, NON_REDUCED),
        ("2,0", 1, NON_REDUCED), ("2,0", 1, COMMON_FACTOR), ("2,0", 2, NON_REDUCED),
        ("2,1", 1, NON_REDUCED), ("2,1", 1, COMMON_FACTOR), ("2,1", 2, NON_REDUCED),
        ("2,3", 1, NON_REDUCED), ("2,3", 1, COMMON_FACTOR), ("2,3", 2, NON_REDUCED),
        ("3,0", 1, NON_REDUCED), ("3,0", 1, COMMON_FACTOR), ("3,0", 2, NON_REDUCED),
        ("3,1", 1, NON_REDUCED), ("3,1", 1, COMMON_FACTOR), ("3,1", 2, NON_REDUCED),
        ("3,2", 1, NON_REDUCED), ("3,2", 1, COMMON_FACTOR), ("3,2", 2, NON_REDUCED),
    ])


def test_verdict_warnings_text_and_order():
    # chart by chart in atlas order, equations in input order, the
    # non-reduced warning before the common-factor one
    w = _warned_web()
    assert is_dicritical(w).warnings == WARNED_WEB_WARNINGS
    assert is_hyperdicritical(w).warnings == WARNED_WEB_WARNINGS


def test_hyperdicritical_differentiates_each_form_once(monkeypatch):
    w = _warned_web()
    forms = {(chart.table.names, frozenset(chart_form(S, chart).poly.terms.items()))
             for chart in standard_atlas(3) for S in w.pdes}
    calls = Counter()
    derivative = MultiPoly.derivative

    def counted(f, name):
        calls[f.vars.names, frozenset(f.terms.items()), name] += 1
        return derivative(f, name)

    monkeypatch.setattr(MultiPoly, "derivative", counted)
    is_hyperdicritical(w)
    per_form = {key: n for key, n in calls.items() if key[:2] in forms}
    assert len(per_form) == len(forms) * 5  # each form by each of its 2n - 1 chart variables
    assert max(per_form.values()) == 1


# -- degenerate charts --------------------------------------------------------


def test_degenerate_chart_skipped():
    web = CiWeb(2, (BiHomogPde(2, U1**2),))
    v = is_dicritical(web)
    status = v.chart_status()
    assert "degenerate" in status.values()
    assert v.aggregated  # the live charts all pass (contact matrix is zero)


def test_all_charts_degenerate_rejected():
    bi3 = VarTable.bihomog(3)
    u1 = MultiPoly.var(bi3, "u1")
    S = BiHomogPde(3, u1**2)
    web = CiWeb(3, (S, S))  # repeated equation: p-Jacobian is singular everywhere
    with pytest.raises(UsageError, match="covering condition"):
        is_dicritical(web)


# -- caustics -----------------------------------------------------------------


def test_clairaut_caustic_is_circle(clairaut_web):
    gens = caustic_generators(clairaut_web, C02)
    assert len(gens) == 1
    assert scalar_equal(gens[0], x1**2 + x2**2 - 1)


def test_cusp_caustic(cusp_web):
    gens = caustic_generators(cusp_web, C02)
    assert len(gens) == 1 and gens[0] == x1


def test_empty_critical_locus_gives_unit_ideal():
    web = CiWeb(2, (BiHomogPde(2, U1),))  # critical determinant is 1
    gens = caustic_generators(web, C02)
    assert len(gens) == 1 and gens[0] == 1


def test_caustic_spot_check(clairaut_web):
    # (3/5, 4/5) lies under a double contact: caustic generators vanish there
    gens = caustic_generators(clairaut_web, C02)
    pt = {"x1": Fraction(3, 5), "x2": Fraction(4, 5)}
    assert all(g.evaluate(pt) == 0 for g in gens)
    # and the double-contact witness: F and dF/dp share the root p1 = -3/4
    F = chart_form(clairaut_web.pdes[0], C02).poly
    full = dict(pt, p1=Fraction(-3, 4))
    assert F.evaluate(full) == 0
    d = chart_web_data(clairaut_web, C02)
    assert d.critical_det.evaluate(full) == 0


# -- relabeling invariance -----------------------------------------------------


def _permute_pde(S, perm):
    n = S.n
    table = S.poly.vars
    out = {}
    for exps, c in S.poly.terms.items():
        xe, ue = exps[:n + 1], exps[n + 1:]
        new_x = tuple(xe[perm[k]] for k in range(n + 1))
        new_u = tuple(ue[perm[k]] for k in range(n + 1))
        out[new_x + new_u] = c
    return BiHomogPde(n, MultiPoly(table, out))


@pytest.mark.parametrize("perm", [(1, 0, 2), (2, 0, 1), (0, 2, 1)])
def test_dicriticity_invariant_under_relabeling(cusp_web, perm):
    # relabeling X_k -> X_perm[k] (and u alike) permutes the atlas; the
    # verdict over chart (i,j) moves to (inv[i], inv[j])
    moved = CiWeb(2, tuple(_permute_pde(S, perm) for S in cusp_web.pdes))
    base = is_dicritical(cusp_web).chart_status()
    new = is_dicritical(moved).chart_status()
    inv = {perm[k]: k for k in range(3)}
    remapped = {f"{inv[int(k.split(',')[0])]},{inv[int(k.split(',')[1])]}": s
                for k, s in base.items()}
    assert new == remapped
    assert is_dicritical(moved).aggregated == is_dicritical(cusp_web).aggregated


# -- certification -------------------------------------------------------------


def test_certify_builds_each_chart_package_once(monkeypatch):
    # the web is the session: certify's smoothness and dicriticity
    # verdicts share one package per chart, so each chart form is
    # restricted once per equation
    doc, _ = parse_input(str(SAMPLES / "mixed_n3.json"))
    packages, restricted = Counter(), []
    init, restrict = wa.ChartWebData.__init__, wa.chart_form

    def counted_init(self, chart, *args):
        packages[chart.i, chart.j] += 1
        init(self, chart, *args)

    def counted_form(S, chart):
        restricted.append(chart)
        return restrict(S, chart)

    monkeypatch.setattr(wa.ChartWebData, "__init__", counted_init)
    monkeypatch.setattr(wa, "chart_form", counted_form)
    rep = certify_algebraicity(doc.web())
    assert len(packages) == 12 and max(packages.values()) == 1
    assert len(restricted) == 24
    assert rep.smooth == smoothness_chart_check(doc.web())
    assert rep.dicritical == is_dicritical(doc.web())


def test_chart_minors_and_covariance_build_no_intermediates(monkeypatch):
    # each chart package reads every minor off one table, so smooth and
    # all of certify build one per chart,
    # transition writes det and adjugate in closed form from the charts'
    # slot permutation, so it builds no table, and a covariance sweep
    # substitutes the raw coordinate quotients, so it constructs no RatFunc
    tables, ratfuncs = [0], [0]
    make_table, rat_init = polycore._minor_table, contactgeom.RatFunc.__init__

    def counted_table(M):
        tables[0] += 1
        return make_table(M)

    def counted_rat(self, *args):
        ratfuncs[0] += 1
        rat_init(self, *args)

    assert not hasattr(contactgeom, "_minor_table")
    for module in (polycore, wa):
        monkeypatch.setattr(module, "_minor_table", counted_table)
    monkeypatch.setattr(contactgeom.RatFunc, "__init__", counted_rat)
    doc, _ = parse_input(str(SAMPLES / "mixed_n3.json"))
    atlas = standard_atlas(3)
    assert all(contactgeom.covariance_check(doc.pdes[0], a, b) for a in atlas for b in atlas)
    assert ratfuncs[0] == 0 and tables[0] == 0
    smoothness_chart_check(doc.web())
    assert tables[0] == len(atlas)
    tables[0] = 0
    certify_algebraicity(doc.web())
    assert tables[0] == len(atlas) == 12
    for a, b in [(atlas[0], atlas[5]), (atlas[7], atlas[2]), (atlas[3], atlas[3])]:
        tables[0] = 0
        contactgeom.transition(a, b)
        assert tables[0] == 0
    assert ratfuncs[0] > 0


def test_certify_fermat(fermat_web):
    rep = certify_algebraicity(fermat_web)
    assert rep.weight == 3 and rep.multidegree == (0,) and rep.algebraic
    assert rep.dicritical.aggregated and rep.smooth.aggregated
    assert not rep.contradiction
    assert rep.script_N == 0 and rep.bott_number == 0 and rep.bott_bridge_ok
    assert rep.caustic.coefficients == (9,) and rep.caustic.all_positive


def test_certify_cusp(cusp_web):
    rep = certify_algebraicity(cusp_web)
    assert not rep.dicritical.aggregated
    assert not rep.contradiction
    assert rep.script_N == Fraction(-3, 2) and rep.bott_number == -3
    assert rep.bott_bridge_ok


def test_certify_contradiction_branch(monkeypatch):
    # the flag itself is pure branch logic; force the impossible verdict
    # combination on a weight-3 web with nonzero multi-degree
    S = BiHomogPde(2, X0 * U1**3 + X1 * U2**3)
    web = CiWeb(2, (S,))
    happy = wa.WebVerdict(True, (wa.ChartVerdict(C02, "true"),))
    monkeypatch.setattr(wa, "smoothness_chart_check", lambda *a, **k: happy)
    monkeypatch.setattr(wa, "is_dicritical", lambda *a, **k: happy)
    rep = wa.certify_algebraicity(web)
    assert rep.weight == 3 and rep.multidegree == (1,)
    assert rep.contradiction
    assert any("irreducibility" in note for note in rep.notes)
