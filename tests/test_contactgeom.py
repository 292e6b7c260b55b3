"""Chart forms, transitions, covariance, homogenization, duality."""

import hashlib
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import Quotient, frame_data_by_minors
from webweave import cli, cohomcalc, contactgeom, idealcalc, polycore, webanalysis
from webweave.cli import parse_input
from webweave.contactgeom import (
    BiHomogPde,
    Chart,
    ChartForm,
    RatFunc,
    chart_form,
    covariance_check,
    dual_pde,
    incidence_form,
    is_algebraic_pde,
    pde_equiv,
    rehomogenize,
    standard_atlas,
    transition,
    transport_form,
    transport_point,
)
from webweave.polycore import MultiPoly, UsageError, VarTable, scalar_equal, substitute

BI2 = VarTable.bihomog(2)
U0, U1, U2 = (MultiPoly.var(BI2, f"u{k}") for k in range(3))
X0, X1, X2 = (MultiPoly.var(BI2, f"X{k}") for k in range(3))
C02 = Chart(2, 0, 2)
T02 = C02.table
x1, x2, p1 = (MultiPoly.var(T02, n) for n in ("x1", "x2", "p1"))
SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def corpus_n2():
    """Small bank of valid equations with X-degree and weight up to 3."""
    return [
        BiHomogPde(2, U1**2 + U2**2 - U0**2),             # (0,2)
        BiHomogPde(2, U0**3 + U1**3 + U2**3),             # (0,3)
        BiHomogPde(2, X0 * U1**2 - X1 * U2**2),           # (1,2)
        BiHomogPde(2, X0 * U1 + X1 * U0),                 # (1,1)
        BiHomogPde(2, X0**2 * U1 + X1**2 * U0),           # (2,1)
        BiHomogPde(2, X0 * U1**3 + X2 * U0 * U2**2 + X1 * U2**3),  # (1,3)
        BiHomogPde(2, X0**3 * U1**2 + X1 * X2**2 * U0**2 + X1**3 * U2**2),  # (3,2)
    ]


# -- construction and validation ------------------------------------------


def test_bidegrees():
    assert corpus_n2()[0].bidegree == (0, 2)
    assert corpus_n2()[2].bidegree == (1, 2)


def test_incidence_multiple_rejected():
    with pytest.raises(UsageError):
        BiHomogPde(2, incidence_form(2))
    with pytest.raises(UsageError):
        BiHomogPde(2, incidence_form(2) * U1)


def test_zero_and_nonbihomog_rejected():
    with pytest.raises(UsageError):
        BiHomogPde(2, MultiPoly.zero(BI2))
    with pytest.raises(UsageError):
        BiHomogPde(2, U1 + X1 * U0)
    with pytest.raises(UsageError):
        BiHomogPde(2, X0 * X1)  # weight 0


# -- chart forms ----------------------------------------------------------


def test_clairaut_chart_form(conic_pde):
    F = chart_form(conic_pde, C02).poly
    assert F == p1**2 + 1 - (x2 - p1 * x1) ** 2


def test_fermat_chart_form(fermat_pde):
    F = chart_form(fermat_pde, C02).poly
    assert F == (x2 - p1 * x1) ** 3 + p1**3 - 1


def test_chart_form_p_degree_bounded():
    for S in corpus_n2():
        for c in standard_atlas(2):
            F = chart_form(S, c).poly
            assert F
            assert F.group_degree("p") <= S.bidegree[1]


def _random_equation(rng, n):
    """A seeded bi-homogeneous equation on P_n with rational coefficients:
    bi-degree (delta, d), delta <= 2, d <= 4, one term a pure power u_k^d."""
    delta, d = rng.randint(0, 2), rng.randint(1, 4)

    def split(total):
        e = [0] * (n + 1)
        for _ in range(total):
            e[rng.randrange(n + 1)] += 1
        return e

    pure = [0] * (n + 1)
    pure[rng.randrange(n + 1)] = d
    exps = [(split(delta), pure)] + [(split(delta), split(d)) for _ in range(rng.randint(1, 5))]
    return MultiPoly(VarTable.bihomog(n), {
        tuple(a + b): Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        for a, b in exps})


def test_chart_form_matches_substitution_oracle():
    # the closed-form restriction against the generic substitution, on
    # every chart at n = 2, 3, 4: the samples, the benchmark's inputs (the
    # stretch web among them) and seeded equations of u-degree up to 4;
    # its coefficients are canonical, an int wherever the value is integral
    paths = sorted(SAMPLES.glob("*.json")) + sorted((PERFBENCH / "inputs").glob("*.json"))
    pdes = [S for path in paths for S in parse_input(str(path))[0].pdes]
    rng = random.Random(83)
    for n in (2, 3, 4):
        while sum(S.n == n for S in pdes) < 12:
            try:
                pdes.append(BiHomogPde(n, _random_equation(rng, n)))
            except UsageError:  # divisible by the incidence form
                pass
    assert {S.n for S in pdes} == {2, 3, 4}
    # with 1/2 u0^2 the cross term of (x2 - p1 x1)^2 / 2 is integral
    pdes.append(BiHomogPde(2, Fraction(1, 2) * U0**2 + U1**2))
    for S in pdes:
        for chart in standard_atlas(S.n):
            F = chart_form(S, chart).poly
            want, _ = substitute(S.poly, chart.substitution(), target=chart.table)
            assert F.vars is chart.table and F.terms == want.terms, (S.poly, chart)
            assert all(type(c) is int or type(c) is Fraction and c.denominator != 1
                       for c in F.terms.values()), (S.poly, chart)
    assert type(chart_form(pdes[-1], C02).poly.terms[(1, 1, 1)]) is int


def test_chart_substitution_is_a_fresh_copy():
    # the map is built once per chart; a caller that edits the dict it got
    # must not change what the next caller gets
    c = Chart(3, 1, 2)
    sub = c.substitution()
    forced = c.x(2) - c.p(0) * c.x(0) - c.p(3) * c.x(3)
    assert sub == {"X1": 1, "X0": c.x(0), "X2": c.x(2), "X3": c.x(3),
                   "u2": -1, "u0": c.p(0), "u3": c.p(3), "u1": forced}
    assert list(sub) == ["X1", "X0", "X2", "X3", "u2", "u0", "u3", "u1"]
    sub.clear()
    assert c.substitution()["u1"] == forced
    assert c == Chart(3, 1, 2) and hash(c) == hash(Chart(3, 1, 2))


def test_chart_form_rejects_another_charts_table():
    # p1^2 - x1 over chart (0,2)'s table is not a chart (0,1) form: read
    # as one, it would re-homogenize to an equation whose (0,1) form is
    # p2^2 - x1
    with pytest.raises(UsageError):
        ChartForm(Chart(2, 0, 1), p1**2 - x1)
    with pytest.raises(UsageError):
        ChartForm(Chart(3, 0, 2), p1**2 - x1)


# -- homogenization ---------------------------------------------------------


def test_rehomogenize_simple():
    h = rehomogenize(ChartForm(C02, p1))
    assert h.bidegree == (0, 1) and scalar_equal(h.poly, U1)


def test_rehomogenize_linear_example():
    h = rehomogenize(ChartForm(C02, x1 - p1))
    assert h.bidegree == (1, 1)
    assert chart_form(h, C02).poly == x1 - p1


def test_rehomogenize_cusp():
    h = rehomogenize(ChartForm(C02, p1**2 - x1))
    assert h.bidegree == (1, 2)
    assert scalar_equal(h.poly, X0 * U1**2 - X1 * U2**2)


def test_rehomogenize_rejects_weight_zero():
    with pytest.raises(UsageError):
        rehomogenize(ChartForm(C02, x1 + x2))


def test_rehomogenize_infeasible_declared_bidegree():
    with pytest.raises(UsageError):
        rehomogenize(ChartForm(C02, p1**2 - x1), bidegree=(0, 2))


def _random_chart_poly(rng, chart):
    """A seeded polynomial over the chart's table, total degree <= 3 per term."""
    width = len(chart.table.names)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = [0] * width
        for _ in range(rng.randint(0, 3)):
            e[rng.randrange(width)] += 1
        terms[tuple(e)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
    return MultiPoly(chart.table, terms)


@pytest.mark.parametrize("chart", [Chart(2, 0, 2), Chart(2, 1, 0), Chart(3, 0, 1), Chart(3, 2, 3)],
                         ids=str)
def test_rehomogenize_arbitrary_chart_polynomials(chart):
    rng = random.Random(chart.n * 100 + chart.i * 10 + chart.j)
    done = 0
    while done < 8:
        F = _random_chart_poly(rng, chart)
        if F.group_degree("p") < 1:
            continue
        form = ChartForm(chart, F)
        h = rehomogenize(form)
        delta, d = h.bidegree
        assert d == F.group_degree("p")
        assert chart_form(h, chart).poly == F
        # minimal: no equation one X-degree lower restricts to F
        with pytest.raises(UsageError):
            rehomogenize(form, bidegree=(delta - 1, d))
        assert chart_form(rehomogenize(form, bidegree=(delta + 1, d + 1)), chart).poly == F
        if d >= 2:
            with pytest.raises(UsageError, match="no polynomial homogenization"):
                rehomogenize(form, bidegree=(delta + 1, d - 1))
        done += 1


def test_round_trip_n2_corpus():
    for S in corpus_n2():
        for c in standard_atlas(2):
            back = rehomogenize(chart_form(S, c), bidegree=S.bidegree)
            assert pde_equiv(back, S), (S.poly.to_string(), c)


def test_round_trip_exact_for_canonical_reps():
    # corpus members avoid u0*X0 monomials, so the round trip is exact
    for S in corpus_n2()[:4]:
        back = rehomogenize(chart_form(S, C02), bidegree=S.bidegree)
        assert scalar_equal(back.poly, S.poly)


def test_round_trip_n3():
    bi3 = VarTable.bihomog(3)
    u = [MultiPoly.var(bi3, f"u{k}") for k in range(4)]
    X = [MultiPoly.var(bi3, f"X{k}") for k in range(4)]
    corpus = [
        BiHomogPde(3, u[1]**2 + u[2]**2 + u[3]**2 - u[0]**2),   # (0,2)
        BiHomogPde(3, X[0] * u[1]**2 - X[1] * u[3]**2),          # (1,2)
        BiHomogPde(3, X[0] * u[2] + X[2] * u[3] + X[3] * u[1]),  # (1,1)
        BiHomogPde(3, X[1]**2 * u[0]**2 + X[2]**2 * u[1]**2 + X[0] * X[3] * u[2] * u[3]),  # (2,2)
    ]
    for S in corpus:
        for c in (Chart(3, 0, 3), Chart(3, 1, 0), Chart(3, 2, 1)):
            back = rehomogenize(chart_form(S, c), bidegree=S.bidegree)
            assert pde_equiv(back, S)


# -- transitions ------------------------------------------------------------


def test_identity_transition():
    t = transition(C02, C02)
    assert t.jac_det == 1 and t.frame_det == 1
    assert dict(t.p_map)["p1"] == RatFunc(p1)
    assert dict(t.x_map)["x1"] == RatFunc(x1)


def test_swap_transition_reciprocal_slope():
    t = transition(C02, Chart(2, 0, 1))
    assert t.J[0][0] == 0 and t.J[0][1] == 1
    assert t.J[1][0] == 1 and t.J[1][1] == 0
    assert t.jac_det == -1
    assert t.K[0][0] == 0 and t.K[0][1] == -1
    assert t.K[1][0] == -1 and t.K[1][1] == 0
    pm = dict(t.p_map)["p2"]
    assert pm.num == 1 and pm.den == p1


def test_translation_frame_data():
    # x' = x + constant: identity Jacobian, unit frame factor
    J, K, jac_det, frame_det = frame_data_by_minors(C02, [x1 + 5, x2 - 3],
                                                    MultiPoly.const(T02, 1))
    assert jac_det == 1 and frame_det == 1
    assert J[0][0] == 1 and J[0][1] == 0 and J[1][1] == 1


def test_projective_transition_numeric():
    t = transition(C02, Chart(2, 1, 2))
    pt = {"x1": Fraction(2), "x2": Fraction(3), "p1": Fraction(5)}
    out = transport_point(t, pt)
    assert out == {"x0": Fraction(1, 2), "x2": Fraction(3, 2), "p0": Fraction(-7)}
    assert t.jac_det.evaluate(pt) == Fraction(-1, 8)
    assert t.frame_det.evaluate(pt) == Fraction(-1, 4)


def _transition_pairs(n):
    """Every ordered chart pair for n <= 3, a fixed seeded sample of 20 beyond."""
    pairs = list(itertools.product(standard_atlas(n), repeat=2))
    return pairs if n <= 3 else random.Random(4).sample(pairs, 20)


def _fraction_det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** r * m[r][0] * _fraction_det([row[1:] for t, row in enumerate(m) if t != r])
               for r in range(len(m)))


def _jk_identity(t):
    k = len(t.J)
    J, K = ([[Quotient.of(e) for e in row] for row in m] for m in (t.J, t.K))
    det = Quotient.of(t.jac_det)
    for r in range(k):
        for c in range(k):
            acc = Quotient(MultiPoly.zero(t.source.table))
            for m in range(k):
                acc = acc + J[r][m] * K[m][c]
            assert acc == (det if r == c else 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jacobian_adjugate_identity(n):
    rng = random.Random(n)
    for c1, c2 in _transition_pairs(n):
        t = transition(c1, c2)
        _jk_identity(t)
        # an independent determinant of J at a point catches a det/adjugate
        # pair that is off by the same factor (J K = det I would still hold)
        pt = _sample_point(rng, c1)
        J = [[e.evaluate(pt) for e in row] for row in t.J]
        assert t.jac_det.evaluate(pt) == _fraction_det(J), (c1, c2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_p_transition_matches_adjugate_formula(n):
    # the direct projective p-maps coincide with the quotient of the
    # adjugate contractions (symbolically, as rational functions)
    for c1, c2 in _transition_pairs(n):
        t = transition(c1, c2)
        K = [[Quotient.of(e) for e in row] for row in t.K]
        p = [Quotient(c1.p(k)) for k in c1.p_indices]
        nslot = len(K) - 1
        zero = Quotient(MultiPoly.zero(c1.table))
        denom = zero
        for b, pk in enumerate(p):
            denom = denom + pk * K[b][nslot]
        denom = denom - K[nslot][nslot]
        for a, (name, direct) in enumerate(t.p_map):
            numer = zero
            for b, pk in enumerate(p):
                numer = numer + pk * K[b][a]
            numer = numer - K[nslot][a]
            assert -(numer / denom) == Quotient.of(direct), (c1, c2, name)


def test_frame_data_matches_minor_oracle():
    # the closed-form package against the general minor expansion, entry
    # by entry as quotients: every ordered pair for n <= 3 (n = 1 included,
    # where no slot but i' exists and y^(n-2) is never taken), every chart
    # with itself at n = 4, and a fixed seeded sample of distinct pairs there
    pairs = [pair for n in (1, 2, 3) for pair in itertools.product(standard_atlas(n), repeat=2)]
    atlas4 = standard_atlas(4)
    pairs += [(c, c) for c in atlas4]
    pairs += random.Random(24).sample(list(itertools.permutations(atlas4, 2)), 64)
    assert len(pairs) == 4 + 36 + 144 + 20 + 64
    for c1, c2 in pairs:
        t = transition(c1, c2)
        sub = c1.substitution()
        J, K, jac_det, frame_det = frame_data_by_minors(
            c1, [sub[f"X{k}"] for k in c2.slot_indices], sub[f"X{c2.i}"])
        assert len(t.J) == len(t.K) == c1.n, (c1, c2)
        for mine, ref in ((t.J, J), (t.K, K)):
            assert all(a == b for row, ref_row in zip(mine, ref, strict=True)
                       for a, b in zip(row, ref_row, strict=True)), (c1, c2)
        assert t.jac_det == jac_det and t.frame_det == frame_det, (c1, c2)


def _at(m, pt):
    return [[e.evaluate(pt) for e in row] for row in m]


def _mat_mul(a, b):
    return [[sum(a[r][m] * b[m][c] for m in range(len(b))) for c in range(len(b[0]))]
            for r in range(len(a))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_transition_jacobian_chain_rule(n):
    # on a triple overlap, J(c1->c3) = J(c2->c3) at the image times J(c1->c2),
    # the adjugates compose the other way round, and det J is multiplicative
    rng = random.Random(100 + n)
    atlas = standard_atlas(n)
    done = 0
    while done < 40:
        c1, c2, c3 = rng.choice(atlas), rng.choice(atlas), rng.choice(atlas)
        t12, t23, t13 = transition(c1, c2), transition(c2, c3), transition(c1, c3)
        pt = _sample_point(rng, c1)
        try:
            img = transport_point(t12, pt)
            J12, J23, J13 = _at(t12.J, pt), _at(t23.J, img), _at(t13.J, pt)
            K12, K23, K13 = _at(t12.K, pt), _at(t23.K, img), _at(t13.K, pt)
            dets = [t.jac_det.evaluate(q) for t, q in ((t12, pt), (t23, img), (t13, pt))]
        except UsageError:
            continue  # the sample left a chart overlap; resample
        assert J13 == _mat_mul(J23, J12), (c1, c2, c3)
        assert K13 == _mat_mul(K12, K23), (c1, c2, c3)
        assert dets[2] == dets[1] * dets[0], (c1, c2, c3)
        done += 1


def _term_key(r: RatFunc):
    q = Quotient.of(r)
    return tuple(sorted((e, str(c)) for e, c in f.terms.items()) for f in (q.num, q.den))


def test_transition_digests():
    # the exact values in lowest terms: one SHA-256 over the sorted term
    # maps of the reduced quotients of every ordered pair of distinct charts
    # at n = 2, 3, 4
    h = hashlib.sha256()
    for n in (2, 3, 4):
        atlas = standard_atlas(n)
        for c1, c2 in itertools.permutations(atlas, 2):
            t = transition(c1, c2)
            data = ([(name, _term_key(r)) for name, r in t.x_map + t.p_map],
                    [[_term_key(e) for e in row] for row in t.J],
                    [[_term_key(e) for e in row] for row in t.K],
                    _term_key(t.jac_det), _term_key(t.frame_det))
            h.update(repr(data).encode())
    assert h.hexdigest() == "bff0d9af14cb124c231bf904247b8ce3f56c63db7f2f0ec0cbe4b2e0e263cc64"


def test_integer_inputs_stay_on_ints():
    # the kernel's fast path: chart substitutions, Jacobian minors and the
    # adjugate of integer data give int coefficients, never Fractions
    def polys(t):
        for r in (*t.maps.values(), *itertools.chain(*t.J, *t.K), t.jac_det, t.frame_det):
            yield from (r.num, r.den)

    count = 0
    for n in (2, 3, 4):
        for c1, c2 in itertools.permutations(standard_atlas(n), 2):
            count += 1
            assert all(type(c) is int for f in polys(transition(c1, c2))
                       for c in f.terms.values()), (c1, c2)
    assert count == 542
    samples = sorted(SAMPLES.glob("*.json"))
    assert len(samples) == 4
    for path in samples:
        for S in parse_input(str(path))[0].pdes:
            assert all(type(c) is int for c in S.poly.terms.values()), path.name
            for chart in standard_atlas(S.n):
                assert all(type(c) is int for c in chart_form(S, chart).poly.terms.values())


def test_transitions_keep_stated_denominators(monkeypatch):
    """Transitions take no gcd: each quotient stays over the denominator it
    is built with, den = X_{i'} read in the source chart.

    The coordinate maps keep their own denominators, J entries have den^2,
    K entries and the frame factor den^(2(n-1)), and the Jacobian
    determinant den^(2n).
    """
    calls = [0]
    gcd = polycore.multivar_gcd

    def counting(*args, **kwargs):
        calls[0] += 1
        return gcd(*args, **kwargs)

    for module in (polycore, idealcalc, contactgeom, webanalysis, cohomcalc, cli):
        for name, value in list(vars(module).items()):
            if value is gcd:
                monkeypatch.setattr(module, name, counting)
    n = 3
    pairs = [(c1, c2) for c1, c2 in itertools.product(standard_atlas(n), repeat=2) if c1 != c2]
    assert len(pairs) == 132
    for c1, c2 in pairs:
        t = transition(c1, c2)
        sub = c1.substitution()
        den = sub[f"X{c2.i}"]
        assert all(r.den == den for _, r in t.x_map), (c1, c2)
        assert all(r.den == sub[f"u{c2.j}"] for _, r in t.p_map), (c1, c2)
        assert all(e.den == den ** 2 for row in t.J for e in row), (c1, c2)
        assert all(e.den == den ** (2 * (n - 1)) for row in t.K for e in row), (c1, c2)
        assert t.frame_det.den == den ** (2 * (n - 1)), (c1, c2)
        assert t.jac_det.den == den ** (2 * n), (c1, c2)
    assert calls == [0]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_fits_the_program():
    # the benchmark wraps functions and methods by name and reads the
    # num/den of every transition entry; a rename or a changed field
    # shows here, not only in a full benchmark run
    tracer, witness = _load_perfbench("tracer"), _load_perfbench("witness")
    wrapped = {getattr(orig, "__qualname__", None) for _, _, orig, _ in tracer.Tracer()._patches()}
    assert {"RatFunc.__init__", "poly_det", "poly_adjugate", "transition"} <= wrapped
    rng = random.Random(18)
    for n in (2, 3, 4):
        pairs = list(itertools.permutations(standard_atlas(n), 2))
        for c1, c2 in rng.sample(pairs, 6):
            assert witness.transition_witness(transition(c1, c2), rng) is None, (c1, c2)


def _sample_point(rng, chart):
    return {name: Fraction(rng.randint(2, 19), rng.randint(1, 7))
            for name in chart.table.names}


def test_transition_coherence_at_points():
    rng = random.Random(77)
    atlas = standard_atlas(2)
    done = 0
    while done < 100:
        c1, c2, c3 = rng.choice(atlas), rng.choice(atlas), rng.choice(atlas)
        pt = _sample_point(rng, c1)
        try:
            ab = transport_point(transition(c1, c2), pt)
            bc = transport_point(transition(c2, c3), ab)
            direct = transport_point(transition(c1, c3), pt)
        except UsageError:
            continue  # sample hit a denominator; resample
        assert bc == direct
        done += 1


def test_transition_inverse_round_trip():
    rng = random.Random(78)
    atlas = standard_atlas(2)
    done = 0
    while done < 50:
        c1, c2 = rng.choice(atlas), rng.choice(atlas)
        pt = _sample_point(rng, c1)
        try:
            there = transport_point(transition(c1, c2), pt)
            back = transport_point(transition(c2, c1), there)
        except UsageError:
            continue
        assert back == pt
        done += 1


def test_transport_form_tracks_clearing():
    t = transition(C02, Chart(2, 0, 1))
    G = chart_form(corpus_n2()[0], Chart(2, 0, 1))
    N, D = transport_form(t, G)
    # cleared factor is a power of the p-map denominator p1
    assert D == p1 ** D.degree_in("p1")
    rng = random.Random(4)
    for _ in range(5):
        pt = _sample_point(rng, C02)
        moved = transport_point(t, pt)
        assert N.evaluate(pt) == D.evaluate(pt) * G.poly.evaluate(moved)


# -- covariance (the transformation law for chart forms) -------------------


def test_covariance_same_chart():
    for S in corpus_n2()[:3]:
        assert covariance_check(S, C02, C02)


def test_covariance_all_pairs_corpus():
    for S in corpus_n2():
        for c1, c2 in itertools.product(standard_atlas(2), repeat=2):
            assert covariance_check(S, c1, c2), (S.poly.to_string(), c1, c2)


def test_covariance_all_pairs_n3(monkeypatch):
    # the equation keeps its chart forms and its bi-degree: the 132-pair
    # sweep restricts it once per chart and never recomputes the bi-degree
    doc, _ = parse_input(str(SAMPLES / "mixed_n3.json"))
    S = doc.pdes[0]
    restricted, bidegrees = [], [0]
    restrict, bihomogeneous = contactgeom._restrict, contactgeom.is_bihomogeneous

    def counted_restrict(f, chart):
        if f is S.poly:
            restricted.append(chart)
        return restrict(f, chart)

    def counted_bihomogeneous(f):
        bidegrees[0] += 1
        return bihomogeneous(f)

    monkeypatch.setattr(contactgeom, "_restrict", counted_restrict)
    monkeypatch.setattr(contactgeom, "is_bihomogeneous", counted_bihomogeneous)
    pairs = [(c1, c2) for c1, c2 in itertools.product(standard_atlas(3), repeat=2) if c1 != c2]
    assert len(pairs) == 132
    for c1, c2 in pairs:
        assert covariance_check(S, c1, c2), (c1, c2)
    assert len(restricted) == 12
    assert bidegrees == [0]
    for c1 in standard_atlas(3):
        assert covariance_check(S, c1, c1)
    assert len(restricted) == 12


def test_covariance_n4_stretch_pairs():
    # the equations of perfbench/inputs/stretch_n4.json
    bi4 = VarTable.bihomog(4)
    X = [MultiPoly.var(bi4, f"X{k}") for k in range(5)]
    u = [MultiPoly.var(bi4, f"u{k}") for k in range(5)]
    web = [BiHomogPde(4, X[0] * u[1]**2 - X[1] * u[4]**2),
           BiHomogPde(4, u[2]**2 - u[1] * u[4]),
           BiHomogPde(4, u[3]**2 - u[2] * u[4])]
    pairs = [(Chart(4, 0, 4), Chart(4, 2, 1)), (Chart(4, 3, 0), Chart(4, 1, 4)),
             (Chart(4, 1, 2), Chart(4, 4, 3))]
    for S in web:
        for c1, c2 in pairs:
            assert covariance_check(S, c1, c2), (S.poly.to_string(), c1, c2)


@pytest.mark.parametrize("spoil", ["double", "negate", "overlap-unit", "other-equation"])
def test_covariance_rejects_a_wrong_form(monkeypatch, spoil):
    S = BiHomogPde(2, X0 * U1**2 - X1 * U2**2)
    other = BiHomogPde(2, X0 * U1**2 + X1 * U2**2)
    c1, c2 = Chart(2, 0, 2), Chart(2, 1, 0)
    assert covariance_check(S, c1, c2)
    honest = contactgeom.chart_form

    def spoiled(eq, chart):
        F = honest(eq, chart).poly
        if chart == c2:
            # x_{c1.i} = X0/X1 is a unit on the overlap, yet no chart form
            # of S carries it: the cocycle fixes the factor exactly
            F = {"double": 2 * F, "negate": -F, "overlap-unit": F * chart.x(c1.i),
                 "other-equation": honest(other, chart).poly}[spoil]
        return ChartForm(chart, F)

    monkeypatch.setattr(contactgeom, "chart_form", spoiled)
    assert not covariance_check(S, c1, c2)


def test_covariance_negative_control():
    a, b = corpus_n2()[0], corpus_n2()[1]
    F_a = chart_form(a, C02).poly
    F_b = chart_form(b, C02).poly
    assert not scalar_equal(F_a, F_b)
    # hybrid: compare the chart forms of two different equations through
    # the identity transition; the law cannot hold
    t = transition(C02, C02)
    N, D = transport_form(t, ChartForm(C02, F_b))
    assert not scalar_equal(N, D * F_a)


# -- duality ----------------------------------------------------------------


def test_dual_examples():
    lin = BiHomogPde(2, X0 * U1 + X1 * U0)
    d = dual_pde(lin)
    assert d.bidegree == (1, 1)
    assert scalar_equal(d.poly, X1 * U0 + X0 * U1)
    quad = BiHomogPde(2, X0**2 * U1 + X1**2 * U0)
    assert dual_pde(quad).bidegree == (1, 2)


def test_dual_of_algebraic_rejected(conic_pde):
    with pytest.raises(UsageError):
        dual_pde(conic_pde)


def test_dual_is_involution():
    for S in corpus_n2():
        if S.bidegree[0] >= 1:
            assert pde_equiv(dual_pde(dual_pde(S)), S)


def test_is_algebraic_pde(conic_pde, fermat_pde):
    assert is_algebraic_pde(conic_pde)
    assert is_algebraic_pde(fermat_pde)
    assert not is_algebraic_pde(BiHomogPde(2, X0 * U1**2 - X1 * U2**2))


def test_atlas_size():
    assert len(standard_atlas(2)) == 6
    assert len(standard_atlas(3)) == 12
