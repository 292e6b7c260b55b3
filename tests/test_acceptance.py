"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance here is exact equality of rationals
or integers; the runtime budgets are asserted, not just observed.
"""

import itertools
import random
import time
from fractions import Fraction
from math import comb, prod

from oracles import (
    chern_closed_form,
    chern_recursion,
    macaulay_certificate,
    macaulay_member,
    s_polynomial,
)
from webweave.cohomcalc import (
    XI,
    XI_PRIME,
    MultiDegreeData,
    bott_number,
    caustic_certificate,
    chern_T,
    nf,
    relation_class,
    script_N,
)
from webweave.contactgeom import (
    BiHomogPde,
    Chart,
    chart_form,
    covariance_check,
    pde_equiv,
    rehomogenize,
    standard_atlas,
    transition,
    transport_point,
)
from webweave.idealcalc import buchberger, normal_form
from webweave.polycore import MultiPoly, UsageError, VarTable, scalar_equal
from webweave.webanalysis import (
    CiWeb,
    caustic_generators,
    certify_algebraicity,
    chart_web_data,
    is_algebraic_web,
    is_dicritical,
    is_hyperdicritical,
    is_linearizable_pde,
    smoothness_chart_check,
    weight,
)

BI2 = VarTable.bihomog(2)
U0, U1, U2 = (MultiPoly.var(BI2, f"u{k}") for k in range(3))
X0, X1, X2 = (MultiPoly.var(BI2, f"X{k}") for k in range(3))
C02 = Chart(2, 0, 2)
T02 = C02.table
x1, x2, p1 = (MultiPoly.var(T02, n) for n in ("x1", "x2", "p1"))


class Budget:
    def __init__(self, label, seconds):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *rest):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"acceptance {self.label}: {verdict} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s budget"
        return False


def sample_multidegrees(count=200, seed=0):
    """Shared random tuples for the certificate criteria: n in {2,3,4},
    0 <= delta_a <= 3, 1 <= d_a <= 4, product of the d_a at least 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3, 4])
        pairs = tuple((rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n - 1))
        w = 1
        for _, d in pairs:
            w *= d
        if w >= 3:
            out.append(MultiDegreeData(n, pairs))
    return out


def test_criterion_1_clairaut_conic_web():
    with Budget("1 (Clairaut conic web)", 5.0):
        S = BiHomogPde(2, U1**2 + U2**2 - U0**2)
        assert S.bidegree == (0, 2)
        web = CiWeb(2, (S,))
        assert chart_form(S, C02).poly == p1**2 + 1 - (x2 - p1 * x1) ** 2
        for chart in standard_atlas(2):
            data = chart_web_data(web, chart)
            assert all(not e for e in data.contact_jacobian.entries)
        assert is_hyperdicritical(web).aggregated
        v = is_dicritical(web)
        assert v.aggregated and len(v.per_chart) == 6
        assert all(cv.status == "true" for cv in v.per_chart)
        assert is_algebraic_web(web)
        gens = caustic_generators(web, C02)
        assert len(gens) == 1
        assert scalar_equal(gens[0], x1**2 + x2**2 - 1)


def test_criterion_2_cusp_web():
    with Budget("2 (cusp web)", 5.0):
        from webweave.contactgeom import ChartForm

        S = rehomogenize(ChartForm(C02, p1**2 - x1))
        web = CiWeb(2, (S,))
        data = chart_web_data(web, C02)
        basis = data.critical_basis
        assert [g.to_string() for g in basis] == ["p1", "x1"]
        assert normal_form(MultiPoly.const(T02, -1), basis) == -1
        assert not is_dicritical(web).aggregated
        assert not is_linearizable_pde(S).aggregated
        gens = caustic_generators(web, C02)
        assert len(gens) == 1 and gens[0] == x1
        # the defining affine chart carries no singular point; the closure
        # does acquire boundary singularities in two other charts, which the
        # all-chart aggregate reports separately (see test_webanalysis)
        assert smoothness_chart_check(web, charts=[C02]).aggregated


def test_criterion_3_fermat_cubic_dual_web():
    with Budget("3 (Fermat cubic dual web)", 10.0):
        S = BiHomogPde(2, U0**3 + U1**3 + U2**3)
        web = CiWeb(2, (S,))
        assert weight(web) == 3
        rep = certify_algebraicity(web)
        assert rep.weight >= 3
        assert rep.dicritical.aggregated
        assert rep.multidegree == (0,) and rep.algebraic
        assert rep.smooth.aggregated
        assert not rep.contradiction
        assert rep.bott_bridge_ok and rep.caustic.nonzero
        assert not rep.notes


def test_criterion_4_cohomology_ring_suite():
    with Budget("4 (cohomology ring suite)", 5.0):
        for n in (2, 3, 4):
            assert nf(XI ** (n + 1), n) == 0
            assert nf(XI_PRIME ** (n + 1), n) == 0
            assert nf(relation_class(n), n) == 0
            # graded basis counts against the Poincare polynomial product
            for k in range(2 * n):
                count = sum(1 for i in range(n + 1) for j in range(n) if i + j == k)
                ref = sum(1 for a in range(n + 1) for b in range(n) if a + b == k)
                assert count == ref
            assert nf(XI ** (n - 1) * XI_PRIME**n, n) == XI**n * XI_PRIME ** (n - 1)
        # Chern classes in every dimension the CLI accepts: the free-ring
        # recursion equals the closed form, and chern_T reduces it
        for n in range(1, 13):
            for j in range(n + 1):
                closed = chern_closed_form(n, j)
                assert chern_recursion(n, j) == closed
                assert chern_T(n, j) == nf(closed, n)
            assert nf(chern_T(n, n), n) == 0


def test_criterion_5_bott_bridge():
    with Budget("5 (Bott pairing vs closed form)", 30.0):
        tuples = sample_multidegrees()
        assert len(tuples) == 200
        zero_seen = nonzero_seen = False
        for m in tuples:
            N = script_N(m)
            assert bott_number(m) == m.weight * N
            assert N >= 0
            all_zero = all(d == 0 for d, _ in m.pairs)
            assert (N == 0) == all_zero
            zero_seen = zero_seen or all_zero
            nonzero_seen = nonzero_seen or not all_zero
        assert zero_seen and nonzero_seen


def closed_form_caustic_coefficients(n, pairs):
    """a_i = sum_j C(3, j) e_(i-j) for i = 2..n, computed without the ring.

    e_k is the coefficient of xi^k xi'^(n-1-k) in prod(delta_a xi + d_a xi'):
    the sum over k-subsets S of the equations of
    prod_(a in S) delta_a * prod_(a not in S) d_a.
    """
    e = [sum(prod(pairs[a][0] if a in S else pairs[a][1] for a in range(n - 1))
             for S in itertools.combinations(range(n - 1), k))
         for k in range(n)]
    return tuple(sum(comb(3, j) * e[i - j] for j in range(4) if 0 <= i - j < n)
                 for i in range(2, n + 1))


def test_criterion_6_caustic_certificate():
    # Every factor of (xi+xi')^3 * prod(delta_a xi + d_a xi') has non-negative
    # coefficients, so with s = #{a : delta_a > 0} the coefficient a_i is
    # positive for i <= s+3 and zero beyond.  Zeros appear exactly when
    # s <= n-4; the certificate is nonzero for every multi-degree.
    with Budget("6 (caustic class certificate)", 30.0):
        tuples = sample_multidegrees()
        assert len(tuples) == 200
        pinned = {
            (2, ((0, 2),)): (6,),
            (4, ((0, 2), (0, 2), (0, 2))): (24, 8, 0),
            (5, ((2, 3), (0, 2), (0, 1), (0, 4))): (120, 72, 16, 0),
        }
        for (n, pairs), expected in pinned.items():
            assert closed_form_caustic_coefficients(n, pairs) == expected
            assert caustic_certificate(MultiDegreeData(n, pairs)).coefficients == expected
        cases = tuples + [MultiDegreeData(n, pairs) for n, pairs in pinned]
        zero_seen = False
        for m in cases:
            cert = caustic_certificate(m)
            label = (m.n, m.pairs, cert.coefficients)
            assert cert.nonzero, label  # the caustic class itself never vanishes
            assert cert.coefficients == closed_form_caustic_coefficients(m.n, m.pairs), label
            s = sum(1 for delta, _ in m.pairs if delta > 0)
            law = tuple(1 if i <= s + 3 else 0 for i in range(2, m.n + 1))
            assert tuple((a > 0) - (a < 0) for a in cert.coefficients) == law, label
            assert cert.all_positive == (s >= m.n - 3), label
            zero_seen = zero_seen or not cert.all_positive
        assert zero_seen  # the s <= n-4 corner is exercised


def test_criterion_7_covariance_suite():
    with Budget("7 (covariance suite)", 60.0):
        corpus = [
            BiHomogPde(2, U1**2 + U2**2 - U0**2),
            BiHomogPde(2, U0**3 + U1**3 + U2**3),
            BiHomogPde(2, X0 * U1**2 - X1 * U2**2),
            BiHomogPde(2, X0 * U1 + X1 * U0),
            BiHomogPde(2, X0**2 * U1 + X1**2 * U0),
            BiHomogPde(2, X0 * U1**3 + X2 * U0 * U2**2 + X1 * U2**3),
            BiHomogPde(2, X0**3 * U1**2 + X1 * X2**2 * U0**2 + X1**3 * U2**2),
        ]
        assert len(corpus) >= 5
        atlas = standard_atlas(2)
        for S in corpus:
            delta, d = S.bidegree
            assert delta <= 3 and d <= 3
            for c1, c2 in itertools.product(atlas, repeat=2):
                assert covariance_check(S, c1, c2), (S.poly.to_string(), c1, c2)
            for c in atlas:
                back = rehomogenize(chart_form(S, c), bidegree=S.bidegree)
                assert pde_equiv(back, S)


def test_criterion_8_ideal_engine_oracle():
    with Budget("8 (ideal engine vs Macaulay oracle)", 60.0):
        rng = random.Random(31337)
        table = VarTable.plain(("a", "b", "c"))
        checked = 0
        while checked < 50:
            gens = []
            for _ in range(rng.randint(2, 3)):
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    e = tuple(rng.randint(0, 1) for _ in range(3))
                    if rng.random() < 0.4:
                        e = tuple(min(3, a + rng.randint(0, 2)) for a in e)
                    if sum(e) > 3:
                        continue
                    v = rng.randint(-3, 3)
                    if v:
                        terms[e] = terms.get(e, 0) + v
                g = MultiPoly(table, {e: c for e, c in terms.items() if c})
                if g:
                    gens.append(g)
            if len(gens) < 2:
                continue
            basis = buchberger(gens)
            for f1, f2 in itertools.combinations(basis.generators, 2):
                assert normal_form(s_polynomial(f1, f2, basis.order), basis) == 0
            combo = MultiPoly.zero(table)
            for g in gens:
                m = tuple(rng.randint(0, 1) for _ in range(3))
                combo = combo + MultiPoly.monomial(table, m, rng.randint(-2, 2)) * g
            arbitrary = MultiPoly(table, {tuple(rng.randint(0, 2) for _ in range(3)):
                                          rng.randint(-2, 2) for _ in range(2)})
            for f in (combo, arbitrary):
                if not f:
                    continue
                verdict = not normal_form(f, basis)
                if verdict:
                    assert macaulay_member(f, gens), (f, gens)
                else:
                    assert not macaulay_certificate(f, gens, f.total_degree() + 2)
                checked += 1


def test_criterion_9_transition_formulas():
    with Budget("9 (transition formulas)", 5.0):
        t = transition(C02, Chart(2, 0, 1))
        pm = dict(t.p_map)["p2"]
        assert pm.num == 1 and pm.den == p1  # reciprocal slope under the swap
        rng = random.Random(99)
        atlas = standard_atlas(2)
        done = 0
        while done < 100:
            c1, c2, c3 = rng.choice(atlas), rng.choice(atlas), rng.choice(atlas)
            pt = {name: Fraction(rng.randint(2, 23), rng.randint(1, 5))
                  for name in c1.table.names}
            try:
                two_step = transport_point(transition(c2, c3),
                                           transport_point(transition(c1, c2), pt))
                direct = transport_point(transition(c1, c3), pt)
            except UsageError:
                continue
            assert two_step == direct
            done += 1
