"""Kernel arithmetic: exactness, derived-value examples, and ring laws."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import from_sympy, matrix_product, resultant, to_sympy
from test_cli import REPORT_DIGESTS, SAMPLES, _without_input
from test_cohomcalc import _cohomcalc_sweep
from test_idealcalc import _count_gcd_eliminations
from webweave import polycore
from webweave.cli import COMMANDS, main, parse_input
from webweave.cohomcalc import _XI_PRIME_FIRST
from webweave.contactgeom import covariance_check, standard_atlas, transition
from webweave.idealcalc import buchberger, normal_form
from webweave.polycore import (
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    PolyMatrix,
    UsageError,
    VarTable,
    exact_divide,
    integer_primitive,
    is_bihomogeneous,
    multivar_gcd,
    partial_derivative,
    poly_adjugate,
    poly_det,
    scalar_equal,
    substitute,
)
from webweave.polycore import _EVAL_SHIFTS, _MODULUS, _coprime_by_evaluation, _eval_point

T = VarTable.chart(2, 0, 2)
X1, X2, P1 = (MultiPoly.var(T, n) for n in ("x1", "x2", "p1"))


def rand_poly(rng, table=T, max_terms=4, max_exp=2, max_coeff=4):
    width = len(table.names)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(width))
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[exps] = terms.get(exps, 0) + c
    return MultiPoly(table, {e: c for e, c in terms.items() if c})


# -- ring operations ----------------------------------------------------


def test_difference_of_squares():
    assert (X1 + P1) * (X1 - P1) == X1**2 - P1**2


def test_zero_absorbs():
    f = X1**2 + 3 * P1
    assert f * 0 == MultiPoly.zero(T)
    assert f + 0 == f


def test_expansion_example():
    assert (X2 - P1 * X1) ** 2 == X2**2 - 2 * P1 * X1 * X2 + P1**2 * X1**2


def test_mismatched_tables_rejected():
    other = VarTable.chart(2, 0, 1)
    with pytest.raises(UsageError):
        X1 + MultiPoly.var(other, "x1")


# -- the public constructor's checks ------------------------------------


def _canonical_coefficient(c) -> bool:
    """A nonzero int that is not a bool, or a nonzero Fraction: the only
    coefficient values a term dict may hold (never a float or a zero)."""
    return type(c) in (int, Fraction) and c != 0


def test_constructor_rejects_wrong_width():
    with pytest.raises(UsageError, match="length"):
        MultiPoly(T, {(1, 0): 1})
    with pytest.raises(UsageError, match="length"):
        MultiPoly(T, {(0, 0, 0): 1, (1, 0, 0, 0): 2})


def test_constructor_rejects_negative_exponent():
    with pytest.raises(UsageError, match="negative exponent"):
        MultiPoly(T, {(1, -1, 0): 1})


def test_constructor_rejects_float_coefficient():
    with pytest.raises(UsageError, match="exact rationals"):
        MultiPoly(T, {(1, 0, 0): 0.5})
    with pytest.raises(UsageError, match="exact rationals"):
        X1 * 0.5


def test_constructor_drops_zero_coefficients():
    f = MultiPoly(T, {(1, 0, 0): 0, (0, 1, 0): Fraction(0), (0, 0, 1): 2})
    assert f.terms == {(0, 0, 1): 2}
    assert all(_canonical_coefficient(c) for c in f.terms.values())
    assert not MultiPoly(T, {(2, 0, 0): 0})


small = st.integers(min_value=-4, max_value=4)
exps3 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polys = st.dictionaries(exps3, small, min_size=0, max_size=4).map(
    lambda d: MultiPoly(T, d))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_leibniz_rule(f, g):
    for v in ("x1", "p1"):
        lhs = partial_derivative(f * g, v)
        rhs = f * partial_derivative(g, v) + g * partial_derivative(f, v)
        assert lhs == rhs


# -- derivatives --------------------------------------------------------


def test_derivative_examples():
    assert partial_derivative(P1**2 - X1, "p1") == 2 * P1
    assert partial_derivative(MultiPoly.const(T, 7), "x1") == 0
    F = (X2 - P1 * X1) ** 2 + P1**2 - 1
    assert partial_derivative(F, "x1") == -2 * P1 * (X2 - P1 * X1)


def test_unknown_variable_rejected():
    with pytest.raises(UsageError):
        partial_derivative(P1, "q9")


# -- substitution -------------------------------------------------------


def test_substitute_inversion():
    g, cleared = substitute(P1, {"p1": (MultiPoly.const(T, 1), P1)})
    assert g == 1 and cleared == P1


def test_substitute_identity():
    g, cleared = substitute(X1 + X2, {})
    assert g == X1 + X2 and cleared == 1


def test_substitute_clearing_example():
    g, cleared = substitute(P1**2 - X1, {"p1": (1 - X1, X2)})
    assert g == (1 - X1) ** 2 - X1 * X2**2
    assert cleared == X2**2


def test_substitute_zero_denominator_rejected():
    with pytest.raises(UsageError):
        substitute(P1, {"p1": (X1, MultiPoly.zero(T))})


def test_substitute_round_trip_through_inverse():
    # applying p1 -> 1/p1 twice: the result is (tracked denominators) * f
    # as rational functions, checked at sample points off the denominators
    f = P1**3 + X1 * P1
    inv = {"p1": (MultiPoly.const(T, 1), P1)}
    g, d1 = substitute(f, inv)
    h, d2 = substitute(g, inv)
    rng = random.Random(1)
    for _ in range(10):
        pt = {"x1": Fraction(rng.randint(1, 9)), "x2": Fraction(rng.randint(1, 9)),
              "p1": Fraction(rng.randint(1, 9))}
        flipped = dict(pt, p1=1 / pt["p1"])
        assert g.evaluate(pt) == d1.evaluate(pt) * f.evaluate(flipped)
        assert h.evaluate(pt) == d2.evaluate(pt) * d1.evaluate(flipped) * f.evaluate(pt)


def test_substitute_into_another_table():
    # the path of chart forms and transported forms: f over the
    # bi-homogeneous table, every value over a chart table, all but X0's
    # with a non-constant denominator; g = D * f(map) off the poles
    B = VarTable.bihomog(2)
    rng = random.Random(17)
    checked = 0
    for _ in range(6):
        f = rand_poly(rng, B, max_terms=5)
        plain = rand_poly(rng)
        ratios = {v: (rand_poly(rng), rand_poly(rng, max_terms=2) * X1 + X2 + 2)
                  for v in B.names[1:]}
        g, D = substitute(f, {"X0": plain, **ratios}, target=T)
        expected_D = MultiPoly.const(T, 1)
        for v, (_, den) in ratios.items():
            expected_D = expected_D * den ** f.degree_in(v)
        assert g.vars == T and D == expected_D
        for _ in range(8):
            pt = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for v in T.names}
            dens = {v: den.evaluate(pt) for v, (_, den) in ratios.items()}
            if 0 in dens.values():
                continue
            image = {v: num.evaluate(pt) / dens[v] for v, (num, _) in ratios.items()}
            image["X0"] = plain.evaluate(pt)
            assert g.evaluate(pt) == D.evaluate(pt) * f.evaluate(image)
            checked += 1
    assert checked >= 40
    del ratios["u1"]
    with pytest.raises(UsageError, match="'u1' is not mapped"):
        substitute(MultiPoly.var(B, "X1") * MultiPoly.var(B, "u1"), ratios, target=T)


# -- degrees and bi-homogeneity ----------------------------------------


def test_group_degree():
    F = (X2 - P1 * X1) ** 2 + P1**2 - 1
    assert F.group_degree("x") == 2
    assert F.group_degree("p") == 2
    assert X1.group_degree("p") == 0


BI = VarTable.bihomog(2)
U0, U1, U2 = (MultiPoly.var(BI, f"u{k}") for k in range(3))
XX0, XX1 = MultiPoly.var(BI, "X0"), MultiPoly.var(BI, "X1")


def test_bihomogeneous_examples():
    assert is_bihomogeneous(U1**2 + U2**2 - U0**2) == (0, 2)
    assert is_bihomogeneous(XX0 * U1 + XX1 * U0) == (1, 1)
    assert is_bihomogeneous(XX0 * U1**2 + XX1 * U0) is None


def test_bihomogeneous_zero_rejected():
    with pytest.raises(UsageError):
        is_bihomogeneous(MultiPoly.zero(BI))


# -- determinants and adjugates -----------------------------------------


def test_det_2x2_example():
    M = PolyMatrix.from_rows([[X1, MultiPoly.const(T, 1)], [P1, X1]])
    assert poly_det(M) == X1**2 - P1


def test_adjugate_2x2_example():
    a, b, c, d = X1, X2, P1, X1 * P1
    M = PolyMatrix.from_rows([[a, b], [c, d]])
    adj = poly_adjugate(M)
    assert adj.at(0, 0) == d and adj.at(0, 1) == -b
    assert adj.at(1, 0) == -c and adj.at(1, 1) == a


def test_diagonal_det_and_adjugate():
    zero, one = MultiPoly.zero(T), MultiPoly.const(T, 1)
    M = PolyMatrix.from_rows([[2 * P1, zero], [zero, one]])
    assert poly_det(M) == 2 * P1
    adj = poly_adjugate(M)
    assert adj.at(0, 0) == 1 and adj.at(1, 1) == 2 * P1


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_adjugate_identity_random(size):
    rng = random.Random(size * 11)
    for _ in range(8):
        M = PolyMatrix.from_rows(
            [[rand_poly(rng, max_terms=2, max_exp=1, max_coeff=3)
              for _ in range(size)] for _ in range(size)])
        det = poly_det(M)
        prod = matrix_product(M, poly_adjugate(M))
        for r in range(size):
            for c in range(size):
                assert prod.at(r, c) == (det if r == c else 0)


def _oracle_matrices():
    """Seeded square matrices of size 1-6, about a third of the entries
    zero, then one rank-deficient 4x4 (last row a polynomial combination of
    the first two)."""
    rng = random.Random(17)
    zero = MultiPoly.zero(T)
    mats = [[[zero if rng.random() < 0.35 else rand_poly(rng, max_terms=2, max_exp=1, max_coeff=3)
              for _ in range(size)] for _ in range(size)]
            for size in range(1, 7)]
    rows = [[rand_poly(rng, max_terms=2, max_exp=1, max_coeff=3) for _ in range(4)]
            for _ in range(3)]
    rows.append([X1 * a - 2 * b for a, b in zip(rows[0], rows[1])])
    return mats + [rows]


def test_det_and_adjugate_match_sympy():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(T.names)

    def back(expr):
        return from_sympy(sympy, sympy.Poly(expr, *syms, domain="QQ"), T)

    mats = _oracle_matrices()
    for rows in mats:
        M = PolyMatrix.from_rows(rows)
        S = sympy.Matrix([[to_sympy(sympy, e, syms) for e in row] for row in rows])
        assert poly_det(M) == back(S.det(method="berkowitz")), rows
        want = S.adjugate()
        adj = poly_adjugate(M)
        assert all(adj.at(r, c) == back(want[r, c])
                   for r in range(M.rows) for c in range(M.cols)), rows
    assert not poly_det(PolyMatrix.from_rows(mats[-1]))  # the rank-deficient one


def test_non_square_rejected():
    M = PolyMatrix.from_rows([[X1, X2]])
    with pytest.raises(UsageError):
        poly_det(M)


@pytest.mark.parametrize("rows", [[], [[]]])
def test_empty_matrix_rejected(rows):
    with pytest.raises(UsageError, match="dimensions must be positive"):
        PolyMatrix.from_rows(rows)


# -- resultants ---------------------------------------------------------


def test_resultant_cusp_example():
    assert resultant(P1**2 - X1, 2 * P1, "p1") == -4 * X1


def test_resultant_clairaut_discriminant():
    # quadratic a p^2 + b p + c with a = x1^2-1, disc = 4(x1^2+x2^2-1):
    # the resultant is a * (4ac - b^2), the leading coefficient times -disc
    F = (X2 - P1 * X1) ** 2 - P1**2 - 1
    res = resultant(F, partial_derivative(F, "p1"), "p1")
    circle = X1**2 + X2**2 - 1
    assert res == -4 * (X1**2 - 1) * circle
    assert exact_divide(res, circle) is not None


def test_resultant_constant_cases():
    assert resultant(P1**2 - X1, MultiPoly.const(T, 1), "p1") == 1
    assert resultant(MultiPoly.const(T, 3), P1**2, "p1") == 9
    with pytest.raises(UsageError):
        resultant(MultiPoly.zero(T), MultiPoly.zero(T), "p1")


def test_resultant_lies_in_ideal():
    rng = random.Random(9)
    for _ in range(6):
        f = rand_poly(rng, max_terms=3, max_exp=2, max_coeff=2)
        g = rand_poly(rng, max_terms=3, max_exp=2, max_coeff=2)
        if f.degree_in("p1") == 0 or g.degree_in("p1") == 0:
            continue
        res = resultant(f, g, "p1")
        assert not normal_form(res, buchberger([f, g]))


# -- gcd ----------------------------------------------------------------


def test_gcd_examples():
    assert multivar_gcd([2 * X1, 4 * X1**2]) == X1
    assert multivar_gcd([X1 + 1, X1 - 1]) == 1
    assert multivar_gcd([X1**2 - X2**2, X1**2 + 2 * X1 * X2 + X2**2]) == X1 + X2


def test_gcd_all_zero_rejected():
    with pytest.raises(UsageError):
        multivar_gcd([MultiPoly.zero(T)])


def test_gcd_divides_inputs():
    rng = random.Random(13)
    for _ in range(10):
        base = rand_poly(rng, max_terms=2, max_exp=1, max_coeff=2)
        if not base:
            continue
        f = base * rand_poly(rng, max_terms=2, max_exp=1, max_coeff=2)
        g = base * rand_poly(rng, max_terms=2, max_exp=1, max_coeff=2)
        if not f or not g:
            continue
        got = multivar_gcd([f, g])
        assert exact_divide(f, got) is not None
        assert exact_divide(g, got) is not None
        assert exact_divide(got, base) is not None  # common factor recovered


def _sympy_poly(sympy, f, syms):
    return sympy.Poly(to_sympy(sympy, f, syms), *syms, domain="QQ")


def _rand_monomial(rng, coeff=1):
    return MultiPoly.monomial(T, [rng.randint(0, 2) for _ in T.names], coeff)


def test_gcd_with_monomial_operand_matches_sympy():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(T.names)
    rng = random.Random(29)
    for k in range(30):
        f = rand_poly(rng, max_terms=4, max_exp=3)
        if not f:
            continue
        f = f * _rand_monomial(rng)  # often a nontrivial monomial gcd
        m = _rand_monomial(rng, Fraction(-3, 2) if k % 2 else 1)
        want = from_sympy(sympy, sympy.gcd(_sympy_poly(sympy, f, syms),
                                           _sympy_poly(sympy, m, syms)), T)
        for pair in ([f, m], [m, f]):
            got = multivar_gcd(pair)
            assert scalar_equal(got, want), (f, m, got, want)
            assert len(got.terms) == 1 and got.leading()[1] == 1
        for c in (MultiPoly.const(T, 5), MultiPoly.const(T, Fraction(-2, 7))):
            assert multivar_gcd([f, c]) == 1
            assert multivar_gcd([c, f]) == 1


def test_exact_divide_by_monomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(T.names)
    rng = random.Random(31)
    outcomes = set()
    for k in range(40):
        h = rand_poly(rng, max_terms=4, max_exp=2)
        if not h:
            continue
        m = _rand_monomial(rng, Fraction(3, 2) if k % 3 else -2)
        f = h * m if k % 2 else h
        q, r = sympy.div(_sympy_poly(sympy, f, syms), _sympy_poly(sympy, m, syms))
        got = exact_divide(f, m)
        if r.is_zero:
            assert got == from_sympy(sympy, q, T)
        else:
            assert got is None
        outcomes.add(got is None)
    assert outcomes == {True, False}


def _multi_term_poly(rng, table, **kw):
    while len((f := rand_poly(rng, table, **kw)).terms) < 2:
        pass
    return f


DIVIDE_TABLES = [T, VarTable.chart(3, 0, 1)]


@pytest.mark.parametrize("table", DIVIDE_TABLES, ids=["3vars", "5vars"])
def test_exact_divide_by_multi_term_matches_sympy(table):
    # h * g is divisible by construction; adding one rational term to it
    # (almost always) is not, and then the heap division must return None
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(table.names)
    rng = random.Random(43)
    scales = (Fraction(1), Fraction(-2, 3), Fraction(3, 2), Fraction(5, 7))
    outcomes = set()
    for k in range(40):
        g = _multi_term_poly(rng, table, max_terms=3, max_exp=2) * rng.choice(scales)
        h = rand_poly(rng, table, max_terms=4, max_exp=2) * rng.choice(scales)
        f = h * g
        if k % 2:
            f = f + MultiPoly.monomial(table, [rng.randint(0, 2) for _ in table.names],
                                       rng.choice(scales))
        q, r = sympy.div(_sympy_poly(sympy, f, syms), _sympy_poly(sympy, g, syms))
        got = exact_divide(f, g)
        if r.is_zero:
            assert got == from_sympy(sympy, q, table), (f, g)
            if not k % 2:
                assert got == h
        else:
            assert got is None, (f, g)
        outcomes.add(got is None)
    assert outcomes == {True, False}


# -- packed monomials ---------------------------------------------------


PACKED_ORDERS = [
    (GREVLEX, 5),
    (LEX, 5),
    (MonomialOrder("block", (0, 3), (1, 2, 4)), 5),
    (_XI_PRIME_FIRST, 2),
]


def _rand_exps(rng, nvars, top):
    """Exponent vectors with many fields at 0, 1 and the top of the width."""
    return tuple(rng.choice((0, 1, top - 1, top, rng.randint(0, top))) for _ in range(nvars))


@pytest.mark.parametrize("width", [3, 7, 15])
@pytest.mark.parametrize("order, nvars", PACKED_ORDERS,
                         ids=["grevlex", "lex", "block", "xi-prime-first"])
def test_packed_entries_order_as_the_key(order, nvars, width):
    # a larger entry is a smaller monomial, so heapq pops the largest first
    pk = polycore._packing(order, nvars, width)
    rng = random.Random(width * 10 + nvars)
    vecs = list(dict.fromkeys(_rand_exps(rng, nvars, (1 << width) - 1) for _ in range(400)))
    entries = {pk.entry(e): e for e in vecs}
    assert len(entries) == len(vecs)
    assert all(pk.exps(t) == e for t, e in entries.items())
    assert [entries[t] for t in sorted(entries, reverse=True)] == sorted(vecs, key=order.key)


@pytest.mark.parametrize("width", [3, 7, 15])
def test_packed_divisibility_lcm_and_overflow_match_tuples(width):
    pk = polycore._packing(GREVLEX, 4, width)
    top = (1 << width) - 1
    rng = random.Random(width)
    divisible = 0
    for k in range(600):
        a = _rand_exps(rng, 4, top)
        b = (_rand_exps(rng, 4, top) if k % 2
             else tuple(min(top, x + rng.randint(0, 2)) for x in a))
        ea, eb = pk.entry(a), pk.entry(b)
        ma, mb = ea & pk.mask, eb & pk.mask
        divides = all(x <= y for x, y in zip(a, b))
        divisible += divides
        assert (not (eb - ea) & pk.guards) == divides
        assert (not (mb - ma) & pk.guards) == divides
        assert pk.exps(pk.lcm(ma, mb)) == tuple(map(max, a, b))
        assert (pk.lcm(ma, mb) == ma + mb) == (not any(map(min, a, b)))
        product = tuple(x + y for x, y in zip(a, b))
        overflow = max(product) > top
        assert bool((ea + eb) & pk.guards) == overflow
        if not overflow:
            assert ea + eb == pk.entry(product)
    assert divisible >= 250


def test_widening_keeps_exact_quotients(narrow_packings):
    # x1 x2 fits 1-bit fields, but dividing by x1 + x2 makes x2^2
    assert exact_divide(X1 * X2, X1 + X2) is None
    calls, attempts = narrow_packings
    assert attempts > calls
    for table in DIVIDE_TABLES:
        test_exact_divide_by_multi_term_matches_sympy(table)
    test_int_operands_divide_exactly()


@pytest.mark.parametrize("table, max_exp", [(T, 2), (VarTable.chart(3, 0, 1), 1)],
                         ids=["3vars", "5vars"])
def test_coprimality_certificate_matches_sympy(table, max_exp):
    # random pairs are mostly coprime; h * a and h * b plant a multi-term
    # common factor, which the certificate must never call coprime
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(table.names)
    rng = random.Random(37)
    certified = 0
    for k in range(60):
        f, g = (_multi_term_poly(rng, table, max_terms=4, max_exp=max_exp) for _ in range(2))
        if k % 2:
            h = _multi_term_poly(rng, table, max_terms=3, max_exp=1)
            f, g = h * f, h * g
        want = from_sympy(sympy, sympy.gcd(_sympy_poly(sympy, f, syms),
                                           _sympy_poly(sympy, g, syms)), table)
        assert scalar_equal(multivar_gcd([f, g]), want), (f, g, want)
        if k % 2:
            assert not want.is_constant()
        if _coprime_by_evaluation(f, g):
            assert want.is_constant(), (f, g, want)
            certified += 1
    assert certified >= 15


def test_coprimality_certificate_falls_back():
    # points where f's leading coefficient vanishes are skipped, and a
    # shared root at one point sends the certificate on to the next point;
    # only when no point proves a variable absent does it give up, and
    # "no proof" is not "common factor"
    first = _eval_point(len(T.names), _EVAL_SHIFTS[0])
    x2_values = [_eval_point(len(T.names), s)[1] for s in _EVAL_SHIFTS]
    unlucky_first = (X2 - first[1]) * X1 + 1
    assert _coprime_by_evaluation(unlucky_first, X1 + X2)
    # the images in x1 share the root x1 = x2 at the first point only
    assert _coprime_by_evaluation(X1 - X2, X1 + X2 - 2 * first[1])
    unlucky_all = MultiPoly.const(T, 1)
    for a in x2_values:
        unlucky_all = unlucky_all * (X2 - a)
    shared_root_everywhere = (X1 - X2, X1 - X2 + unlucky_all)
    unlucky_all = unlucky_all * X1 + 1
    for f, g in ((unlucky_all, X1 + X2), shared_root_everywhere):
        assert not _coprime_by_evaluation(f, g)
        assert multivar_gcd([f, g]) == 1
        assert multivar_gcd([g, f]) == 1


def test_coprimality_certificate_skips_points_where_the_modulus_divides():
    # a leading coefficient of 2^61 - 1 vanishes modulo the certificate's
    # prime at every point, so no point is used for x1; 2^61 does not
    for lead, certified in ((_MODULUS, False), (_MODULUS + 1, True)):
        f = lead * X1 * X2 + X2 + 1
        assert _coprime_by_evaluation(f, X1 + X2) is certified
        assert multivar_gcd([f, X1 + X2]) == 1


@pytest.mark.parametrize("table", DIVIDE_TABLES, ids=["3vars", "5vars"])
def test_gcd_exits_match_sympy(table, monkeypatch):
    # planted monomial factors (split off before any other exit), planted
    # scalar multiples (returned without an elimination) and planted
    # multi-term factors, which the certificate must never call coprime
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(table.names)
    rng = random.Random(71)
    eliminations = _count_gcd_eliminations(monkeypatch)
    width = len(table.names)
    for k in range(45):
        a, b = (_multi_term_poly(rng, table, max_terms=4, max_exp=2) for _ in range(2))
        m1, m2 = (MultiPoly.monomial(table, [rng.randint(0, 2) for _ in range(width)],
                                     Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
                  for _ in range(2))
        before = eliminations[0]
        if k % 3 == 0:
            f, g = m1 * a, m2 * b
        elif k % 3 == 1:
            f = m1 * a
            g = f * Fraction(rng.choice([-5, -1, 2, 7]), rng.randint(1, 4))
        else:
            h = _multi_term_poly(rng, table, max_terms=3, max_exp=1)
            f, g = m1 * h * a, m2 * h * b
            assert not _coprime_by_evaluation(f, g), (f, g)
            assert not _coprime_by_evaluation(h * a, h * b), (h, a, b)
        want = from_sympy(sympy, sympy.gcd(_sympy_poly(sympy, f, syms),
                                           _sympy_poly(sympy, g, syms)), table)
        for pair in ([f, g], [g, f]):
            got = multivar_gcd(pair)
            assert scalar_equal(got, want), (pair, got, want)
            assert all(type(c) is int for c in got.terms.values())
        if k % 3 == 1:
            assert eliminations[0] == before


def _poly_with_terms(rng, table, max_exp, terms):
    """A polynomial with exactly ``terms`` terms, each exponent at most
    ``max_exp``, and small nonzero integer coefficients."""
    width = len(table.names)
    out = {}
    while len(out) < terms:
        exps = tuple(rng.randint(0, max_exp) for _ in range(width))
        out.setdefault(exps, rng.choice([-3, -2, -1, 1, 2, 3]))
    return MultiPoly(table, out)


PLANTED_TABLES = {3: T, 4: VarTable.plain(("a", "b", "c", "d")), 5: VarTable.chart(3, 0, 1)}


@pytest.mark.parametrize("nvars", sorted(PLANTED_TABLES))
@pytest.mark.parametrize("seed", range(6))
def test_gcd_of_planted_common_factor_matches_sympy(nvars, seed):
    # a * h and b * h share h, so no certificate applies and the gcd is
    # the engine's elimination; each pair must finish well inside a second
    sympy = pytest.importorskip("sympy")
    table = PLANTED_TABLES[nvars]
    syms = sympy.symbols(table.names)
    rng = random.Random(1000 * nvars + seed)
    a, b, h = (_poly_with_terms(rng, table, rng.randint(2, 3), rng.randint(5, 6))
               for _ in range(3))
    f, g = a * h, b * h
    start = time.process_time()
    got = multivar_gcd([f, g])
    assert time.process_time() - start < 1.0
    want = from_sympy(sympy, sympy.gcd(_sympy_poly(sympy, f, syms),
                                       _sympy_poly(sympy, g, syms)), table)
    assert scalar_equal(got, want), (f, g, got, want)
    assert exact_divide(got, h) is not None


def test_integer_primitive_normalization():
    c, prim = integer_primitive(Fraction(-6, 4) * X1**2 + 3 * X1)
    assert prim == X1**2 - 2 * X1
    _, lead = prim.leading()
    assert lead > 0
    assert c * prim == Fraction(-6, 4) * X1**2 + 3 * X1


def test_scalar_equal():
    assert scalar_equal(2 * X1 + 2, X1 + 1)
    assert not scalar_equal(X1 + 1, X1 - 1)
    assert scalar_equal(MultiPoly.zero(T), MultiPoly.zero(T))


def test_integral_coefficients_are_ints():
    e = (1, 0, 0)
    for f, want in ((MultiPoly(T, {e: True}), 1), (MultiPoly.const(T, Fraction(4, 2)), 2),
                    (MultiPoly(T, {e: Fraction(-6, 3)}), -2)):
        (c,) = f.terms.values()
        assert type(c) is int and c == want
    assert type(MultiPoly(T, {e: Fraction(3, 2)}).terms[e]) is Fraction


def test_int_operands_divide_exactly():
    # int coefficients meet in quotients: a float there would round
    # (10^30 + 1 lies past a double's mantissa) instead of staying exact;
    # quotients come back as ints when integral and Fractions otherwise
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(T.names)
    rng = random.Random(59)
    big = 10**30 + 1
    assert scalar_equal(big * (X1 + X2), X1 + X2)
    assert not scalar_equal(big * X1 + (big - 1) * X2, X1 + X2)
    assert exact_divide(big * X1 * X2, X2).terms == {(1, 0, 0): big}
    for k in range(40):
        g = (_multi_term_poly(rng, T, max_terms=3, max_exp=2) if k % 2
             else _rand_monomial(rng, rng.choice((1, -2, 3))))
        h = rand_poly(rng, max_terms=3, max_exp=2)
        num, den = rng.choice((1, 2, -3, big)), rng.choice((1, 2, 5, big))
        f, g = h * g * num, g * den
        if k % 4 == 3:
            f = f + _rand_monomial(rng)
        assert all(type(c) is int for p in (f, g) for c in p.terms.values())
        F, G = (_sympy_poly(sympy, p, syms) for p in (f, g))
        q, r = sympy.div(F, G)
        got = exact_divide(f, g)
        if r.is_zero:
            assert got == from_sympy(sympy, q, T), (f, g)
            assert all(type(c) is (int if c.denominator == 1 else Fraction)
                       for c in got.terms.values())
        else:
            assert got is None, (f, g)
        ratio = sympy.cancel(F.as_expr() / G.as_expr())
        assert scalar_equal(f, g) == (bool(f) and ratio.is_number), (f, g)


# -- kernel operations against sympy ------------------------------------


def _rand_operand(rng, table, kind, max_exp=2):
    """A zero, constant, one-term or multi-term polynomial with rational
    coefficients; one-term operands have coefficient 1 half the time."""
    width = len(table.names)
    scales = (Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5, 2), Fraction(7))
    if kind == "zero":
        return MultiPoly.zero(table)
    if kind == "const":
        return MultiPoly.const(table, rng.choice(scales[1:]))
    if kind == "monomial":
        return MultiPoly.monomial(table, [rng.randint(0, max_exp) for _ in range(width)],
                                  rng.choice(scales[:1] * 4 + scales))
    return _multi_term_poly(rng, table, max_terms=4, max_exp=max_exp) * rng.choice(scales)


OPERAND_KINDS = ("zero", "const", "monomial", "monomial", "multi", "multi")


@pytest.mark.parametrize("table", [T, VarTable.bihomog(2)], ids=["3vars", "6vars"])
def test_kernel_ops_match_sympy(table):
    # one-term operands take the shift path of the product; a - a, a + (-a)
    # and (a + b) * (a - b) cancel terms, and a product by zero is empty
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols(table.names)
    rng = random.Random(47)

    def check(got, expr):
        want = from_sympy(sympy, sympy.Poly(sympy.expand(expr), *syms, domain="QQ"), table)
        assert got == want and got.terms == want.terms, (got, want)
        assert all(_canonical_coefficient(c) for c in got.terms.values())

    for _ in range(30):
        a, b = (_rand_operand(rng, table, rng.choice(OPERAND_KINDS)) for _ in range(2))
        A, B = (to_sympy(sympy, f, syms) for f in (a, b))
        check(a * b, A * B)
        check(b * a, A * B)
        check(a + b, A + B)
        check(a - b, A - B)
        check(-a, -A)
        check(a * 1, A)
        check((a + b) * (a - b), A**2 - B**2)
        assert not a - a and not a + (-a)
        for v, sym in zip(table.names, syms):
            check(a.derivative(v), sympy.diff(A, sym))
        m = _rand_operand(rng, table, "monomial")
        for f in (a * m, a):
            got = exact_divide(f, m)
            q, r = sympy.div(to_sympy(sympy, f, syms), to_sympy(sympy, m, syms), *syms)
            if r == 0:
                check(got, q)
            else:
                assert got is None


@pytest.mark.parametrize("same_table", [True, False], ids=["same-table", "other-table"])
def test_substitute_matches_sympy(same_table):
    # values with den = 1 (polynomials, some of one term) and rational
    # values with one-term and multi-term denominators; on the same table
    # some variables stay unmapped and are carried through, on the other
    # table every variable is mapped (one-term and linear values, so that
    # sympy's cancellation stays quick)
    sympy = pytest.importorskip("sympy")
    source = T if same_table else VarTable.bihomog(2)
    src_syms = sympy.symbols(source.names)
    syms = sympy.symbols(T.names)
    rng = random.Random(53)
    for k in range(20):
        f = _rand_operand(rng, source, rng.choice(OPERAND_KINDS[1:]), 2 if same_table else 1)
        names = rng.sample(source.names, 2) if same_table else source.names
        mapping = {}
        for v in names:
            kinds = ("const", "monomial", "multi") if same_table or k % 2 else ("monomial",)
            num = _rand_operand(rng, T, rng.choice(kinds), 2 if same_table else 1)
            style = rng.randrange(3)
            if style == 0:
                mapping[v] = num
            else:
                den = _rand_operand(rng, T, "monomial" if style == 1 else "multi", 1)
                mapping[v] = (num, den)
        g, D = substitute(f, mapping, target=None if same_table else T)
        pairs = {v: val if isinstance(val, tuple) else (val, MultiPoly.const(T, 1))
                 for v, val in mapping.items()}
        want_D = sympy.Integer(1)
        image = {}
        for v, (num, den) in pairs.items():
            sym = src_syms[source.names.index(v)]
            image[sym] = to_sympy(sympy, num, syms) / to_sympy(sympy, den, syms)
            want_D *= to_sympy(sympy, den, syms) ** f.degree_in(v)
        F = to_sympy(sympy, f, src_syms).subs(image, simultaneous=True)
        assert sympy.expand(to_sympy(sympy, D, syms) - want_D) == 0
        want_g = from_sympy(sympy, sympy.Poly(sympy.cancel(want_D * F), *syms, domain="QQ"), T)
        assert g.terms == want_g.terms, (f, mapping)
        assert all(_canonical_coefficient(c) for c in g.terms.values())


# -- the unchecked constructor keeps the canonical form -----------------


def _canonical_violation(vars, terms):
    """Why ``terms`` is not in the form the public constructor produces."""
    width = len(vars.names)
    for e, c in terms.items():
        if type(e) is not tuple or len(e) != width:
            return f"exponent vector {e!r} for {width} variables"
        if any(type(x) is not int or x < 0 for x in e):
            return f"exponent vector {e!r}"
        if not _canonical_coefficient(c):
            return f"coefficient {c!r}"
    return None


def test_trusted_construction_keeps_canonical_form(monkeypatch, capsys):
    # every result the kernel wraps without checking goes through the full
    # check here, across all CLI commands on the samples, every chart
    # transition at n = 2, 3, a covariance sweep and a sweep of the
    # cohomology classes; the reports must stay byte-identical to the
    # recorded ones and the sweeps unchanged
    trusted = MultiPoly.__dict__["_trusted"].__func__
    violations, built = [], [0]

    def checked(cls, vars, terms):
        built[0] += 1
        why = _canonical_violation(vars, terms)
        if why:
            violations.append(why)
        return trusted(cls, vars, terms)

    def snapshot(t):
        return [(name, list(f.num.terms.items()), list(f.den.terms.items()))
                for name, f in t.maps.items()]

    reference = {n: [snapshot(transition(a, b)) for a in standard_atlas(n)
                     for b in standard_atlas(n) if a != b] for n in (2, 3)}
    cohomology = _cohomcalc_sweep()
    monkeypatch.setattr(MultiPoly, "_trusted", classmethod(checked))

    recorded = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))
    for path in sorted(SAMPLES.glob("*.json")):
        for command in COMMANDS:
            code = main([command, str(path)])
            out = _without_input(capsys.readouterr().out, [])
            key = f"{command} {path.name}"
            assert [code, hashlib.sha256(out.encode("utf-8")).hexdigest()] == recorded[key], key
    for n in (2, 3):
        got = [snapshot(transition(a, b)) for a in standard_atlas(n)
               for b in standard_atlas(n) if a != b]
        assert got == reference[n]
    S = parse_input(str(SAMPLES / "mixed_n3.json"))[0].pdes[0]
    atlas = standard_atlas(3)
    assert all(covariance_check(S, a, b) for a in atlas for b in atlas)
    assert _cohomcalc_sweep() == cohomology
    assert not violations, violations[:5]
    assert built[0] > 10_000
