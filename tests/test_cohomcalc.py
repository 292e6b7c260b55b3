"""Quotient-ring normal forms, Chern recursion, and numeric certificates."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracles import chern_closed_form, chern_recursion
from webweave.cohomcalc import (
    INCIDENCE,
    PRODUCT,
    TABLE,
    XI,
    XI_PRIME,
    MultiDegreeData,
    bott_number,
    caustic_certificate,
    chern_T,
    class_text,
    integrate,
    nf,
    normal_bundle_c1,
    ring_ideal,
    relation_class,
    script_N,
)
from webweave.polycore import MultiPoly, UsageError

ONE = MultiPoly.const(TABLE, 1)

# sha256 of the JSON text of ``_cohomcalc_sweep()``: the module's printed
# classes and certificates must not change by a byte
SWEEP_DIGEST = "0d16bd216ebaf426f100958d0e02ee22ae8c23d7f177b79d58360d1dd123d15f"


def _cls(terms):
    return MultiPoly(TABLE, terms)


# -- normal forms --------------------------------------------------------


def test_nf_examples_n2():
    assert nf(XI_PRIME**2, 2) == XI * XI_PRIME - XI**2
    assert nf(XI**3, 2) == 0
    assert nf(XI * XI_PRIME**2, 2) == XI**2 * XI_PRIME


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relation_reduces_to_zero(n):
    assert nf(relation_class(n), n) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_proof_identity(n):
    assert nf(XI ** (n - 1) * XI_PRIME**n, n) == XI**n * XI_PRIME ** (n - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nf_idempotent_and_multiplicative(n):
    rng = random.Random(n)
    for _ in range(20):
        a = _cls({(rng.randint(0, n + 1), rng.randint(0, n + 1)): rng.randint(-3, 3)
                  for _ in range(3)})
        b = _cls({(rng.randint(0, n + 1), rng.randint(0, n + 1)): rng.randint(-3, 3)
                  for _ in range(3)})
        assert nf(nf(a, n), n) == nf(a, n)
        assert nf(a * b, n) == nf(nf(a, n) * nf(b, n), n)


def test_widening_keeps_normal_forms(request):
    # reducing xi'^j by the relation raises the xi-exponent by up to n,
    # past the fields that hold the class itself
    rng = random.Random(17)
    classes = [(n, _cls({(rng.randint(0, 3), rng.randint(0, 2 * n)): rng.randint(-3, 3)
                         for _ in range(3)}))
               for n in (2, 3, 4, 5) for _ in range(15)]
    want = [nf(c, n) for n, c in classes]
    counts = request.getfixturevalue("narrow_packings")
    assert [nf(c, n) for n, c in classes] == want
    assert counts[1] > counts[0]


def test_ring_ideal():
    # one basis per (n, ring), so normal_form's packed divisors are kept
    assert ring_ideal(3, INCIDENCE) is ring_ideal(3, INCIDENCE)
    assert list(ring_ideal(3)) == [relation_class(3), XI**4]
    assert list(ring_ideal(3, PRODUCT)) == [XI**4, XI_PRIME**4]
    for n, ring in ((2, "bogus"), (0, INCIDENCE), (0, PRODUCT)):
        with pytest.raises(UsageError):
            ring_ideal(n, ring)
        with pytest.raises(UsageError):
            nf(ONE, n, ring)


def test_class_text_reverses_grevlex():
    c = _cls({(0, 0): -1, (2, 0): 3, (1, 1): -2, (0, 2): 1, (3, 1): 5})
    assert class_text(c) == "-1 + xi'^2 - 2*xi*xi' + 3*xi^2 + 5*xi^3*xi'"
    assert c.to_string() == "5*xi^3*xi' + 3*xi^2 - 2*xi*xi' + xi'^2 - 1"
    assert class_text(MultiPoly.zero(TABLE)) == "0"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_counts_match_poincare_product(n):
    # count normal-form monomials per degree against the coefficient of
    # t^(2k) in (1 + t^2 + ... + t^(2n)) (1 + t^2 + ... + t^(2n-2))
    coeffs = [0] * (4 * n - 1)
    for a in range(n + 1):
        for b in range(n):
            coeffs[2 * (a + b)] += 1
    for k in range(2 * n):
        count = 0
        for i in range(min(k, n) + 1):
            j = k - i
            if 0 <= j <= n - 1:
                count += 1
        assert count == coeffs[2 * k]


# -- integration ---------------------------------------------------------


def test_integration_examples():
    assert integrate(XI**2 * XI_PRIME, 2) == 1
    assert integrate(XI * XI_PRIME**2, 2) == 1
    assert integrate(MultiPoly.zero(TABLE), 2) == 0


def test_integration_rejects_non_top():
    with pytest.raises(UsageError):
        integrate(XI, 2)
    with pytest.raises(UsageError):
        integrate(XI**2 * XI_PRIME**2, 2)


def _seeded_classes(rng, n, count):
    for _ in range(count):
        yield _cls({(rng.randint(0, 2 * n + 1), rng.randint(0, 2 * n + 1)): rng.randint(-9, 9)
                    for _ in range(rng.randint(0, 8))})


@pytest.mark.parametrize("n", range(1, 7))
def test_nf_matches_sympy_reduction(n):
    # {relation, xi^(n+1)} is a lex Groebner basis with xi' first, and nf
    # is the remainder modulo it; the product ring truncates at n
    sympy = pytest.importorskip("sympy")
    x, xp = sympy.symbols("xi xp")

    def expr(c):
        return sum((v * x**i * xp**j for (i, j), v in c.terms.items()), sympy.Integer(0))

    def terms(r):
        return {m: int(v) for m, v in sympy.Poly(r, x, xp).as_dict().items() if v}

    relation = expr(relation_class(n))
    basis = sympy.groebner([relation, x ** (n + 1)], xp, x, order="lex")
    assert set(basis.exprs) == {relation, x ** (n + 1)}
    rng = random.Random(1000 + n)
    for c in _seeded_classes(rng, n, 20):
        _, r = sympy.reduced(expr(c), list(basis.exprs), xp, x, order="lex")
        assert nf(c, n).terms == terms(r)
    for c in _seeded_classes(rng, n, 20):
        _, r = sympy.reduced(expr(c), [x ** (n + 1), xp ** (n + 1)], xp, x, order="lex")
        assert nf(c, n, PRODUCT).terms == terms(r)


def test_product_ring_integration():
    assert integrate(XI**2 * XI_PRIME**2, 2, PRODUCT) == 1
    assert nf(XI**3, 2, PRODUCT) == 0


# -- Chern classes -------------------------------------------------------


def test_chern_examples_n2():
    assert chern_T(2, 0) == ONE
    assert chern_T(2, 1) == 2 * XI - XI_PRIME
    assert nf(chern_T(2, 2), 2) == 0


@pytest.mark.parametrize("n", range(1, 13))
def test_chern_recursion_consistency(n):
    # every dimension the CLI accepts: the free-ring recursion equals the
    # closed form, and chern_T is the normal form of the closed form
    for j in range(n + 1):
        closed = chern_closed_form(n, j)
        assert chern_recursion(n, j) == closed
        assert chern_T(n, j) == nf(closed, n)
    assert nf(chern_T(n, n), n) == 0


def test_chern_index_out_of_range():
    with pytest.raises(UsageError):
        chern_T(2, 3)


# -- multi-degree certificates -------------------------------------------


def test_script_N_examples():
    assert script_N(MultiDegreeData(4, ((0, 2), (0, 1), (0, 3)))) == 0
    assert script_N(MultiDegreeData(3, ((1, 2), (0, 2)))) == 1
    assert script_N(MultiDegreeData(2, ((1, 3),))) == 1


def test_bott_examples():
    assert bott_number(MultiDegreeData(2, ((0, 3),))) == 0
    assert bott_number(MultiDegreeData(2, ((1, 3),))) == 3
    assert bott_number(MultiDegreeData(3, ((1, 2), (0, 2)))) == 4


def test_caustic_certificate_examples():
    c = caustic_certificate(MultiDegreeData(2, ((0, 2),)))
    assert c.coefficients == (6,) and c.all_positive and c.nonzero
    c = caustic_certificate(MultiDegreeData(2, ((1, 3),)))
    assert c.coefficients == (12,)


def test_caustic_certificate_degenerate_corner():
    # with n >= 4 and an identically-zero multi-degree the top coefficient
    # vanishes (the class is a combination of only two monomials), so the
    # all-positive flag is honestly False while the class itself is nonzero
    c = caustic_certificate(MultiDegreeData(4, ((0, 2), (0, 2), (0, 2))))
    assert c.coefficients == (24, 8, 0)
    assert not c.all_positive
    assert c.nonzero


def test_bridge_identity_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        pairs = tuple((rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n - 1))
        m = MultiDegreeData(n, pairs)
        assert bott_number(m) == m.weight * script_N(m)


def test_sign_of_obstruction_number():
    rng = random.Random(8)
    seen_zero = False
    for _ in range(300):
        n = rng.choice([2, 3, 4])
        pairs = tuple((rng.randint(0, 3), rng.randint(1, 4)) for _ in range(n - 1))
        m = MultiDegreeData(n, pairs)
        if m.weight < 3:
            continue
        assert m.n + 1 - m.d_bar <= 0
        N = script_N(m)
        assert N >= 0
        assert (N == 0) == (m.delta_bar == 0)
        seen_zero = seen_zero or N == 0
    assert seen_zero  # both sides of the iff were exercised


def test_multidegree_validation():
    with pytest.raises(UsageError):
        MultiDegreeData(3, ((0, 2),))
    with pytest.raises(UsageError):
        MultiDegreeData(2, ((0, 0),))
    m = MultiDegreeData(3, ((1, 2), (2, 4)))
    assert m.sigma1 == Fraction(1, 2) + Fraction(2, 4)
    assert m.sigma2 == Fraction(1, 2) * Fraction(2, 4)
    assert m.degree == 2 and m.weight == 8


def _cohomcalc_sweep():
    """Chern classes, certificates and seeded ring products, as text."""
    out = [[class_text(chern_T(n, j)) for j in range(n + 1)] for n in range(1, 9)]
    rng = random.Random(18)
    for n in range(2, 6):
        for _ in range(10):
            m = MultiDegreeData(n, tuple((rng.randint(0, 3), rng.randint(1, 4))
                                         for _ in range(n - 1)))
            out.append((bott_number(m), caustic_certificate(m).coefficients,
                        str(script_N(m)), class_text(nf(normal_bundle_c1(m) ** 2, n))))
        for ring in (INCIDENCE, PRODUCT):
            a, b = _seeded_classes(rng, n, 2)
            out.append(class_text(nf(a * b - (a + 2) ** 2, n, ring)))
    return out


def test_cohomcalc_sweep_pinned():
    # the text must not depend on the hash seed either: ``nf`` and
    # ``class_text`` walk term dicts
    text = json.dumps(_cohomcalc_sweep())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SWEEP_DIGEST
