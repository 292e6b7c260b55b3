"""Quotient-ring normal forms, Chern recursion, and numeric certificates."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracles import chern_closed_form, chern_recursion
from test_cli import REPORT_DIGESTS, SAMPLES, _without_input
from webweave.cli import main
from webweave.cohomcalc import (
    INCIDENCE,
    PRODUCT,
    CohomClass,
    MultiDegreeData,
    bott_number,
    caustic_certificate,
    chern_T,
    integrate,
    nf,
    normal_bundle_c1,
    relation_class,
    script_N,
)
from webweave.polycore import UsageError


def xi(n, ring=INCIDENCE):
    return CohomClass.xi(n, ring)


def xip(n, ring=INCIDENCE):
    return CohomClass.xi_prime(n, ring)


# -- normal forms --------------------------------------------------------


def test_nf_examples_n2():
    assert nf(xip(2) ** 2) == xi(2) * xip(2) - xi(2) ** 2
    assert nf(xi(2) ** 3) == CohomClass.zero(2)
    assert nf(xi(2) * xip(2) ** 2) == xi(2) ** 2 * xip(2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relation_reduces_to_zero(n):
    assert nf(relation_class(n)) == CohomClass.zero(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_proof_identity(n):
    assert nf(xi(n) ** (n - 1) * xip(n) ** n) == xi(n) ** n * xip(n) ** (n - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nf_idempotent_and_multiplicative(n):
    rng = random.Random(n)
    for _ in range(20):
        a = CohomClass(n, INCIDENCE,
                       {(rng.randint(0, n + 1), rng.randint(0, n + 1)):
                        rng.randint(-3, 3) for _ in range(3)})
        b = CohomClass(n, INCIDENCE,
                       {(rng.randint(0, n + 1), rng.randint(0, n + 1)):
                        rng.randint(-3, 3) for _ in range(3)})
        assert nf(nf(a)) == nf(a)
        assert nf(a * b) == nf(nf(a) * nf(b))


def test_widening_keeps_normal_forms(request):
    # reducing xi'^j by the relation raises the xi-exponent by up to n,
    # past the fields that hold the class itself
    rng = random.Random(17)
    classes = [CohomClass(n, INCIDENCE, {(rng.randint(0, 3), rng.randint(0, 2 * n)):
                                         rng.randint(-3, 3) for _ in range(3)})
               for n in (2, 3, 4, 5) for _ in range(15)]
    want = [nf(c) for c in classes]
    counts = request.getfixturevalue("narrow_packings")
    assert [nf(c) for c in classes] == want
    assert counts[1] > counts[0]


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
    assert integrate(xi(2) ** 2 * xip(2)) == 1
    assert integrate(xi(2) * xip(2) ** 2) == 1
    assert integrate(CohomClass.zero(2)) == 0


def test_integration_rejects_non_top():
    with pytest.raises(UsageError):
        integrate(xi(2))


def _seeded_classes(rng, n, ring, count):
    for _ in range(count):
        yield CohomClass(n, ring, {(rng.randint(0, 2 * n + 1), rng.randint(0, 2 * n + 1)):
                                   rng.randint(-9, 9) for _ in range(rng.randint(0, 8))})


@pytest.mark.parametrize("n", range(1, 7))
def test_nf_matches_sympy_reduction(n):
    # {relation, xi^(n+1)} is a lex Groebner basis with xi' first, and nf
    # is the remainder modulo it; the product ring truncates at n
    sympy = pytest.importorskip("sympy")
    x, xp = sympy.symbols("xi xp")

    def expr(c):
        return sum((v * x**i * xp**j for (i, j), v in c.coeffs.items()), sympy.Integer(0))

    def terms(r):
        return {m: int(v) for m, v in sympy.Poly(r, x, xp).as_dict().items() if v}

    relation = expr(relation_class(n))
    basis = sympy.groebner([relation, x ** (n + 1)], xp, x, order="lex")
    assert set(basis.exprs) == {relation, x ** (n + 1)}
    rng = random.Random(1000 + n)
    for c in _seeded_classes(rng, n, INCIDENCE, 20):
        _, r = sympy.reduced(expr(c), list(basis.exprs), xp, x, order="lex")
        assert nf(c).coeffs == terms(r)
    for c in _seeded_classes(rng, n, PRODUCT, 20):
        _, r = sympy.reduced(expr(c), [x ** (n + 1), xp ** (n + 1)], xp, x, order="lex")
        assert nf(c).coeffs == terms(r)


def test_product_ring_integration():
    c = xi(2, PRODUCT) ** 2 * xip(2, PRODUCT) ** 2
    assert integrate(c) == 1
    assert nf(xi(2, PRODUCT) ** 3) == CohomClass.zero(2, PRODUCT)


# -- Chern classes -------------------------------------------------------


def test_chern_examples_n2():
    assert chern_T(2, 0) == CohomClass.unit(2)
    assert chern_T(2, 1) == 2 * xi(2) - xip(2)
    assert nf(chern_T(2, 2)) == CohomClass.zero(2)


@pytest.mark.parametrize("n", range(1, 13))
def test_chern_recursion_consistency(n):
    # every dimension the CLI accepts: the free-ring recursion equals the
    # closed form, and chern_T is the normal form of the closed form
    for j in range(n + 1):
        closed = chern_closed_form(n, j)
        assert chern_recursion(n, j) == closed
        assert chern_T(n, j) == nf(closed)
    assert nf(chern_T(n, n)) == CohomClass.zero(n)


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


def _cohom_violation(n, ring, coeffs):
    """Why the arguments are not in the form the checking constructor keeps."""
    if ring not in (INCIDENCE, PRODUCT) or type(n) is not int or n < 1:
        return f"ring {ring!r} of dimension {n!r}"
    for m, c in coeffs.items():
        if type(m) is not tuple or len(m) != 2 or any(type(e) is not int or e < 0 for e in m):
            return f"monomial {m!r}"
        if type(c) is not int or not c:
            return f"coefficient {c!r}"
    return None


def _cohomcalc_sweep():
    """Chern classes, certificates and seeded ring products, as text."""
    out = [[chern_T(n, j).to_string() for j in range(n + 1)] for n in range(1, 9)]
    rng = random.Random(18)
    for n in range(2, 6):
        for _ in range(10):
            m = MultiDegreeData(n, tuple((rng.randint(0, 3), rng.randint(1, 4))
                                         for _ in range(n - 1)))
            out.append((bott_number(m), caustic_certificate(m).coefficients,
                        str(script_N(m)), nf(normal_bundle_c1(m) ** 2).to_string()))
        for ring in (INCIDENCE, PRODUCT):
            a, b = _seeded_classes(rng, n, ring, 2)
            out.append(nf(a * b - (a + 2) ** 2).to_string())
    return out


def test_trusted_classes_keep_canonical_form(monkeypatch, capsys):
    # every class the operators and nf wrap without checking goes through
    # the full check here, across the chern, bott and certify reports on
    # the samples and a sweep of the module; the reports must stay
    # byte-identical to the recorded ones and the sweep unchanged
    trusted = CohomClass.__dict__["_trusted"].__func__
    violations, built = [], [0]

    def checked(cls, n, ring, coeffs):
        built[0] += 1
        why = _cohom_violation(n, ring, coeffs)
        if why:
            violations.append(why)
        return trusted(cls, n, ring, coeffs)

    reference = _cohomcalc_sweep()
    monkeypatch.setattr(CohomClass, "_trusted", classmethod(checked))

    recorded = json.loads(REPORT_DIGESTS.read_text(encoding="utf-8"))
    for path in sorted(SAMPLES.glob("*.json")):
        for command in ("chern", "bott", "certify"):
            code = main([command, str(path)])
            out = _without_input(capsys.readouterr().out, [])
            key = f"{command} {path.name}"
            assert [code, hashlib.sha256(out.encode("utf-8")).hexdigest()] == recorded[key], key
    assert _cohomcalc_sweep() == reference
    assert not violations, violations[:5]
    assert built[0] > 1_000
