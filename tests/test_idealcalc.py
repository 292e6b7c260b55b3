"""Division, completion, membership, elimination; oracle cross-checks."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import (
    from_sympy,
    macaulay_certificate,
    macaulay_member,
    resultant,
    s_polynomial,
    to_sympy,
)
from webweave import idealcalc, polycore
from webweave.cli import parse_document, parse_input
from webweave.contactgeom import standard_atlas
from webweave.idealcalc import (
    GREVLEX,
    LEX,
    IdealBasis,
    PairCapExceeded,
    block_order,
    buchberger,
    eliminate,
    is_trivial_ideal,
    normal_form,
)
from webweave.polycore import (
    MultiPoly,
    PolyMatrix,
    VarTable,
    partial_derivative,
    poly_det,
    scalar_equal,
)
from webweave.webanalysis import chart_web_data

SAMPLES = Path(__file__).resolve().parent.parent / "sample_inputs"
T = VarTable.chart(2, 0, 2)
X1, X2, P1 = (MultiPoly.var(T, n) for n in ("x1", "x2", "p1"))


def test_normal_form_single_step():
    assert normal_form(P1**2, [P1**2 - X1]) == X1


def test_normal_form_zero():
    assert normal_form(MultiPoly.zero(T), [P1**2 - X1]) == 0


def test_normal_form_against_reduced_basis():
    basis = buchberger([P1**2 - X1, 2 * P1])
    assert normal_form(X1, basis) == 0
    assert normal_form(MultiPoly.const(T, -1), basis) == -1


def test_normal_form_idempotent():
    rng = random.Random(3)
    basis = buchberger([P1**2 - X1, X1 * X2 - 1])
    for _ in range(10):
        f = MultiPoly(T, {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
                          rng.randint(-3, 3) for _ in range(3)})
        r = normal_form(f, basis)
        assert normal_form(r, basis) == r


def test_basis_packs_its_divisors_once(monkeypatch):
    # an IdealBasis keeps its packed divisors, one list per packing, outside
    # its value; a plain list of divisors is packed on every call
    packed = []
    element = polycore._Packing.element

    def counting(pk, terms):
        packed.append(pk)
        return element(pk, terms)

    monkeypatch.setattr(polycore._Packing, "element", counting)
    basis = buchberger([P1**2 - X1, X1 * X2 - 1])
    fresh = IdealBasis(basis.generators, basis.order)
    for f in (P1**3, X1 * X2 * P1 + X2, X2**2 - P1):
        assert normal_form(f, basis) == normal_form(f, list(basis))
    assert len(packed) == 4 * len(basis) and len(basis._divisors) == 1
    assert basis == fresh and repr(basis) == repr(fresh)


def test_buchberger_already_reduced():
    basis = buchberger([X1, P1])
    assert [g.to_string() for g in basis] == ["p1", "x1"]


def test_buchberger_one_step():
    basis = buchberger([P1**2 - X1, 2 * P1])
    assert [g.to_string() for g in basis] == ["p1", "x1"]


def test_buchberger_unit_ideal():
    basis = buchberger([MultiPoly.const(T, 1)])
    assert len(basis) == 1 and basis.generators[0] == 1


def test_buchberger_zero_ideal():
    assert len(buchberger([MultiPoly.zero(T)])) == 0


def _reduced_invariants(basis):
    gens = list(basis.generators)
    order = basis.order
    for g in gens:
        _, lc = g.leading(order.key)
        assert lc == 1
    for a, b in itertools.permutations(gens, 2):
        la, _ = a.leading(order.key)
        for e in b.terms:
            assert not all(x <= y for x, y in zip(la, e))
    for k, g in enumerate(gens):
        assert normal_form(g, gens[:k] + gens[k + 1:], order) == g
    for a, b in itertools.combinations(gens, 2):
        assert normal_form(s_polynomial(a, b, order), basis) == 0


def test_reduced_basis_invariants():
    _reduced_invariants(buchberger([P1**2 - X1, X1 * X2 - 1, X2**2 - P1]))
    F = P1**2 + 1 - (X2 - P1 * X1) ** 2
    _reduced_invariants(buchberger([F, partial_derivative(F, "p1")]))


def _member(f, gens) -> bool:
    return not normal_form(f, buchberger(gens))


def test_ideal_member_examples():
    assert _member(P1, [P1**2 - X1, 2 * P1])
    assert not _member(MultiPoly.const(T, 1), [X1, P1])
    assert not _member(MultiPoly.const(T, -1), [P1**2 - X1, 2 * P1])


def test_trivial_ideal_examples():
    assert is_trivial_ideal([X1, 1 - X1])
    assert not is_trivial_ideal([X1])
    assert is_trivial_ideal([P1**2 - X1, MultiPoly.const(T, -1)])


def test_eliminate_examples():
    out = eliminate([P1**2 - X1, 2 * P1], ("p1",))
    assert len(out) == 1 and out[0] == X1
    out = eliminate([X1 - 1], ("p1",))
    assert len(out) == 1 and out[0] == X1 - 1


def test_eliminate_clairaut_matches_resultant():
    F = P1**2 + 1 - (X2 - P1 * X1) ** 2
    Fp = partial_derivative(F, "p1")
    out = eliminate([F, Fp], "p")
    assert len(out) == 1
    assert scalar_equal(out[0], X1**2 + X2**2 - 1)
    # the resultant lies in the elimination ideal it over-approximates
    res = resultant(F, Fp, "p1")
    assert normal_form(res, out) == 0


def test_eliminate_subset_of_ideal():
    gens = [P1**2 - X1, X2 * P1 - 1]
    basis = buchberger(gens)
    for g in eliminate(gens, "p"):
        assert normal_form(g, basis) == 0
        assert not (g.variables_used() & {"p1"})


def test_block_order_is_elimination_order():
    order = block_order(T, "p")
    # any monomial containing p1 beats any p1-free monomial
    assert order.key((0, 0, 1)) > order.key((5, 5, 0))


def test_pair_cap():
    U = VarTable.plain(("x", "y", "z"))
    x, y, z = (MultiPoly.var(U, n) for n in "xyz")
    gens = [x**3 - 2 * x * y + z, x**2 * y + x - 2 * y**2, y**3 * z - x]
    with pytest.raises(PairCapExceeded):
        buchberger(gens, GREVLEX, pair_cap=1)


def test_lex_textbook_example():
    U = VarTable.plain(("x", "y"))
    x, y = MultiPoly.var(U, "x"), MultiPoly.var(U, "y")
    basis = buchberger([x**2 + 2 * x * y**2, x * y + 2 * y**3 - 1], LEX)
    got = list(basis.generators)
    assert len(got) == 2
    assert got[1] == x
    assert 2 * got[0] == 2 * y**3 - 1


def rand_ideal(rng, table, count=(2, 3)):
    gens = []
    for _ in range(rng.randint(*count)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 3) for _ in table.names)
            while sum(e) > 3:
                e = tuple(rng.randint(0, 1) for _ in table.names)
            c = rng.randint(-3, 3)
            if c:
                terms[e] = terms.get(e, 0) + c
        g = MultiPoly(table, {e: c for e, c in terms.items() if c})
        if g:
            gens.append(g)
    return gens


def test_membership_agrees_with_macaulay_oracle():
    rng = random.Random(2024)
    table = VarTable.plain(("a", "b", "c"))
    checked = 0
    while checked < 25:
        gens = rand_ideal(rng, table)
        if not gens:
            continue
        # candidate members: one engineered combination, one arbitrary poly
        combo = MultiPoly.zero(table)
        for g in gens:
            m = tuple(rng.randint(0, 1) for _ in table.names)
            combo = combo + MultiPoly.monomial(table, m, rng.randint(-2, 2)) * g
        arbitrary = MultiPoly(table, {tuple(rng.randint(0, 2) for _ in table.names):
                                      rng.randint(-2, 2) for _ in range(2)})
        for f in (combo, arbitrary):
            if not f:
                continue
            via_basis = _member(f, gens)
            if via_basis:
                assert macaulay_member(f, gens), \
                    f"oracle found no certificate for {f} in {[str(g) for g in gens]}"
            else:
                assert not macaulay_certificate(f, gens, f.total_degree() + 2), \
                    f"oracle found a certificate the basis rejects: {f}"
            checked += 1


def _sympy_basis(sympy, gens, order):
    """Reduced basis from sympy.groebner, converted back to MultiPoly."""
    table = gens[0].vars
    syms = sympy.symbols(table.names)
    gb = sympy.groebner([to_sympy(sympy, g, syms) for g in gens], *syms, order=order, field=True)
    return [from_sympy(sympy, p, table) for p in gb.polys]


def _assert_same_basis(ours, theirs):
    assert len(ours) == len(theirs)
    for g in ours:
        assert any(g == h for h in theirs), \
            f"basis element {g} missing from reference {[str(t) for t in theirs]}"


RANDOM_IDEALS = [
    (("a", "b", "c"), (2, 3), "grevlex"),
    (("a", "b", "c", "d"), (3, 4), "lex"),
]


@pytest.mark.parametrize("names, count, order", RANDOM_IDEALS, ids=["3vars-grevlex", "4vars-lex"])
def test_reduced_basis_matches_sympy_on_random_ideals(names, count, order):
    sympy = pytest.importorskip("sympy")
    table = VarTable.plain(names)
    rng = random.Random(424242)
    ours_order = GREVLEX if order == "grevlex" else LEX
    for _ in range(15):
        gens = rand_ideal(rng, table, count)
        if not gens:
            continue
        _assert_same_basis(buchberger(gens, ours_order), _sympy_basis(sympy, gens, order))


RATIONALS = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(-5, 7))


def rand_rational_ideal(rng, table, count):
    """rand_ideal with each coefficient scaled by a non-integer rational."""
    return [MultiPoly(table, {e: c * rng.choice(RATIONALS) for e, c in g.terms.items()})
            for g in rand_ideal(rng, table, count)]


def _block_orders(table, eliminated):
    """Our block order eliminating the leading variables, and sympy's."""
    from sympy.polys.orderings import ProductOrder, grevlex

    k = len(eliminated)
    assert table.names[:k] == eliminated
    return (block_order(table, eliminated),
            ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:])))


RATIONAL_IDEALS = [
    (("a", "b", "c"), (2, 3), "grevlex"),
    (("a", "b", "c"), (2, 3), "lex"),
    (("a", "b", "c"), (2, 3), "block"),
    (("a", "b", "c", "d"), (3, 4), "grevlex"),
    (("a", "b", "c", "d"), (3, 4), "lex"),
    (("a", "b", "c", "d"), (3, 4), "block"),
]


@pytest.mark.parametrize("names, count, order", RATIONAL_IDEALS, ids=[
    "3vars-grevlex", "3vars-lex", "3vars-block", "4vars-grevlex", "4vars-lex", "4vars-block"])
def test_reduced_basis_matches_sympy_on_rational_ideals(names, count, order):
    # denominators and block orders are where the fraction-free engine's
    # scaling and its flat block key could go wrong
    sympy = pytest.importorskip("sympy")
    table = VarTable.plain(names)
    rng = random.Random(5150)
    if order == "block":
        ours_order, theirs_order = _block_orders(table, names[:len(names) // 2])
    else:
        ours_order, theirs_order = (GREVLEX if order == "grevlex" else LEX), order
    nontrivial = 0
    for _ in range(12):
        gens = rand_rational_ideal(rng, table, count)
        if not gens:
            continue
        ours = buchberger(gens, ours_order)
        _assert_same_basis(ours, _sympy_basis(sympy, gens, theirs_order))
        nontrivial += len(ours) > 1
    assert nontrivial >= 4


ORDER_NAMES = ["grevlex", "lex", "block"]


def _reference_remainder(f, divisors, order):
    """Division over Q written out with MultiPoly arithmetic: the largest
    work term is cancelled by the first divisor whose leading monomial
    divides it, and otherwise moved to the remainder."""
    table = f.vars
    work, remainder = f, MultiPoly.zero(table)
    while work:
        we, wc = work.leading(order.key)
        for g in divisors:
            ge, gc = g.leading(order.key)
            if all(a <= b for a, b in zip(ge, we)):
                shift = tuple(b - a for a, b in zip(ge, we))
                work = work - MultiPoly.monomial(table, shift, wc / gc) * g
                break
        else:
            lead = MultiPoly.monomial(table, we, wc)
            remainder, work = remainder + lead, work - lead
    return remainder


@pytest.mark.parametrize("order_name", ORDER_NAMES)
def test_normal_form_is_the_exact_remainder(order_name):
    # the remainder depends on the divisors' order and scaling only through
    # the selection rule, so the fraction-free heap division must give
    # the reference's remainder term for term
    table = VarTable.plain(("a", "b", "c"))
    order = {"grevlex": GREVLEX, "lex": LEX, "block": block_order(table, ("a",))}[order_name]
    rng = random.Random(6061)
    partial = 0
    for _ in range(30):
        divisors = [g for g in rand_rational_ideal(rng, table, (2, 3))
                    if not g.is_constant()]
        f = MultiPoly.zero(table)
        for g in divisors:
            m = tuple(rng.randint(0, 1) for _ in table.names)
            f = f + MultiPoly.monomial(table, m, rng.choice(RATIONALS)) * g
        f = f + MultiPoly(table, {tuple(rng.randint(0, 2) for _ in table.names):
                                  rng.choice(RATIONALS) for _ in range(2)})
        if not divisors or not f:
            continue
        want = _reference_remainder(f, divisors, order)
        assert normal_form(f, divisors, order) == want, (f, [str(g) for g in divisors])
        partial += want != f and bool(want)
    assert partial >= 10


@pytest.mark.parametrize("sample", sorted(p.name for p in SAMPLES.glob("*.json")))
def test_critical_basis_matches_sympy_on_samples(sample):
    sympy = pytest.importorskip("sympy")
    doc, _ = parse_input(str(SAMPLES / sample))
    w = doc.web()
    for chart in standard_atlas(w.n):
        data = chart_web_data(w, chart)
        if data.degenerate:
            continue
        gens = list(data.forms) + [data.critical_det]
        _assert_same_basis(data.critical_basis, _sympy_basis(sympy, gens, "grevlex"))


def test_pair_criteria_skip_most_pairs(monkeypatch):
    """The critical bases of mixed_n3 need few S-polynomials.

    With only the product criterion (before the Gebauer-Moller chain and
    update criteria) this loop formed 2,130 S-polynomials; with them it
    formed 380 under lcm-degree pair selection and forms 369 by sugar.
    The engine builds each one with ``_s_pair``; the count pins the pair
    order, and a change of monomial representation must not change it.
    """
    calls = 0
    spair = idealcalc._s_pair

    def counting(*args):
        nonlocal calls
        calls += 1
        return spair(*args)

    monkeypatch.setattr(idealcalc, "_s_pair", counting)
    doc, _ = parse_input(str(SAMPLES / "mixed_n3.json"))
    w = doc.web()
    for chart in standard_atlas(w.n):
        data = chart_web_data(w, chart)
        if not data.degenerate:
            assert data.critical_basis is not None
    assert calls == 369


# The smallest pair_cap under which each non-degenerate chart's critical
# basis completes, in ``standard_atlas`` order, with pairs chosen by
# sugar; they pin every pair the engine reduces.
SMALLEST_PAIR_CAPS = {
    "clairaut_conic.json": [4, 4, 4, 4, 4, 4],
    "cusp.json": [1, 1, 8, 4, 4, 6],
    "fermat_cubic_dual.json": [9, 9, 9, 9, 9, 9],
    "mixed_n3.json": [4, 3, 5, 60, 21, 7, 49, 36, 29, 75, 31, 49],
}


@pytest.mark.parametrize("sample", sorted(SMALLEST_PAIR_CAPS))
def test_smallest_pair_cap_per_chart(sample):
    w = parse_input(str(SAMPLES / sample))[0].web()
    caps = iter(SMALLEST_PAIR_CAPS[sample])
    charts = 0
    for chart in standard_atlas(w.n):
        data = chart_web_data(w, chart)
        if data.degenerate:
            continue
        gens = list(data.forms) + [data.critical_det]
        cap = next(caps)
        assert buchberger(gens, GREVLEX, pair_cap=cap) == data.critical_basis
        with pytest.raises(PairCapExceeded):
            buchberger(gens, GREVLEX, pair_cap=cap - 1)
        charts += 1
    assert charts == len(SMALLEST_PAIR_CAPS[sample])


def test_widening_keeps_smallest_pair_caps(narrow_packings):
    """The cap counts the reductions of the run that completes, so runs
    restarted on wider fields need the same caps."""
    for sample in SMALLEST_PAIR_CAPS:
        test_smallest_pair_cap_per_chart(sample)
    calls, attempts = narrow_packings
    assert attempts > calls


# Two webs whose smoothness ideals swell when pairs are chosen by least
# lcm degree.  UNBOUNDED_N2 is X0 X2 u0 u2^2 - 2 X0^2 u1^3 - 2 X1^2 u0^3
# - 2 X1 X2 u0^3: on its charts (0,1) and (0,2) that order inserted 63
# and 33 elements, with coefficients of up to 27,107 and 11,106 bits,
# before the verdict; by sugar 21 and 31, of at most 20 and 223 bits.
# On W3, an n = 3 web of bi-degree (1, 2), ``smooth`` ran past 100 s.  By
# sugar every chart completes in well under a second.
UNBOUNDED_N2 = {"n": 2, "pdes": [[
    {"c": [1, 1], "X": [1, 0, 1], "u": [1, 0, 2]},
    {"c": [-2, 1], "X": [2, 0, 0], "u": [0, 3, 0]},
    {"c": [-2, 1], "X": [0, 2, 0], "u": [3, 0, 0]},
    {"c": [-2, 1], "X": [0, 1, 1], "u": [3, 0, 0]}]]}
W3 = {"n": 3, "pdes": [
    [{"c": [1, 1], "X": [0, 1, 0, 0], "u": [0, 2, 0, 0]},
     {"c": [1, 1], "X": [0, 0, 1, 0], "u": [0, 0, 2, 0]},
     {"c": [1, 1], "X": [0, 0, 0, 1], "u": [2, 0, 0, 0]}],
    [{"c": [1, 1], "X": [0, 1, 0, 0], "u": [0, 0, 0, 2]},
     {"c": [1, 1], "X": [0, 0, 1, 0], "u": [0, 1, 1, 0]},
     {"c": [-1, 1], "X": [0, 0, 0, 1], "u": [1, 1, 0, 0]}]]}
# per chart in ``standard_atlas`` order: the smooth verdict and the
# smallest pair_cap under which the smoothness ideal completes
SMOOTHNESS_PAIR_CAPS = {
    "unbounded_n2": (UNBOUNDED_N2, [(True, 20), (False, 50), (True, 19),
                                    (False, 37), (True, 19), (False, 48)]),
    "w3": (W3, [(False, 110), (False, 219), (False, 222), (False, 41),
                (False, 84), (True, 54), (False, 42), (False, 73),
                (False, 120), (False, 38), (True, 37), (False, 72)]),
}


def _smoothness_ideals(doc):
    """(chart data, the chart forms and the maximal minors of the chart
    Jacobian, each minor the determinant of an explicit submatrix) per
    chart of the web."""
    w = parse_document(doc).web()
    for chart in standard_atlas(w.n):
        data = chart_web_data(w, chart)
        J = data.jacobian
        minors = [poly_det(PolyMatrix.from_rows([[J.at(r, c) for c in cols]
                                                 for r in range(J.rows)]))
                  for cols in itertools.combinations(range(J.cols), J.rows)]
        yield data, list(data.forms) + minors


def test_sugar_smoothness_verdicts_match_sympy():
    """Each chart's verdict on the unbounded web is sympy's grevlex one:
    unit or not.  W3 has only its pins: sympy's ``groebner`` did not
    finish W3's first chart in 150 s."""
    sympy = pytest.importorskip("sympy")
    verdicts = []
    for data, gens in _smoothness_ideals(UNBOUNDED_N2):
        theirs = _sympy_basis(sympy, gens, "grevlex")
        unit = len(theirs) == 1 and theirs[0].is_constant()
        assert is_trivial_ideal(gens) == data.smooth == unit, data.chart
        verdicts.append(unit)
    assert verdicts == [v for v, _ in SMOOTHNESS_PAIR_CAPS["unbounded_n2"][1]]


@pytest.mark.parametrize("web", sorted(SMOOTHNESS_PAIR_CAPS))
def test_sugar_smoothness_smallest_pair_caps(web):
    doc, pins = SMOOTHNESS_PAIR_CAPS[web]
    for (data, gens), (smooth, cap) in zip(_smoothness_ideals(doc), pins, strict=True):
        assert data.smooth == smooth, data.chart
        assert is_trivial_ideal(gens, pair_cap=cap) == smooth, data.chart
        with pytest.raises(PairCapExceeded):
            is_trivial_ideal(gens, pair_cap=cap - 1)


def test_widening_keeps_bases_and_remainders(narrow_packings):
    """Runs restarted on wider fields give the bases sympy gives and the
    exact remainders."""
    for case in RANDOM_IDEALS:
        test_reduced_basis_matches_sympy_on_random_ideals(*case)
    for case in RATIONAL_IDEALS:
        test_reduced_basis_matches_sympy_on_rational_ideals(*case)
    for order_name in ORDER_NAMES:
        test_normal_form_is_the_exact_remainder(order_name)
    calls, attempts = narrow_packings
    assert attempts > calls


def _count_pseudo_remainders(monkeypatch) -> list[int]:
    """A one-element list that counts the primitive PRS's pseudo-remainders."""
    calls = [0]
    pseudo_rem = polycore._pseudo_rem

    def counting(*args):
        calls[0] += 1
        return pseudo_rem(*args)

    monkeypatch.setattr(polycore, "_pseudo_rem", counting)
    return calls


def test_input_warnings_skip_pseudo_remainders(monkeypatch):
    """The warning gcds of the sample webs are all certified coprime.

    Each warning asks whether a gcd is constant; on the samples it always
    is, and the evaluation certificate proves it without the primitive
    PRS, which made 277 pseudo-remainders here (30, 23, 88 and 136).
    """
    calls = _count_pseudo_remainders(monkeypatch)
    for path in sorted(SAMPLES.glob("*.json")):
        w = parse_input(str(path))[0].web()
        for chart in standard_atlas(w.n):
            assert chart_web_data(w, chart).warnings == ()
    assert calls == [0]
