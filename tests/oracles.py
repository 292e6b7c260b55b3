"""Independent brute-force oracles used to cross-check the engines."""

from fractions import Fraction
from math import comb

from webweave.cohomcalc import INCIDENCE, CohomClass
from webweave.contactgeom import RatFunc
from webweave.idealcalc import GREVLEX
from webweave.polycore import (
    MultiPoly,
    PolyMatrix,
    UsageError,
    exact_divide,
    multivar_gcd,
    poly_adjugate,
    poly_det,
)


def monomials_up_to(table, bound):
    width = len(table.names)

    def rec(slots, rest):
        if slots == 0:
            yield ()
            return
        for e in range(rest + 1):
            for tail in rec(slots - 1, rest - e):
                yield (e,) + tail

    return list(rec(width, bound))


def solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Free variables are set to zero.  Gaussian elimination over Fraction;
    meant for the modest desk-scale systems used here.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [row[:] + [rhs[k]] for k, row in enumerate(rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot = next((t for t in range(r, m) if aug[t][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][c]
        aug[r] = [Fraction(x) / pv for x in aug[r]]
        for t in range(m):
            if t != r and aug[t][c]:
                factor = aug[t][c]
                aug[t] = [x - factor * y for x, y in zip(aug[t], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    for t in range(r, m):
        if aug[t][ncols]:
            return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = aug[row][ncols]
    return x


class Quotient:
    """Reference quotient of two polynomials, always in lowest terms.

    The canonical form divides numerator and denominator by their gcd,
    makes the denominator's leading coefficient positive, and gives a
    zero numerator the denominator 1; every arithmetic result is brought
    to it.  ``Quotient.of`` reduces anything with ``num``/``den``, so
    quotients stored over other denominators compare by term maps.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if not den:
            raise UsageError("zero denominator")
        if num:
            g = multivar_gcd([num, den])
            if not g.is_constant():
                num, den = exact_divide(num, g), exact_divide(den, g)
            if den.leading()[1] < 0:
                num, den = -num, -den
        else:
            den = MultiPoly.const(num.vars, 1)
        self.num, self.den = num, den

    @classmethod
    def of(cls, r) -> "Quotient":
        return cls(r.num, r.den)

    def __add__(self, other: "Quotient") -> "Quotient":
        return Quotient(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "Quotient") -> "Quotient":
        return self + -other

    def __neg__(self) -> "Quotient":
        return Quotient(-self.num, self.den)

    def __mul__(self, other: "Quotient") -> "Quotient":
        return Quotient(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "Quotient") -> "Quotient":
        if not other.num:
            raise UsageError("division by the zero quotient")
        return Quotient(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.num == other * self.den
        if not isinstance(other, Quotient):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __repr__(self) -> str:
        return f"Quotient(({self.num})/({self.den}))"


def matrix_product(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    """Reference product A B by the schoolbook sum over the inner index."""
    if A.cols != B.rows:
        raise UsageError("matrix shapes do not compose")
    return PolyMatrix.from_rows(
        [[sum((A.at(r, k) * B.at(k, c) for k in range(A.cols)), MultiPoly.zero(A.table))
          for c in range(B.cols)] for r in range(A.rows)])


def frame_data_by_minors(source, nums, den):
    """Reference Jacobian package for the point-coordinates nums[r] / den.

    ``nums`` lists the numerators in the target slot order (distinguished
    one last) over one common denominator, all polynomials in the source
    chart coordinates.  The Jacobian is M / den^2 with M = den d(nums) -
    nums d(den) over the source slots, and det(M) and adj(M) come from the
    general minor expansion.  Returns (J, K, det J, frame factor), each
    entry unreduced over den^2, den^(2(k-1)), den^(2k) and den^(2(k-1)),
    k the number of slots.
    """
    slots = [f"x{k}" for k in source.slot_indices]
    M = PolyMatrix.from_rows([[f.derivative(s) * den - f * den.derivative(s) for s in slots]
                              for f in nums])
    det, adj = poly_det(M), poly_adjugate(M)
    last = M.rows - 1
    den2 = den * den
    adj_den = den2 ** last
    frame = adj.at(last, last)
    for b, k in enumerate(source.p_indices):
        frame = frame - source.p(k) * adj.at(b, last)
    return (tuple(tuple(RatFunc(e, den2) for e in M.row(r)) for r in range(M.rows)),
            tuple(tuple(RatFunc(e, adj_den) for e in adj.row(r)) for r in range(M.rows)),
            RatFunc(det, adj_den * den2), RatFunc(frame, adj_den))


def resultant(f: MultiPoly, g: MultiPoly, v: str) -> MultiPoly:
    """Sylvester resultant with respect to v.

    Vanishes at every common zero of f and g.  If one operand is constant
    in v, the result is that operand raised to the other's v-degree.
    """
    if not f and not g:
        raise UsageError("resultant of two zero polynomials")
    if f.vars != g.vars:
        raise UsageError("operands live over different variable tables")
    m, k = f.degree_in(v), g.degree_in(v)
    if m == 0 and k == 0:
        return MultiPoly.const(f.vars, 1)
    if m == 0:
        return f ** k
    if k == 0:
        return g ** m
    fc, gc = f.collect(v), g.collect(v)
    zero = MultiPoly.zero(f.vars)
    rows = []
    frow = [fc.get(m - t, zero) for t in range(m + 1)]
    grow = [gc.get(k - t, zero) for t in range(k + 1)]
    for shift in range(k):
        rows.append([zero] * shift + frow + [zero] * (k - 1 - shift))
    for shift in range(m):
        rows.append([zero] * shift + grow + [zero] * (m - 1 - shift))
    return poly_det(PolyMatrix.from_rows(rows))


def s_polynomial(f: MultiPoly, g: MultiPoly, order=GREVLEX) -> MultiPoly:
    """lcm/lt(f) * f - lcm/lt(g) * g over the leading terms under ``order``."""
    if not f or not g:
        raise UsageError("zero polynomial has no leading term")
    (fe, fc), (ge, gc) = f.leading(order.key), g.leading(order.key)
    lcm = tuple(map(max, fe, ge))
    return (MultiPoly.monomial(f.vars, [a - b for a, b in zip(lcm, fe)], Fraction(1, fc)) * f
            - MultiPoly.monomial(g.vars, [a - b for a, b in zip(lcm, ge)], Fraction(1, gc)) * g)


def macaulay_certificate(f, gens, bound):
    """Search cofactors h_i with deg(h_i g_i) <= bound solving f = sum h_i g_i.

    Pure linear algebra over the rationals in all monomials up to the
    bound; independent of any division or completion strategy.
    """
    table = f.vars
    columns = []
    for k, g in enumerate(gens):
        room = bound - g.total_degree()
        if room < 0:
            continue
        for m in monomials_up_to(table, room):
            columns.append(MultiPoly.monomial(table, m) * g)
    support = sorted(set(f.terms) | {e for col in columns for e in col.terms})
    row_of = {e: r for r, e in enumerate(support)}
    rows = [[Fraction(0)] * len(columns) for _ in support]
    for c, col in enumerate(columns):
        for e, v in col.terms.items():
            rows[row_of[e]][c] = v
    rhs = [f.terms.get(e, Fraction(0)) for e in support]
    return solve_linear(rows, rhs) is not None


def macaulay_member(f, gens, start=None, margin=6):
    """Membership verdict by growing the degree bound until a certificate
    appears; returns False when none exists up to start+margin."""
    if not f:
        return True
    base = f.total_degree() if start is None else start
    for bound in range(base, base + margin + 1):
        if macaulay_certificate(f, gens, bound):
            return True
    return False


def to_sympy(sympy, f, syms):
    """f as a sympy expression in ``syms`` (one symbol per table variable)."""
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s**k for s, k in zip(syms, e)))
                for e, c in f.terms.items()), sympy.Integer(0))


def from_sympy(sympy, p, table):
    """A sympy ``Poly`` in the table's variables, as a MultiPoly."""
    return MultiPoly(table, {tuple(m): Fraction(str(sympy.Rational(c))) for m, c in p.terms()})


def chern_closed_form(n, j):
    """sum_i (-1)^i C(n+1, j-i) xi^(j-i) (xi+xi')^i in the free ring.

    The binomial expansion is written out term by term, so no class
    product is used; the result is the reference for ``chern_T``.
    """
    coeffs = {}
    for i in range(j + 1):
        for k in range(i + 1):
            m = (j - i + k, i - k)
            coeffs[m] = coeffs.get(m, 0) + (-1) ** i * comb(n + 1, j - i) * comb(i, k)
    return CohomClass(n, INCIDENCE, coeffs)


def chern_recursion(n, j):
    """c_j = C(n+1, j) xi^j - (xi + xi') c_{j-1} from c_0 = 1, in the free
    ring, on plain coefficient dicts."""
    c = {(0, 0): 1}
    for t in range(1, j + 1):
        nxt = {(t, 0): comb(n + 1, t)}
        for (a, b), v in c.items():
            for m in ((a + 1, b), (a, b + 1)):
                nxt[m] = nxt.get(m, 0) - v
        c = nxt
    return CohomClass(n, INCIDENCE, c)
