"""Integer cohomology of the contact-element space and of P_n x P'_n.

A class is a ``MultiPoly`` with integer coefficients over one table
(xi, xi'), and a ring is the ideal it is reduced by (``ring_ideal``):
``nf`` is the engine's ``normal_form`` by that ideal.  For the
contact-element space the ring is Z[xi,xi'] modulo xi^(n+1), xi'^(n+1)
and sum_{i=0..n} (-1)^i xi^i xi'^(n-i); normal forms live on the basis
{xi^i xi'^j : i <= n, j <= n-1}, so the top class xi^n xi'^(n-1) is
unique and integration is a coefficient read-off.  The product ring
only truncates the two exponents at n.

The module also evaluates the numeric certificates attached to a
multi-degree: the closed-form obstruction number, the Bott pairing, and
the caustic-class coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, prod

from .idealcalc import IdealBasis, normal_form
from .polycore import MonomialOrder, MultiPoly, UsageError, VarTable, _monomial_texts, _signed_sum

INCIDENCE = "incidence"
PRODUCT = "product"

# every class, in either ring, is a polynomial over this table
TABLE = VarTable.plain(("xi", "xi'"))
XI = MultiPoly.var(TABLE, "xi")
XI_PRIME = MultiPoly.var(TABLE, "xi'")

# lex order comparing the xi'-exponent first, as a block order of two
# one-variable blocks; the relation's leading monomial is then xi'^n,
# coprime to xi^(n+1)
_XI_PRIME_FIRST = MonomialOrder("block", (1,), (0,))


@lru_cache(maxsize=None)
def ring_ideal(n: int, ring: str = INCIDENCE) -> IdealBasis:
    """The ideal whose quotient is the ring, as the basis ``nf`` divides by.

    Incidence ring: the relation and xi^(n+1).  In the lex order with xi'
    compared first their leading monomials xi'^n and xi^(n+1) are
    coprime, so the pair is a Groebner basis and remainders lie on the
    basis {xi^i xi'^j : i <= n, j <= n-1}; both leading coefficients are
    1, so integral classes keep integral normal forms.  Product ring:
    xi^(n+1) and xi'^(n+1), whose remainder drops exponents above n.
    """
    if ring not in (INCIDENCE, PRODUCT):
        raise UsageError(f"unknown cohomology ring {ring!r}")
    if n < 1:
        raise UsageError("dimension must be >= 1")
    xi_top = XI ** (n + 1)
    gens = (relation_class(n), xi_top) if ring == INCIDENCE else (xi_top, XI_PRIME ** (n + 1))
    return IdealBasis(gens, _XI_PRIME_FIRST)


def nf(c: MultiPoly, n: int, ring: str = INCIDENCE) -> MultiPoly:
    """Normal form of a class over ``TABLE`` in the ring of P_n."""
    return normal_form(c, ring_ideal(n, ring))


def integrate(c: MultiPoly, n: int, ring: str = INCIDENCE) -> int:
    """Pairing with the fundamental class: top-degree coefficient after nf.

    Incidence ring: coefficient of xi^n xi'^(n-1); product ring:
    coefficient of xi^n xi'^n.  Non-top-degree input is rejected.
    """
    top = 2 * n - 1 if ring == INCIDENCE else 2 * n
    if any(sum(e) != top for e in c.terms):
        raise UsageError("integrate expects a homogeneous class of top degree")
    return nf(c, n, ring).terms.get((n, top - n), 0)


def class_text(c: MultiPoly) -> str:
    """A class as text, lowest degree first and, within a degree, lowest
    xi-exponent first: the reverse of ``MultiPoly.to_string``."""
    return _signed_sum(reversed(_monomial_texts(c)))


def relation_class(n: int) -> MultiPoly:
    """The alternating relation sum_{i=0..n} (-1)^i xi^i xi'^(n-i)."""
    return MultiPoly(TABLE, {(i, n - i): (-1) ** i for i in range(n + 1)})


def chern_T(n: int, j: int) -> MultiPoly:
    """Chern class of the tautological rank-(n-1) subbundle, in normal form.

    Evaluates the defining recursion c_j = C(n+1, j) xi^j - (xi + xi') c_{j-1}
    from c_0 = 1 in the free ring and reduces the result with ``nf``.
    """
    if not (0 <= j <= n):
        raise UsageError("index out of range (0 <= j <= n)")
    xs = XI + XI_PRIME
    c = MultiPoly.const(TABLE, 1)
    for t in range(1, j + 1):
        c = comb(n + 1, t) * XI**t - xs * c
    return nf(c, n)


@dataclass(frozen=True)
class MultiDegreeData:
    """Bi-degrees (delta_a, d_a) of the defining equations of one web."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.pairs) != self.n - 1:
            raise UsageError("a web on P_n needs exactly n-1 bi-degrees")
        for delta, d in self.pairs:
            if d < 1 or delta < 0:
                raise UsageError("bi-degrees need d >= 1 and delta >= 0")

    @property
    def delta_bar(self) -> int:
        return sum(delta for delta, _ in self.pairs)

    @property
    def d_bar(self) -> int:
        return sum(d for _, d in self.pairs)

    @property
    def weight(self) -> int:
        return prod(d for _, d in self.pairs)

    @property
    def degree(self) -> int:
        return prod(delta for delta, _ in self.pairs)

    @property
    def sigma1(self) -> Fraction:
        return sum((Fraction(delta, d) for delta, d in self.pairs), Fraction(0))

    @property
    def sigma2(self) -> Fraction:
        ratios = [Fraction(delta, d) for delta, d in self.pairs]
        total = Fraction(0)
        for a in range(len(ratios)):
            for b in range(a + 1, len(ratios)):
                total += ratios[a] * ratios[b]
        return total


def script_N(m: MultiDegreeData) -> Fraction:
    """Closed-form obstruction number attached to a multi-degree.

    Zero for vanishing multi-degree; strictly positive otherwise whenever
    the weight is at least 3 (see the sign tests).
    """
    c = m.n + 1 - m.d_bar
    db = Fraction(m.delta_bar)
    return db * db - 2 * db * c * (1 + m.sigma1) + c * c * (m.sigma1 + m.sigma2)


def normal_bundle_c1(m: MultiDegreeData) -> MultiPoly:
    """First Chern class of the web foliation's normal bundle (restricted):
    (n+1) xi' minus the sum of (delta_a xi + d_a xi')."""
    return (m.n + 1 - m.d_bar) * XI_PRIME - m.delta_bar * XI


def fundamental_factor(m: MultiDegreeData) -> MultiPoly:
    """Product of (delta_a xi + d_a xi'), the class dual to the web."""
    return prod((delta * XI + d * XI_PRIME for delta, d in m.pairs),
                start=MultiPoly.const(TABLE, 1))


def bott_number(m: MultiDegreeData) -> int:
    """Pairing of the squared normal-bundle class against the web.

    integrate(c1^2 * prod(delta_a xi + d_a xi') * xi^(n-2)) in the
    incidence ring; must vanish for a smooth dicritical web.
    """
    if m.n < 2:
        raise UsageError("defined for n >= 2")
    c1 = normal_bundle_c1(m)
    return integrate(c1 * c1 * fundamental_factor(m) * XI ** (m.n - 2), m.n)


@dataclass(frozen=True)
class CausticCertificate:
    """Coefficients a_2..a_n of the caustic class in the product ring.

    `nonzero` is the property the non-empty-caustic conclusion uses.
    `all_positive` follows the sign law of `caustic_certificate`: it is
    honestly False when s <= n-4, where s counts the equations with
    delta_a > 0.
    """

    coefficients: tuple[int, ...]
    all_positive: bool = field(init=False)
    nonzero: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "all_positive", all(a > 0 for a in self.coefficients))
        object.__setattr__(self, "nonzero", any(self.coefficients))


def caustic_certificate(m: MultiDegreeData) -> CausticCertificate:
    """Expand (xi+xi')^3 * prod(delta_a xi + d_a xi') in the product ring.

    Returns the coefficients (a_2, ..., a_n) of xi^i xi'^(n+2-i).  A
    nonzero certificate shows the critical set cannot be empty.

    Every factor has non-negative coefficients, so with s the number of
    equations with delta_a > 0, a_i > 0 for i <= s+3 and a_i = 0 for
    i > s+3.  The certificate is therefore always nonzero (a_2 > 0), but
    it has zero coefficients when s <= n-4, e.g. (24, 8, 0) for an
    identically zero multi-degree at n = 4.
    """
    if m.n < 2:
        raise UsageError("defined for n >= 2")
    n = m.n
    cls = nf((XI + XI_PRIME) ** 3 * fundamental_factor(m), n, PRODUCT)
    coeffs = tuple(cls.terms.get((i, n + 2 - i), 0) for i in range(2, n + 1))
    return CausticCertificate(coeffs)
