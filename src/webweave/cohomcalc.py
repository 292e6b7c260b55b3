"""Integer cohomology of the contact-element space and of P_n x P'_n.

Classes are integer combinations of monomials xi^i * xi'^j.  For the
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
from typing import Mapping

from .idealcalc import _reduce
from .polycore import (
    MonomialOrder,
    UsageError,
    _add_into,
    _mul_terms,
    _signed_sum,
    _top,
    _with_packing,
)

INCIDENCE = "incidence"
PRODUCT = "product"

Monom = tuple[int, int]


class CohomClass:
    """Integer-coefficient class, stored as a map (i, j) -> coefficient."""

    __slots__ = ("n", "ring", "coeffs")

    def __init__(self, n: int, ring: str, coeffs: Mapping[Monom, int]):
        if ring not in (INCIDENCE, PRODUCT):
            raise UsageError(f"unknown cohomology ring {ring!r}")
        if n < 1:
            raise UsageError("dimension must be >= 1")
        clean = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0:
                raise UsageError("negative exponent in cohomology monomial")
            if not isinstance(c, int):
                raise UsageError("cohomology coefficients must be integers")
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("CohomClass is immutable")

    @classmethod
    def _trusted(cls, n: int, ring: str, coeffs: dict[Monom, int]) -> "CohomClass":
        """Wrap a coefficient dict that is already canonical, without checking it.

        Only for the operators and ``nf``: their term-dict helpers keep
        the checked ring and give (i, j) tuples of non-negative ints with
        nonzero int coefficients, the form ``__init__`` checks.  The dict
        is taken over, not copied.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zero(cls, n: int, ring: str = INCIDENCE) -> "CohomClass":
        return cls(n, ring, {})

    @classmethod
    def unit(cls, n: int, ring: str = INCIDENCE) -> "CohomClass":
        return cls(n, ring, {(0, 0): 1})

    @classmethod
    def xi(cls, n: int, ring: str = INCIDENCE) -> "CohomClass":
        return cls(n, ring, {(1, 0): 1})

    @classmethod
    def xi_prime(cls, n: int, ring: str = INCIDENCE) -> "CohomClass":
        return cls(n, ring, {(0, 1): 1})

    def _coerce(self, other) -> "CohomClass":
        if isinstance(other, CohomClass):
            if (other.n, other.ring) != (self.n, self.ring):
                raise UsageError("classes live in different rings")
            return other
        if isinstance(other, int):
            return CohomClass(self.n, self.ring, {(0, 0): other})
        raise UsageError("cannot combine cohomology class with this value")

    def __add__(self, other) -> "CohomClass":
        return CohomClass._trusted(self.n, self.ring,
                                   _add_into(dict(self.coeffs), self._coerce(other).coeffs))

    __radd__ = __add__

    def __neg__(self) -> "CohomClass":
        return CohomClass._trusted(self.n, self.ring, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other) -> "CohomClass":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CohomClass":
        return self._coerce(other) - self

    def __mul__(self, other) -> "CohomClass":
        return CohomClass._trusted(self.n, self.ring,
                                   _mul_terms(self.coeffs, self._coerce(other).coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CohomClass":
        if not isinstance(k, int) or k < 0:
            raise UsageError("powers must be non-negative integers")
        out = CohomClass.unit(self.n, self.ring)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self._coerce(other)
        if not isinstance(other, CohomClass):
            return NotImplemented
        return (self.n, self.ring, self.coeffs) == (other.n, other.ring, other.coeffs)

    __hash__ = None

    def degrees(self) -> set[int]:
        return {i + j for i, j in self.coeffs}

    def to_string(self) -> str:
        terms = []
        for i, j in sorted(self.coeffs, key=lambda m: (m[0] + m[1], m[0])):
            mono = "*".join(s for s in (
                "xi" if i == 1 else f"xi^{i}" if i else "",
                "xi'" if j == 1 else f"xi'^{j}" if j else "") if s)
            terms.append((mono, self.coeffs[(i, j)]))
        return _signed_sum(terms)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"CohomClass({self.to_string()})"


# lex order comparing the xi'-exponent first, as a block order of two
# one-variable blocks; the relation's leading monomial is then xi'^n,
# coprime to xi^(n+1)
_XI_PRIME_FIRST = MonomialOrder("block", (1,), (0,))


@lru_cache(maxsize=None)
def _incidence_divisors(pk, n: int) -> list:
    """The relation and xi^(n+1) as elements of one packing."""
    return [pk.element(relation_class(n).coeffs), pk.element({(n + 1, 0): 1})]


def nf(c: CohomClass) -> CohomClass:
    """Normal form in the quotient ring.

    Incidence ring: the remainder of the engine's division
    (``idealcalc._reduce``, on packed monomials, restarted wider if the
    xi-exponent outgrows its field) by the relation and xi^(n+1).  In
    the lex order with xi' compared first their leading monomials xi'^n
    and xi^(n+1) are coprime, so the pair is a Groebner basis and the
    remainder lies on the basis {xi^i xi'^j : i <= n, j <= n-1}; both
    leading coefficients are 1, so the division never rescales and the
    remainder is integral.  Product ring: drop exponents above n.
    """
    n = c.n
    if c.ring == PRODUCT:
        return CohomClass._trusted(n, PRODUCT, {(i, j): v for (i, j), v in c.coeffs.items()
                                                if i <= n and j <= n})

    def run(pk):
        remainder, _ = _reduce(pk.pack(c.coeffs), _incidence_divisors(pk, n), pk.guards)
        return pk.unpack(remainder)

    remainder = _with_packing(_XI_PRIME_FIRST, 2, max(n + 1, _top(c.coeffs)), run)
    return CohomClass._trusted(n, INCIDENCE, remainder)


def integrate(c: CohomClass) -> int:
    """Pairing with the fundamental class: top-degree coefficient after nf.

    Incidence ring: coefficient of xi^n xi'^(n-1); product ring:
    coefficient of xi^n xi'^n.  Non-top-degree input is rejected.
    """
    n = c.n
    top = 2 * n - 1 if c.ring == INCIDENCE else 2 * n
    if c and c.degrees() != {top}:
        raise UsageError("integrate expects a homogeneous class of top degree")
    reduced = nf(c)
    key = (n, n - 1) if c.ring == INCIDENCE else (n, n)
    return reduced.coeffs.get(key, 0)


def relation_class(n: int) -> CohomClass:
    """The alternating relation sum_{i=0..n} (-1)^i xi^i xi'^(n-i)."""
    return CohomClass(n, INCIDENCE,
                      {(i, n - i): (1 if i % 2 == 0 else -1) for i in range(n + 1)})


def chern_T(n: int, j: int) -> CohomClass:
    """Chern class of the tautological rank-(n-1) subbundle, in normal form.

    Evaluates the defining recursion c_j = C(n+1, j) xi^j - (xi + xi') c_{j-1}
    from c_0 = 1 in the free ring and reduces the result with ``nf``.
    """
    if not (0 <= j <= n):
        raise UsageError("index out of range (0 <= j <= n)")
    xi = CohomClass.xi(n)
    xs = xi + CohomClass.xi_prime(n)
    c = CohomClass.unit(n)
    for t in range(1, j + 1):
        c = comb(n + 1, t) * xi**t - xs * c
    return nf(c)


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


def normal_bundle_c1(m: MultiDegreeData) -> CohomClass:
    """First Chern class of the web foliation's normal bundle (restricted)."""
    n = m.n
    c = (n + 1) * CohomClass.xi_prime(n)
    for delta, d in m.pairs:
        c = c - (delta * CohomClass.xi(n) + d * CohomClass.xi_prime(n))
    return c


def fundamental_factor(m: MultiDegreeData, ring: str = INCIDENCE) -> CohomClass:
    """Product of (delta_a xi + d_a xi'), the class dual to the web."""
    n = m.n
    out = CohomClass.unit(n, ring)
    for delta, d in m.pairs:
        out = out * (delta * CohomClass.xi(n, ring) + d * CohomClass.xi_prime(n, ring))
    return out


def bott_number(m: MultiDegreeData) -> int:
    """Pairing of the squared normal-bundle class against the web.

    integrate(c1^2 * prod(delta_a xi + d_a xi') * xi^(n-2)) in the
    incidence ring; must vanish for a smooth dicritical web.
    """
    if m.n < 2:
        raise UsageError("defined for n >= 2")
    c1 = normal_bundle_c1(m)
    cls = c1 * c1 * fundamental_factor(m) * CohomClass.xi(m.n) ** (m.n - 2)
    return integrate(cls)


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
    xs = CohomClass.xi(n, PRODUCT) + CohomClass.xi_prime(n, PRODUCT)
    cls = nf(xs**3 * fundamental_factor(m, PRODUCT))
    coeffs = tuple(cls.coeffs.get((i, n + 2 - i), 0) for i in range(2, n + 1))
    return CausticCertificate(coeffs)
