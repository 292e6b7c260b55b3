"""Exact sparse multivariate polynomial arithmetic over the rationals.

Everything downstream (ideal computations, chart geometry, web verdicts)
runs on this kernel: immutable sparse polynomials with rational
coefficients over a fixed variable table, plus the derivative /
substitution / determinant / gcd toolkit.  A gcd that no cheap exit
settles is computed from an lcm read off the Groebner engine
(``idealcalc``).  A coefficient is an int when it is integral and a
Fraction otherwise, so integer inputs stay on int arithmetic.  No
floating point anywhere: every division between coefficients goes
through ``_quotient``, and all results are exact.
"""

from __future__ import annotations

import heapq
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add, mul, neg, sub
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class UsageError(ValueError):
    """An operation was called outside its documented contract."""


# Default bound on the S-polynomial reductions of one Groebner completion
# (``idealcalc.buchberger``), which ``multivar_gcd`` runs too
DEFAULT_PAIR_CAP = 10_000


def _grevlex_key(exps: tuple[int, ...]) -> tuple[int, ...]:
    # graded reverse lexicographic: higher degree wins, ties broken by the
    # smaller exponent in the latest differing variable; flat and linear
    # in the exponents, so a packing (``_Packing``) turns it into one int
    return (sum(exps), *map(neg, reversed(exps)))


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on exponent vectors, compatible with multiplication.

    kind 'grevlex' and 'lex' need no extra data; kind 'block' carries the
    index partition (eliminated group compared first, grevlex within each
    block), which makes it an elimination order for the first group.
    ``key`` is a flat tuple of integers, compared lexicographically, and
    each of its entries is linear in the exponents.
    """

    kind: str
    elim: tuple[int, ...] = ()
    keep: tuple[int, ...] = ()

    def key(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        if self.kind == "lex":
            return exps
        if self.kind == "block":
            # both grevlex keys have fixed lengths, so comparing the
            # concatenation compares the eliminated block first
            return (*_grevlex_key([exps[k] for k in self.elim]),
                    *_grevlex_key([exps[k] for k in self.keep]))
        raise UsageError(f"unknown monomial order kind {self.kind!r}")


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


# -- packed monomials -------------------------------------------------


class _Overflow(Exception):
    """A packed monomial outgrew its fields; the run restarts wider."""


# field stride in bits -> struct format of one field
_FIELD_FORMATS = {8: "B", 16: "H", 32: "I", 64: "Q"}
# the narrowest field width a packing starts from: a byte per exponent
_MIN_WIDTH = 7


class _Packing:
    """Monomials of one order and variable count packed into ints.

    Exponent k fills the low ``width`` bits of the byte-aligned field at
    bit ``k * stride``; the bit above them is a guard that is 0 in every
    valid monomial, and the bits above the guard stay 0.  So a product is
    ``a + b``, a divides b iff ``(b - a) & guards == 0``, and a new
    monomial with a guard bit set has overflowed its fields.

    Every order's key is linear in the exponents, so weights probed on
    unit vectors flatten it to one int, in a mixed radix wide enough that
    the balanced digits of a difference of two keys compare as the key
    tuples do.  A heap entry is ``(-flat key << span) + monomial``: heapq
    pops the largest monomial first, the entry of a shifted term is the
    entry of the term plus the entry of the shift, and the low ``span``
    bits are the monomial, so the divisibility test works on entries too.
    Entries are the engine's term-dict keys; ``exps`` reads one back.
    """

    __slots__ = ("width", "guards", "mask", "_weights", "_nbytes", "_unpack")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        stride = next(s for s in _FIELD_FORMATS if s > width)
        span = nvars * stride
        keys = [order.key(tuple(int(k == t) for t in range(nvars))) for k in range(nvars)]
        weights = [0] * nvars
        radix = 1
        for j in reversed(range(len(keys[0]) if keys else 0)):
            for k in range(nvars):
                weights[k] += keys[k][j] * radix
            radix *= 1 + ((1 << width) - 1) * sum(abs(key[j]) for key in keys)
        self.width = width
        self.guards = sum(1 << (k * stride + width) for k in range(nvars))
        self.mask = (1 << span) - 1
        self._weights = [(-w << span) + (1 << (k * stride)) for k, w in enumerate(weights)]
        self._nbytes = span // 8
        self._unpack = struct.Struct(f"<{nvars}{_FIELD_FORMATS[stride]}").unpack

    def entry(self, exps: tuple[int, ...]) -> int:
        return sum(map(mul, self._weights, exps))

    def exps(self, entry: int) -> tuple[int, ...]:
        return self._unpack((entry & self.mask).to_bytes(self._nbytes, "little"))

    def pack(self, terms: Mapping[tuple[int, ...], Scalar]) -> dict:
        weights = self._weights
        return {sum(map(mul, weights, e)): c for e, c in terms.items()}

    def unpack(self, items: Iterable[tuple[int, Scalar]]) -> dict:
        unpack, mask, nbytes = self._unpack, self.mask, self._nbytes
        return {unpack((t & mask).to_bytes(nbytes, "little")): c for t, c in items}

    def element(self, terms: Mapping[tuple[int, ...], int]) -> tuple:
        """(leading entry, leading coefficient, tail items) of an integer
        term dict, negated where needed so that the leading coefficient is
        positive."""
        packed = self.pack(terms)
        lead = min(packed)
        if packed[lead] < 0:
            packed = {t: -c for t, c in packed.items()}
        lc = packed.pop(lead)
        return lead, lc, tuple(packed.items())

    def lcm(self, a: int, b: int) -> int:
        """Per-field maximum of two monomials: the guard bits of
        ``(a | guards) - b`` mark the fields where a is at least b."""
        g = ((a | self.guards) - b) & self.guards
        f = g - (g >> self.width)
        return (a & f) | (b & ~f)


@lru_cache(maxsize=None)
def _packing(order: MonomialOrder, nvars: int, width: int) -> _Packing:
    return _Packing(order, nvars, width)


def _top(*term_maps: Mapping[tuple[int, ...], Scalar]) -> int:
    """The largest exponent in the term maps (0 when there is none)."""
    return max(chain.from_iterable(chain.from_iterable(term_maps)), default=0)


def _with_packing(order: MonomialOrder, nvars: int, top: int, run):
    """``run(packing)`` on the narrowest packing that holds ``top``, the
    inputs' largest exponent, restarted one width wider (2 * width + 1,
    up to 63 bits) each time it overflows.  Packings are built on first
    use and kept.  Orders and divisibility do not depend on the width,
    so a restart makes the same decisions."""
    width = _MIN_WIDTH
    while top >> width:
        width = 2 * width + 1
    while width < 64:
        try:
            return run(_packing(order, nvars, width))
        except _Overflow:
            width = 2 * width + 1
    raise UsageError("exponents past 2**63 - 1 do not fit a packed monomial")


def _subtract_packed(work: dict, heap: list, tail, shift: int, q: int, guards: int) -> None:
    """work -= q * x^shift * tail on a packed integer term dict, in place.

    ``work`` maps heap entries to integers and ``heap`` holds the entries
    of its monomials; the entry of a shifted tail term is the tail term's
    entry plus ``shift``, and it is pushed when it enters ``work``.  A
    cancelled monomial is deleted from ``work`` and its heap entry goes
    stale: popping code skips entries no longer in ``work``.  A new term
    with a guard bit set raises ``_Overflow``.
    """
    for t, c in tail:
        t += shift
        v = work.get(t)
        if v is None:
            if t & guards:
                raise _Overflow
            work[t] = -q * c
            heapq.heappush(heap, t)
        else:
            v -= q * c
            if v:
                work[t] = v
            else:
                del work[t]


def _quotient(a: Scalar, b: Scalar) -> Scalar:
    """The exact quotient a / b: an int when it is integral, else a Fraction.

    Two ints never meet ``/`` here, which would give a float.
    """
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _integer_terms(terms: Mapping[tuple[int, ...], Scalar]) -> tuple[Fraction, dict]:
    """Positive content c and the integer-coprime term map p with terms = c * p."""
    denom = math.lcm(*(c.denominator for c in terms.values()))
    ints = {e: c.numerator * (denom // c.denominator) for e, c in terms.items()}
    g = math.gcd(*ints.values())
    if g != 1:
        ints = {e: c // g for e, c in ints.items()}
    return Fraction(g, denom), ints


def _shift_terms(terms: dict, shift: tuple[int, ...], c: Scalar) -> dict:
    """c * x^shift * terms on a canonical term dict.

    Coefficients may be ints or Fractions.  Shifted monomials stay
    distinct and a nonzero c cancels no coefficient, so the result is
    canonical; a zero shift or c = 1 skips that step.
    """
    if any(shift):
        if c == 1:
            return {tuple(map(add, e, shift)): v for e, v in terms.items()}
        return {tuple(map(add, e, shift)): v * c for e, v in terms.items()}
    if c == 1:
        return dict(terms)
    return {e: v * c for e, v in terms.items()}


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two canonical term dicts, a's terms in the outer loop.

    Coefficients may be ints or Fractions (int dicts give an int dict).
    A one-term operand is applied as an exponent shift and a coefficient
    scale (``_shift_terms``); the result's term order is the same as the
    full double loop would give.
    """
    if len(b) == 1:
        ((e, c),) = b.items()
        return _shift_terms(a, e, c)
    if len(a) == 1:
        ((e, c),) = a.items()
        return _shift_terms(b, e, c)
    out: dict[tuple[int, ...], Scalar] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            v = out.get(e)
            if v is None:
                out[e] = c1 * c2
            else:
                v += c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
    return out


def _add_into(out: dict, terms: dict, op=add) -> dict:
    """out += terms (or out -= terms with ``op=sub``) on canonical term
    dicts with int or Fraction coefficients, in place; a cancelled
    monomial is deleted.  Returns out."""
    for e, c in terms.items():
        v = out.get(e)
        if v is None:
            out[e] = c if op is add else -c
        else:
            v = op(v, c)
            if v:
                out[e] = v
            else:
                del out[e]
    return out


def _signed_sum(terms) -> str:
    """(monomial text, nonzero coefficient) pairs, in the given order,
    as the text of a signed sum such as "x^2 - 3*x*y + 1/2".

    An empty monomial text marks the constant term, a unit coefficient
    is left out, and an empty sum prints as "0".
    """
    parts = []
    for mono, c in terms:
        a = abs(c)
        parts.append(" - " if c < 0 else " + ")
        if not mono:
            parts.append(str(a))
        elif a == 1:
            parts.append(mono)
        else:
            parts.append(f"{a}*{mono}")
    if not parts:
        return "0"
    parts[0] = "-" if parts[0] == " - " else ""
    return "".join(parts)


@dataclass(frozen=True)
class VarTable:
    """Ordered variable list partitioned into named groups."""

    names: tuple[str, ...]
    groups: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise UsageError("duplicate variable names")
        seen: list[int] = []
        for _, idxs in self.groups:
            seen.extend(idxs)
            if list(idxs) != sorted(idxs):
                raise UsageError("group indices must be ascending")
            if idxs and idxs != tuple(range(idxs[0], idxs[-1] + 1)):
                raise UsageError("group indices must be contiguous")
        if sorted(seen) != list(range(len(self.names))):
            raise UsageError("groups must partition the variable list")

    @classmethod
    def bihomog(cls, n: int) -> "VarTable":
        """Table X0..Xn, u0..un for bi-homogeneous work on P_n."""
        if n < 1:
            raise UsageError("dimension must be >= 1")
        xs = tuple(f"X{k}" for k in range(n + 1))
        us = tuple(f"u{k}" for k in range(n + 1))
        return cls(xs + us, (("X", tuple(range(n + 1))),
                             ("u", tuple(range(n + 1, 2 * n + 2)))))

    @classmethod
    def chart(cls, n: int, i: int, j: int) -> "VarTable":
        """Table for the affine chart X_i != 0, u_j != 0 (i != j)."""
        if not (0 <= i <= n and 0 <= j <= n and i != j):
            raise UsageError(f"invalid chart indices ({i},{j}) for n={n}")
        xs = tuple(f"x{k}" for k in range(n + 1) if k != i)
        ps = tuple(f"p{k}" for k in range(n + 1) if k not in (i, j))
        return cls(xs + ps, (("x", tuple(range(n))),
                             ("p", tuple(range(n, 2 * n - 1)))))

    @classmethod
    def plain(cls, names: Sequence[str]) -> "VarTable":
        names = tuple(names)
        return cls(names, (("v", tuple(range(len(names)))),))

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"unknown variable {name!r}") from None

    def group(self, label: str) -> tuple[int, ...]:
        for lbl, idxs in self.groups:
            if lbl == label:
                return idxs
        raise UsageError(f"unknown variable group {label!r}")

    def group_names(self, label: str) -> tuple[str, ...]:
        return tuple(self.names[k] for k in self.group(label))


def _as_scalar(c: Scalar) -> Scalar:
    """An exact coefficient in canonical form: an int when it is integral
    (a bool becomes 0 or 1), else a Fraction; anything else is rejected."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise UsageError(f"coefficients must be exact rationals, got {type(c).__name__}")


class MultiPoly:
    """Sparse polynomial: map from exponent vectors to nonzero rationals.

    A coefficient is an int when it is integral and a Fraction otherwise;
    arithmetic on int coefficients stays on ints.  Only arithmetic on
    Fractions can leave an integral Fraction, which compares and hashes
    like the int.

    Values are immutable after construction; all operations return fresh
    polynomials.  Two polynomials over the same table are equal iff their
    term maps are equal.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarTable, terms: Mapping[tuple[int, ...], Scalar]):
        width = len(vars.names)
        clean: dict[tuple[int, ...], Scalar] = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != width:
                raise UsageError("exponent vector length does not match table")
            if any(e < 0 for e in exps):
                raise UsageError("negative exponent")
            c = _as_scalar(c)
            if c:
                clean[exps] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _trusted(cls, vars: VarTable, terms: dict[tuple[int, ...], Scalar]) -> "MultiPoly":
        """Wrap a term dict that is already canonical, without checking it.

        Only for kernel producers that guarantee the form ``__init__``
        checks: exponent tuples of the table's width with non-negative
        int entries, and nonzero coefficients that are ints (never a bool)
        or Fractions, never floats.  Producers give an int for an integral
        value they divide out (``_quotient``); products and sums of
        Fractions may stay integral Fractions.  The dict is taken over,
        not copied.
        """
        self = object.__new__(cls)
        _set_vars(self, vars)
        _set_terms(self, terms)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: VarTable) -> "MultiPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: VarTable, c: Scalar) -> "MultiPoly":
        c = _as_scalar(c)
        return cls._trusted(vars, {(0,) * len(vars.names): c} if c else {})

    @classmethod
    def var(cls, vars: VarTable, name: str) -> "MultiPoly":
        k = vars.index(name)
        exps = tuple(1 if t == k else 0 for t in range(len(vars.names)))
        return cls._trusted(vars, {exps: 1})

    @classmethod
    def monomial(cls, vars: VarTable, exps: Sequence[int], c: Scalar = 1) -> "MultiPoly":
        return cls(vars, {tuple(exps): c})

    # -- ring structure ------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars is not self.vars and other.vars != self.vars:
                raise UsageError("operands live over different variable tables")
            return other
        return MultiPoly.const(self.vars, other)

    def __add__(self, other) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, _add_into(dict(self.terms), self._coerce(other).terms))

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return MultiPoly._trusted(self.vars,
                                  _add_into(dict(self.terms), self._coerce(other).terms, sub))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, _mul_terms(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        if not isinstance(k, int) or k < 0:
            raise UsageError("polynomial powers must be non-negative integers")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.terms == ({(0,) * len(self.vars.names): other} if other else {})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not usable as a dict key

    # -- queries -------------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        k = self.vars.index(name)
        return max((e[k] for e in self.terms), default=0)

    def group_degree(self, label: str) -> int:
        idxs = self.vars.group(label)
        return max((sum(e[k] for k in idxs) for e in self.terms), default=0)

    def variables_used(self) -> set[str]:
        used: set[str] = set()
        for e in self.terms:
            for k, exp in enumerate(e):
                if exp:
                    used.add(self.vars.names[k])
        return used

    def leading(self, key=_grevlex_key) -> tuple[tuple[int, ...], Scalar]:
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        exps = max(self.terms, key=key)
        return exps, self.terms[exps]

    def derivative(self, name: str) -> "MultiPoly":
        k = self.vars.index(name)
        # lowering the k-th exponent keeps distinct monomials distinct
        return MultiPoly._trusted(self.vars, {
            e[:k] + (e[k] - 1,) + e[k + 1:]: c if e[k] == 1 else c * e[k]
            for e, c in self.terms.items() if e[k]})

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        vals = [None] * len(self.vars.names)
        for name, v in point.items():
            vals[self.vars.index(name)] = _as_scalar(v)
        total = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for k, exp in enumerate(e):
                if exp:
                    if vals[k] is None:
                        raise UsageError(f"no value for variable {self.vars.names[k]!r}")
                    term *= vals[k] ** exp
            total += term
        return total

    # -- printing ------------------------------------------------------

    def to_string(self) -> str:
        return _signed_sum(_monomial_texts(self))

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_string()})"


def _monomial_texts(f: MultiPoly) -> list[tuple[str, Scalar]]:
    """(monomial text, coefficient) pairs of f's terms, in decreasing
    grevlex order, for ``_signed_sum``."""
    names = f.vars.names
    return [("*".join(names[k] if e == 1 else f"{names[k]}^{e}" for k, e in enumerate(exps) if e),
             f.terms[exps])
            for exps in sorted(f.terms, key=_grevlex_key, reverse=True)]


# the slot setters, bypassing the immutability guard at a fraction of the
# cost of object.__setattr__ (``MultiPoly._trusted`` runs once per product)
_set_vars = MultiPoly.vars.__set__
_set_terms = MultiPoly.terms.__set__

# -- module-level operations (the kernel API) --------------------------


def partial_derivative(f: MultiPoly, v: str) -> MultiPoly:
    return f.derivative(v)


def is_bihomogeneous(f: MultiPoly) -> tuple[int, int] | None:
    """Bi-degree (d1, d2) over the table's first two groups, or None.

    The zero polynomial has no bi-degree and is rejected.
    """
    if not f:
        raise UsageError("bi-degree of the zero polynomial is undefined")
    (_, g1), (_, g2) = f.vars.groups[0], f.vars.groups[1]
    degs = {(sum(e[k] for k in g1), sum(e[k] for k in g2)) for e in f.terms}
    if len(degs) != 1:
        return None
    return next(iter(degs))


def substitute(
    f: MultiPoly,
    mapping: Mapping[str, "MultiPoly | tuple[MultiPoly, MultiPoly]"],
    target: VarTable | None = None,
) -> tuple[MultiPoly, MultiPoly]:
    """Substitute rational expressions for variables, clearing denominators.

    Each mapped variable v gets a pair (num, den); plain polynomials mean
    den = 1.  Returns (g, D) with D the product of the substitution
    denominators raised to f's per-variable degrees, so that
    g = D * f(mapping) holds as rational functions and g is a polynomial.
    Variables of f left unmapped are carried through unchanged, which
    requires the target table to coincide with f's.
    """
    pairs: dict[str, tuple[MultiPoly, MultiPoly]] = {}
    for name, val in mapping.items():
        if isinstance(val, tuple):
            num, den = val
        else:
            num, den = val, None
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if not den:
            raise UsageError(f"zero denominator in substitution for {name!r}")
        if num.vars is not den.vars and num.vars != den.vars:
            raise UsageError("substitution numerator and denominator tables differ")
        pairs[name] = (num, den)

    if pairs:
        tables = {id(num.vars): num.vars for num, _ in pairs.values()}
        if len(tables) != 1:
            uniq = list(tables.values())
            if any(t != uniq[0] for t in uniq[1:]):
                raise UsageError("substitution values live over different tables")
        out_table = next(iter(tables.values()))
    else:
        out_table = f.vars
    if target is not None:
        if pairs and out_table != target:
            raise UsageError("substitution values do not match the target table")
        out_table = target
    same_table = out_table == f.vars

    # factors[k][e] = num^e * den^(deg - e) for the mapped variable at index
    # k, built once as a term dict: every mapped variable contributes
    # den^(deg - e), also when e = 0, so all terms share the cleared
    # denominator D
    width = len(out_table.names)
    one = {(0,) * width: 1}
    factors: dict[int, list[dict]] = {}
    clear = one
    for name, (num, den) in pairs.items():
        d = f.degree_in(name)
        npows, dpows = [one], [one]
        for _ in range(d):
            npows.append(_mul_terms(npows[-1], num.terms))
            dpows.append(_mul_terms(dpows[-1], den.terms))
        factors[f.vars.index(name)] = (
            npows if den == 1 else [_mul_terms(npows[e], dpows[d - e]) for e in range(d + 1)])
        clear = _mul_terms(clear, dpows[d])

    out: dict[tuple[int, ...], Scalar] = {}
    for exps, c in f.terms.items():
        carried = [0] * width
        for k, e in enumerate(exps):
            if e and k not in factors:
                if not same_table:
                    raise UsageError(f"variable {f.vars.names[k]!r} is not mapped")
                carried[k] = e
        part = {tuple(carried): c}
        for k, fac in factors.items():
            part = _mul_terms(part, fac[exps[k]])
        _add_into(out, part)
    return MultiPoly._trusted(out_table, out), MultiPoly._trusted(out_table, clear)


def scalar_equal(f: MultiPoly, g: MultiPoly) -> bool:
    """True iff f = c * g for some nonzero rational c."""
    if f.vars != g.vars:
        return False
    if not f or not g:
        return not f and not g
    if set(f.terms) != set(g.terms):
        return False
    exps = next(iter(f.terms))
    ratio = _quotient(f.terms[exps], g.terms[exps])
    return all(c == ratio * g.terms[e] for e, c in f.terms.items())


def exact_divide(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """Quotient f/g when g divides f exactly, else None.

    A monomial g = c*x^m divides f iff m is at most every exponent vector
    of f componentwise; the quotient then shifts each term of f by m and
    divides its coefficient by c, with no long division.

    Otherwise f is cleared of denominators and g made integer-primitive,
    and the division runs on one integer term dict of packed grevlex
    monomials (``_Packing``) whose leading term comes off a heap of int
    entries (Monagan & Pearce, JSC 46, 2011).  By Gauss's lemma the
    quotient by a primitive g is integral when it exists, so a leading
    coefficient that g's does not divide, like a leading monomial that
    g's does not divide, proves that g does not divide f.
    """
    if not g:
        raise UsageError("division by the zero polynomial")
    if not f:
        return MultiPoly.zero(f.vars)
    if f.vars != g.vars:
        raise UsageError("operands live over different variable tables")
    if len(g.terms) == 1:
        ((ge, gc),) = g.terms.items()
        shifted: dict[tuple[int, ...], Scalar] = {}
        for e, c in f.terms.items():
            qe = tuple(a - b for a, b in zip(e, ge))
            if min(qe) < 0:
                return None
            shifted[qe] = _quotient(c, gc)
        return MultiPoly._trusted(f.vars, shifted)
    fcont, fint = _integer_terms(f.terms)
    gcont, gint = _integer_terms(g.terms)

    def run(pk: _Packing):
        work, divisor = pk.pack(fint), pk.pack(gint)
        lead = min(divisor)
        lc = divisor.pop(lead)
        tail = tuple(divisor.items())
        guards = pk.guards
        heap = list(work)
        heapq.heapify(heap)
        terms = []
        while heap:
            we = heapq.heappop(heap)
            wc = work.pop(we, 0)
            if not wc:
                continue
            shift = we - lead
            qc, r = divmod(wc, lc)
            if r or shift & guards:
                return None
            terms.append((shift, qc))
            _subtract_packed(work, heap, tail, shift, qc, guards)
        return pk.unpack(terms)

    quot = _with_packing(GREVLEX, len(f.vars.names), _top(fint, gint), run)
    if quot is None:
        return None
    ratio = fcont / gcont
    return MultiPoly._trusted(f.vars, {e: _quotient(ratio.numerator * c, ratio.denominator)
                                       for e, c in quot.items()})


def integer_primitive(f: MultiPoly) -> tuple[Fraction, MultiPoly]:
    """Write f = content * primitive with integer-coprime primitive part.

    The primitive part has a positive leading coefficient under grevlex.
    f = 0 returns (0, 0).
    """
    if not f:
        return Fraction(0), f
    content, ints = _integer_terms(f.terms)
    if ints[max(ints, key=_grevlex_key)] < 0:
        content = -content
        ints = {e: -c for e, c in ints.items()}
    return content, MultiPoly._trusted(f.vars, ints)


# -- polynomial matrices ----------------------------------------------


@dataclass(frozen=True)
class PolyMatrix:
    rows: int
    cols: int
    entries: tuple[MultiPoly, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise UsageError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise UsageError("entry count does not match matrix shape")
        table = self.entries[0].vars
        if any(e.vars != table for e in self.entries):
            raise UsageError("matrix entries live over different tables")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[MultiPoly]]) -> "PolyMatrix":
        flat = tuple(e for row in rows for e in row)
        return cls(len(rows), len(rows[0]) if rows else 0, flat)

    @property
    def table(self) -> VarTable:
        return self.entries[0].vars

    def at(self, r: int, c: int) -> MultiPoly:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[MultiPoly, ...]:
        return self.entries[r * self.cols:(r + 1) * self.cols]


def _minor_table(M: PolyMatrix):
    """The minor of M on given rows x cols, with every minor it reaches memoized.

    ``minor(rows, cols)`` takes two equally long ascending index tuples
    and expands along the first row, skipping zero entries; each
    sub-minor is kept under its (rows, cols) key, so the minors of one
    matrix share their common sub-minors.  The empty minor is 1.
    """
    table = M.table
    grid = [M.row(r) for r in range(M.rows)]
    memo: dict = {((), ()): MultiPoly.const(table, 1)}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> MultiPoly:
        hit = memo.get((rows, cols))
        if hit is None:
            top, rest = grid[rows[0]], rows[1:]
            acc: dict[tuple[int, ...], Scalar] = {}
            for t, c in enumerate(cols):
                if top[c]:
                    sub_minor = minor(rest, cols[:t] + cols[t + 1:])
                    _add_into(acc, _mul_terms(top[c].terms, sub_minor.terms),
                              sub if t % 2 else add)
            hit = memo[rows, cols] = MultiPoly._trusted(table, acc)
        return hit

    return minor


def poly_det(M: PolyMatrix) -> MultiPoly:
    """Exact determinant of a square polynomial matrix."""
    if M.rows != M.cols:
        raise UsageError("determinant of a non-square matrix")
    full = tuple(range(M.rows))
    return _minor_table(M)(full, full)


def poly_adjugate(M: PolyMatrix) -> PolyMatrix:
    """Adjugate: M * adj(M) = det(M) * I as a polynomial identity.

    Entry (c, r) is the cofactor of M's entry (r, c), read off one minor
    table, so the cofactors share their sub-minors.
    """
    if M.rows != M.cols:
        raise UsageError("adjugate of a non-square matrix")
    minor, full = _minor_table(M), tuple(range(M.rows))
    drop = [full[:t] + full[t + 1:] for t in full]
    return PolyMatrix.from_rows([[minor(dr, dc) if (r + c) % 2 == 0 else -minor(dr, dc)
                                  for r, dr in enumerate(drop)]
                                 for c, dc in enumerate(drop)])


# -- multivariate gcd --------------------------------------------------


# Evaluation points of the coprimality certificate: variable k takes the
# value _EVAL_PRIMES[k % 16] + shift, one shift after another until a point
# proves the variable absent from the gcd.  Any point is sound; these only
# make a lucky one likely.
_EVAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_EVAL_SHIFTS = (0, 1, 3)
# the prime modulus of the certificate's univariate images, 2^61 - 1
_MODULUS = (1 << 61) - 1


def _eval_point(width: int, shift: int) -> tuple[int, ...]:
    return tuple(_EVAL_PRIMES[k % len(_EVAL_PRIMES)] + shift for k in range(width))


def _trim(coeffs: list[int]) -> list[int]:
    """Drop leading zero coefficients; the zero polynomial stays [0]."""
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _image_in(terms: Mapping[tuple[int, ...], int], w: int, point: Sequence[int]) -> list[int]:
    """Coefficients mod ``_MODULUS`` of an integer term dict in variable w,
    lowest first, with the other variables set to point."""
    coeffs = [0] * (max(e[w] for e in terms) + 1)
    for e, c in terms.items():
        for k, x in enumerate(e):
            if x and k != w:
                c *= point[k] ** x
        coeffs[e[w]] += c
    return _trim([c % _MODULUS for c in coeffs])


def _univariate_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) in F_p[w], p = ``_MODULUS``: Euclid on trimmed
    dense lists of residues, a nonzero."""
    while b[-1]:
        if len(b) == 1:
            return 0
        a = a[:]
        inverse = pow(b[-1], -1, _MODULUS)
        for top in range(len(a) - 1, len(b) - 2, -1):
            q = a[top] * inverse % _MODULUS
            if q:
                shift = top - len(b) + 1
                for k, c in enumerate(b):
                    a[shift + k] = (a[shift + k] - q * c) % _MODULUS
        a, b = b, _trim(a[:len(b) - 1])
    return len(a) - 1


def _coprime_by_evaluation(f: MultiPoly, g: MultiPoly) -> bool:
    """True only if gcd(f, g) is constant; False proves nothing.

    The images are taken of the integer-primitive operands, in F_p[w] for
    one variable w at a time, p = 2^61 - 1 (Brown, "On Euclid's algorithm
    and the computation of polynomial greatest common divisors", JACM 18,
    1971).  Let h be a primitive integer factor of f and g of positive
    degree in w, and set the other variables to a point where f's leading
    coefficient in w does not vanish mod p.  By Gauss's lemma that
    coefficient is h's times an integer polynomial's, so h's image keeps
    its w-degree and divides both images; a constant image gcd therefore
    proves h free of w.  A common factor can only involve variables that
    occur in both f and g, so proving each of them absent proves the gcd
    constant.  For each such variable the points are tried in turn until
    one gives a constant image gcd; a point where the leading coefficient
    vanishes mod p is skipped, and when no point proves the variable
    absent (a common factor, or only unlucky points) the answer is False.
    """
    _, f_int = _integer_terms(f.terms)
    _, g_int = _integer_terms(g.terms)
    width = len(f.vars.names)
    f_deg = [max(col) for col in zip(*f_int)]
    g_deg = [max(col) for col in zip(*g_int)]
    points = [_eval_point(width, shift) for shift in _EVAL_SHIFTS]
    for w in range(width):
        if not (f_deg[w] and g_deg[w]):
            continue
        for point in points:
            f_image = _image_in(f_int, w, point)
            if (len(f_image) == f_deg[w] + 1
                    and not _univariate_gcd_degree(f_image, _image_in(g_int, w, point))):
                break
        else:
            return False
    return True


def _monomial_content(f: MultiPoly) -> tuple[tuple[int, ...], MultiPoly]:
    """(m, f') with f = x^m f' and m the componentwise minimum exponent of
    f's terms, of which there are at least two."""
    m = tuple(map(min, *f.terms))
    if not any(m):
        return m, f
    return m, MultiPoly._trusted(f.vars, {tuple(map(sub, e, m)): c for e, c in f.terms.items()})


def _gcd_pair(f: MultiPoly, g: MultiPoly, pair_cap: int) -> MultiPoly:
    if not f:
        return g
    if not g:
        return f
    if f.is_constant() or g.is_constant():
        return MultiPoly.const(f.vars, 1)
    if len(f.terms) == 1 or len(g.terms) == 1:
        # the divisors of a monomial are monomials, and x^m divides a
        # polynomial iff m is at most each of its exponent vectors
        return MultiPoly._trusted(f.vars, {tuple(map(min, *f.terms, *g.terms)): 1})
    # no variable divides f' or g', so gcd(x^a f', x^b g') = x^min(a, b) gcd(f', g')
    a, f = _monomial_content(f)
    b, g = _monomial_content(g)
    if any(a) or any(b):
        shift = tuple(map(min, a, b))
        inner = _gcd_pair(f, g, pair_cap)
        return MultiPoly._trusted(f.vars, _shift_terms(inner.terms, shift, 1))
    if scalar_equal(f, g):
        return f
    if _coprime_by_evaluation(f, g):
        return MultiPoly.const(f.vars, 1)
    # lcm(f, g) generates (f) ∩ (g) = (t f, (1 - t) g) ∩ Q[x] (Cox, Little,
    # O'Shea, "Ideals, Varieties, and Algorithms", ch. 4 §3), and
    # gcd(f, g) = f g / lcm(f, g); idealcalc imports this module, so its
    # engine is imported here
    from .idealcalc import eliminate

    names = f.vars.names
    t = "t" * (1 + max(map(len, names)))  # longer than every name: fresh
    table = VarTable(names + (t,), f.vars.groups + ((t, (len(names),)),))
    tf = {e + (1,): c for e, c in f.terms.items()}
    g_minus_tg = {e + (0,): c for e, c in g.terms.items()}
    g_minus_tg.update({e + (1,): -c for e, c in g.terms.items()})
    (lcm,) = eliminate([MultiPoly._trusted(table, tf), MultiPoly._trusted(table, g_minus_tg)],
                       (t,), pair_cap)
    lcm = MultiPoly._trusted(f.vars, {e[:-1]: c for e, c in lcm.terms.items()})
    return exact_divide(f * g, lcm)


def multivar_gcd(fs: Iterable[MultiPoly], pair_cap: int = DEFAULT_PAIR_CAP) -> MultiPoly:
    """A gcd of the inputs, integer-primitive with positive leading coefficient.

    The inputs are folded pairwise.  A pair with a constant operand has
    gcd 1, and a pair with a monomial operand has the monomial whose
    exponents are the componentwise minimum over both supports (exact,
    since every divisor of a monomial is one).  Otherwise each operand's
    monomial content, its componentwise minimum exponent, is split off:
    gcd(x^a f', x^b g') = x^min(a, b) gcd(f', g').  Of the remaining pair,
    two scalar multiples have the first as their gcd, and a pair with an
    exact coprimality certificate has gcd 1.  The certificate takes the
    integer-primitive operands' univariate images modulo the prime
    2^61 - 1 at integer points that keep the first one's degree in each
    shared variable, trying further points until one gives a constant
    image gcd; it only ever proves coprimality.  Any other pair is one
    elimination in the Groebner engine: lcm(f, g) is the generator of
    (t f, (1 - t) g) with a fresh t eliminated, and the gcd is the exact
    quotient f g / lcm(f, g).  The elimination runs under ``pair_cap``
    and raises ``PairCapExceeded`` past it.
    """
    fs = [f for f in fs if f]
    if not fs:
        raise UsageError("gcd of all-zero inputs")
    g = fs[0]
    for f in fs[1:]:
        g = _gcd_pair(g, f, pair_cap)
        if g.is_constant():
            break
    _, prim = integer_primitive(g)
    return prim

