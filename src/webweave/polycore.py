"""Exact sparse multivariate polynomial arithmetic over the rationals.

Everything downstream (ideal computations, chart geometry, web verdicts)
runs on this kernel: immutable sparse polynomials with Fraction
coefficients over a fixed variable table, plus the derivative /
substitution / determinant / resultant / gcd toolkit.  No floating
point anywhere; all results are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


class UsageError(ValueError):
    """An operation was called outside its documented contract."""


def _grevlex_key(exps: tuple[int, ...]):
    # graded reverse lexicographic: higher degree wins, ties broken by the
    # smaller exponent in the latest differing variable
    return (sum(exps), tuple(-e for e in reversed(exps)))


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


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise UsageError(f"coefficients must be exact rationals, got {type(c).__name__}")


class MultiPoly:
    """Sparse polynomial: map from exponent vectors to nonzero Fractions.

    Values are immutable after construction; all operations return fresh
    polynomials.  Two polynomials over the same table are equal iff their
    term maps are equal.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarTable, terms: Mapping[tuple[int, ...], Scalar]):
        width = len(vars.names)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != width:
                raise UsageError("exponent vector length does not match table")
            if any(e < 0 for e in exps):
                raise UsageError("negative exponent")
            c = _as_fraction(c)
            if c:
                clean[exps] = c
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: VarTable) -> "MultiPoly":
        return cls(vars, {})

    @classmethod
    def const(cls, vars: VarTable, c: Scalar) -> "MultiPoly":
        return cls(vars, {(0,) * len(vars.names): c})

    @classmethod
    def var(cls, vars: VarTable, name: str) -> "MultiPoly":
        k = vars.index(name)
        exps = tuple(1 if t == k else 0 for t in range(len(vars.names)))
        return cls(vars, {exps: 1})

    @classmethod
    def monomial(cls, vars: VarTable, exps: Sequence[int], c: Scalar = 1) -> "MultiPoly":
        return cls(vars, {tuple(exps): c})

    # -- ring structure ------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise UsageError("operands live over different variable tables")
            return other
        return MultiPoly.const(self.vars, other)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s:
                out[exps] = s
            else:
                out.pop(exps, None)
        return MultiPoly(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerce(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.vars, out)

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
            other = MultiPoly.const(self.vars, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    __hash__ = None  # mutable-dict backed; not usable as a dict key

    # -- queries -------------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise UsageError("polynomial is not constant")
        return next(iter(self.terms.values()))

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

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def leading(self, key=_grevlex_key) -> tuple[tuple[int, ...], Fraction]:
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        exps = max(self.terms, key=key)
        return exps, self.terms[exps]

    def collect(self, name: str) -> dict[int, "MultiPoly"]:
        """Coefficients of self viewed as a polynomial in ``name``."""
        k = self.vars.index(name)
        out: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for e, c in self.terms.items():
            rest = tuple(0 if t == k else x for t, x in enumerate(e))
            out.setdefault(e[k], {})[rest] = c
        return {d: MultiPoly(self.vars, t) for d, t in out.items()}

    def derivative(self, name: str) -> "MultiPoly":
        k = self.vars.index(name)
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[k]:
                e2 = tuple(x - 1 if t == k else x for t, x in enumerate(e))
                out[e2] = out.get(e2, Fraction(0)) + c * e[k]
        return MultiPoly(self.vars, out)

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        vals = [None] * len(self.vars.names)
        for name, v in point.items():
            vals[self.vars.index(name)] = _as_fraction(v)
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
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=_grevlex_key, reverse=True):
            c = self.terms[exps]
            mono = "*".join(
                self.vars.names[k] if e == 1 else f"{self.vars.names[k]}^{e}"
                for k, e in enumerate(exps) if e
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            parts.append((c < 0, body))
        first_neg, first_body = parts[0]
        text = ("-" if first_neg else "") + first_body
        for neg, body in parts[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_string()})"


# -- module-level operations (the kernel API) --------------------------


def partial_derivative(f: MultiPoly, v: str) -> MultiPoly:
    return f.derivative(v)


def group_degree(f: MultiPoly, label: str) -> int:
    return f.group_degree(label)


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
        if num.vars != den.vars:
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

    degs = {name: f.degree_in(name) for name in pairs}
    # cache powers up to the needed degree
    num_pow: dict[str, list[MultiPoly]] = {}
    den_pow: dict[str, list[MultiPoly]] = {}
    for name, (num, den) in pairs.items():
        d = degs[name]
        npows = [MultiPoly.const(out_table, 1)]
        dpows = [MultiPoly.const(out_table, 1)]
        for _ in range(d):
            npows.append(npows[-1] * num)
            dpows.append(dpows[-1] * den)
        num_pow[name], den_pow[name] = npows, dpows

    width = len(out_table.names)
    mapped_at = {f.vars.index(name): name for name in pairs}
    result = MultiPoly.zero(out_table)
    for exps, c in f.terms.items():
        part = MultiPoly.const(out_table, c)
        carried = [0] * width
        for k, e in enumerate(exps):
            if k in mapped_at or not e:
                continue
            name = f.vars.names[k]
            if not same_table:
                raise UsageError(f"variable {name!r} is not mapped")
            carried[out_table.index(name)] += e
        # every mapped variable contributes den^(deg - e), also when e = 0,
        # so all terms share the same cleared denominator
        for k, name in mapped_at.items():
            e = exps[k]
            part = part * num_pow[name][e] * den_pow[name][degs[name] - e]
        if any(carried):
            part = part * MultiPoly.monomial(out_table, carried)
        result = result + part

    clear = MultiPoly.const(out_table, 1)
    for name, (_, den) in pairs.items():
        clear = clear * den_pow[name][degs[name]] if degs[name] else clear
    return result, clear


def scalar_equal(f: MultiPoly, g: MultiPoly) -> bool:
    """True iff f = c * g for some nonzero rational c."""
    if f.vars != g.vars:
        return False
    if not f or not g:
        return not f and not g
    if set(f.terms) != set(g.terms):
        return False
    exps = next(iter(f.terms))
    ratio = f.terms[exps] / g.terms[exps]
    return all(c == ratio * g.terms[e] for e, c in f.terms.items())


def exact_divide(f: MultiPoly, g: MultiPoly) -> MultiPoly | None:
    """Quotient f/g when g divides f exactly, else None."""
    if not g:
        raise UsageError("division by the zero polynomial")
    if not f:
        return MultiPoly.zero(f.vars)
    if f.vars != g.vars:
        raise UsageError("operands live over different variable tables")
    ge, gc = g.leading()
    quot: dict[tuple[int, ...], Fraction] = {}
    rem = f
    while rem:
        re, rc = rem.leading()
        qe = tuple(a - b for a, b in zip(re, ge))
        if any(x < 0 for x in qe):
            return None
        qc = rc / gc
        quot[qe] = qc
        rem = rem - MultiPoly.monomial(rem.vars, qe, qc) * g
    return MultiPoly(f.vars, quot)


def integer_primitive(f: MultiPoly) -> tuple[Fraction, MultiPoly]:
    """Write f = content * primitive with integer-coprime primitive part.

    The primitive part has a positive leading coefficient under grevlex.
    f = 0 returns (0, 0).
    """
    if not f:
        return Fraction(0), f
    denom_lcm = 1
    for c in f.terms.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    num_gcd = 0
    for c in f.terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator * (denom_lcm // c.denominator)))
    content = Fraction(num_gcd, denom_lcm)
    _, lead = f.leading()
    if lead < 0:
        content = -content
    prim = MultiPoly(f.vars, {e: c / content for e, c in f.terms.items()})
    return content, prim


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
        return cls(len(rows), len(rows[0]), flat)

    @property
    def table(self) -> VarTable:
        return self.entries[0].vars

    def at(self, r: int, c: int) -> MultiPoly:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[MultiPoly, ...]:
        return self.entries[r * self.cols:(r + 1) * self.cols]

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise UsageError("matrix shapes do not compose")
        out = []
        for r in range(self.rows):
            for c in range(other.cols):
                acc = MultiPoly.zero(self.table)
                for k in range(self.cols):
                    acc = acc + self.at(r, k) * other.at(k, c)
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, tuple(out))


def _det_expansion(m: list[list[MultiPoly]], table: VarTable) -> MultiPoly:
    k = len(m)
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    acc = MultiPoly.zero(table)
    for r in range(k):
        if not m[r][0]:
            continue
        minor = [row[1:] for t, row in enumerate(m) if t != r]
        cof = _det_expansion(minor, table)
        acc = acc + m[r][0] * cof if r % 2 == 0 else acc - m[r][0] * cof
    return acc


def _det_bareiss(m: list[list[MultiPoly]], table: VarTable) -> MultiPoly:
    k = len(m)
    m = [row[:] for row in m]
    sign = 1
    prev = MultiPoly.const(table, 1)
    for c in range(k - 1):
        pivot_row = next((r for r in range(c, k) if m[r][c]), None)
        if pivot_row is None:
            return MultiPoly.zero(table)
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            sign = -sign
        for r in range(c + 1, k):
            for t in range(c + 1, k):
                num = m[c][c] * m[r][t] - m[r][c] * m[c][t]
                q = exact_divide(num, prev)
                assert q is not None, "Bareiss division is exact by construction"
                m[r][t] = q
            m[r][c] = MultiPoly.zero(table)
        prev = m[c][c]
    det = m[k - 1][k - 1]
    return det if sign > 0 else -det


def _det(grid: list[list[MultiPoly]], table: VarTable) -> MultiPoly:
    """Cofactor expansion up to 4x4, Bareiss beyond."""
    if len(grid) <= 4:
        return _det_expansion(grid, table)
    return _det_bareiss(grid, table)


def poly_det(M: PolyMatrix) -> MultiPoly:
    """Exact determinant of a square polynomial matrix."""
    if M.rows != M.cols:
        raise UsageError("determinant of a non-square matrix")
    return _det([list(M.row(r)) for r in range(M.rows)], M.table)


def poly_adjugate(M: PolyMatrix) -> PolyMatrix:
    """Adjugate: M * adj(M) = det(M) * I as a polynomial identity."""
    if M.rows != M.cols:
        raise UsageError("adjugate of a non-square matrix")
    k = M.rows
    if k == 1:
        return PolyMatrix(1, 1, (MultiPoly.const(M.table, 1),))
    grid = [list(M.row(r)) for r in range(k)]
    out = [[None] * k for _ in range(k)]
    for r in range(k):
        for c in range(k):
            minor = [[grid[a][b] for b in range(k) if b != c]
                     for a in range(k) if a != r]
            cof = _det(minor, M.table)
            out[c][r] = cof if (r + c) % 2 == 0 else -cof
    return PolyMatrix.from_rows(out)


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


# -- multivariate gcd (primitive PRS) ----------------------------------


def _pseudo_rem(a: MultiPoly, b: MultiPoly, v: str) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to v (deg_v b >= 1)."""
    db = b.degree_in(v)
    lead_b = b.collect(v)[db]
    vv = MultiPoly.var(a.vars, v)
    r = a
    while r and r.degree_in(v) >= db:
        dr = r.degree_in(v)
        lead_r = r.collect(v)[dr]
        r = lead_b * r - lead_r * vv ** (dr - db) * b
    return r


def _content_and_primitive(f: MultiPoly, v: str) -> tuple[MultiPoly, MultiPoly]:
    coeffs = list(f.collect(v).values())
    cont = multivar_gcd(coeffs)
    prim = exact_divide(f, cont)
    assert prim is not None, "content divides by construction"
    return cont, prim


def _gcd_pair(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    if not f:
        return g
    if not g:
        return f
    if f.is_constant() or g.is_constant():
        return MultiPoly.const(f.vars, 1)
    used = sorted(f.vars.index(n) for n in f.variables_used() | g.variables_used())
    v = f.vars.names[used[-1]]
    if f.degree_in(v) == 0:
        cont_g, _ = _content_and_primitive(g, v)
        return _gcd_pair(f, cont_g)
    if g.degree_in(v) == 0:
        cont_f, _ = _content_and_primitive(f, v)
        return _gcd_pair(cont_f, g)
    cont_f, prim_f = _content_and_primitive(f, v)
    cont_g, prim_g = _content_and_primitive(g, v)
    cont = _gcd_pair(cont_f, cont_g)
    a, b = prim_f, prim_g
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while True:
        r = _pseudo_rem(a, b, v)
        if not r:
            break
        _, r = _content_and_primitive(r, v)
        _, r = integer_primitive(r)
        a, b = b, r
        if b.degree_in(v) == 0:
            break
    if b.degree_in(v) == 0:
        return cont
    _, prim_b = _content_and_primitive(b, v)
    return cont * prim_b


def multivar_gcd(fs: Iterable[MultiPoly]) -> MultiPoly:
    """A gcd of the inputs, integer-primitive with positive leading coefficient."""
    fs = [f for f in fs if f]
    if not fs:
        raise UsageError("gcd of all-zero inputs")
    g = fs[0]
    for f in fs[1:]:
        g = _gcd_pair(g, f)
        if g.is_constant():
            break
    _, prim = integer_primitive(g)
    return prim


# -- exact linear algebra helper ---------------------------------------


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
        aug[r] = [x / pv for x in aug[r]]
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
