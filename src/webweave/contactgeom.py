"""Charts on the space of contact elements of P_n, and chart transitions.

A contact element is a pair (point, hyperplane through it), coordinatized
by bi-homogeneous coordinates (X_0..X_n; u_0..u_n) subject to the
incidence relation sum u_r X_r = 0.  The standard atlas consists of the
n(n+1) charts (i, j), i != j, where X_i and u_j are normalized; on each
chart a global equation H restricts to a polynomial F(x, p).

This module builds chart forms, re-homogenizes them, computes the exact
rational transition maps between charts together with their Jacobian
data, checks the covariance law for chart forms, and realizes projective
duality at the level of equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .idealcalc import block_order, normal_form
from .polycore import (
    MultiPoly,
    PolyMatrix,
    UsageError,
    VarTable,
    exact_divide,
    integer_primitive,
    is_bihomogeneous,
    multivar_gcd,
    poly_adjugate,
    poly_det,
    scalar_equal,
    solve_linear,
    substitute,
)


def incidence_form(n: int) -> MultiPoly:
    """The incidence pairing sum_r u_r X_r over the bi-homogeneous table."""
    table = VarTable.bihomog(n)
    f = MultiPoly.zero(table)
    for r in range(n + 1):
        f = f + MultiPoly.var(table, f"X{r}") * MultiPoly.var(table, f"u{r}")
    return f


def _u0_elim_order(n: int):
    return block_order(VarTable.bihomog(n), ("u0",))


def reduce_mod_incidence(n: int, f: MultiPoly) -> MultiPoly:
    """Canonical representative modulo the incidence form (u0 eliminated)."""
    return normal_form(f, [incidence_form(n)], _u0_elim_order(n))


@dataclass(frozen=True)
class BiHomogPde:
    """One global equation H(X; u), bi-homogeneous of bi-degree (delta, d).

    Valid equations are nonzero, have u-degree d >= 1, and are not
    divisible by the incidence form (divisible ones cut out nothing new).
    """

    n: int
    poly: MultiPoly

    def __post_init__(self):
        if self.poly.vars != VarTable.bihomog(self.n):
            raise UsageError("polynomial does not live over the bi-homogeneous table")
        if not self.poly:
            raise UsageError("the zero polynomial defines no equation")
        bd = is_bihomogeneous(self.poly)
        if bd is None:
            raise UsageError("polynomial is not bi-homogeneous")
        if bd[1] < 1:
            raise UsageError("u-degree (weight) must be at least 1")
        if not reduce_mod_incidence(self.n, self.poly):
            raise UsageError("polynomial is divisible by the incidence form")

    @property
    def bidegree(self) -> tuple[int, int]:
        bd = is_bihomogeneous(self.poly)
        assert bd is not None
        return bd

    @property
    def weight(self) -> int:
        return self.bidegree[1]

    def canonical_poly(self) -> MultiPoly:
        return reduce_mod_incidence(self.n, self.poly)


def pde_equiv(a: BiHomogPde, b: BiHomogPde) -> bool:
    """Same hypersurface: equal canonical forms up to a nonzero scalar."""
    if a.n != b.n:
        return False
    return scalar_equal(a.canonical_poly(), b.canonical_poly())


def dual_pde(S: BiHomogPde) -> BiHomogPde:
    """Read the same hypersurface as an equation on the dual space.

    Swaps the two variable blocks, exchanging bi-degree (delta, d) for
    (d, delta); requires delta >= 1 so the dual has positive weight.
    """
    delta, _ = S.bidegree
    if delta < 1:
        raise UsageError("dual has weight 0: not a PDE")
    table = S.poly.vars
    half = S.n + 1
    out = {}
    for exps, c in S.poly.terms.items():
        out[exps[half:] + exps[:half]] = c
    return BiHomogPde(S.n, MultiPoly(table, out))


def is_algebraic_pde(S: BiHomogPde) -> bool:
    """True iff the equation has X-degree 0 (hyperplanes of a dual hypersurface)."""
    return S.bidegree[0] == 0


@dataclass(frozen=True)
class Chart:
    """Standard chart (i, j): X_i != 0 and u_j != 0, i != j.

    Affine coordinates are x_l = X_l/X_i (l != i) with x_j playing the
    role of the distinguished last coordinate, and p_a = -u_a/u_j for the
    n-1 indices a outside {i, j}.
    """

    n: int
    i: int
    j: int

    def __post_init__(self):
        if not (0 <= self.i <= self.n and 0 <= self.j <= self.n and self.i != self.j):
            raise UsageError(f"invalid chart ({self.i},{self.j}) for n={self.n}")

    @property
    def table(self) -> VarTable:
        return VarTable.chart(self.n, self.i, self.j)

    @property
    def x_indices(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n + 1) if k != self.i)

    @property
    def p_indices(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.n + 1) if k not in (self.i, self.j))

    @property
    def slot_indices(self) -> tuple[int, ...]:
        """Coordinate slots: the p-paired indices in order, then j last."""
        return self.p_indices + (self.j,)

    def x(self, k: int) -> MultiPoly:
        return MultiPoly.var(self.table, f"x{k}")

    def p(self, k: int) -> MultiPoly:
        return MultiPoly.var(self.table, f"p{k}")

    def u_values(self) -> dict[int, MultiPoly]:
        """Homogeneous u's evaluated in this chart's normalization."""
        vals = {self.j: MultiPoly.const(self.table, -1)}
        for a in self.p_indices:
            vals[a] = self.p(a)
        forced = self.x(self.j)
        for a in self.p_indices:
            forced = forced - self.p(a) * self.x(a)
        vals[self.i] = forced
        return vals

    def substitution(self) -> dict[str, MultiPoly]:
        sub: dict[str, MultiPoly] = {f"X{self.i}": MultiPoly.const(self.table, 1)}
        for k in self.x_indices:
            sub[f"X{k}"] = self.x(k)
        for k, val in self.u_values().items():
            sub[f"u{k}"] = val
        return sub


def standard_atlas(n: int) -> tuple[Chart, ...]:
    return tuple(Chart(n, i, j) for i in range(n + 1) for j in range(n + 1) if i != j)


@dataclass(frozen=True)
class ChartForm:
    """Restriction F(x, p) of a global equation to one chart."""

    chart: Chart
    poly: MultiPoly


def chart_form(S: BiHomogPde, chart: Chart) -> ChartForm:
    if chart.n != S.n:
        raise UsageError("chart and equation dimensions differ")
    F, _ = substitute(S.poly, chart.substitution(), target=chart.table)
    return ChartForm(chart, F)


def _degree_vectors(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _degree_vectors(total - head, slots - 1):
            yield (head,) + rest


def _canonical_monomials(n: int, delta: int, d: int):
    """Bidegree-(delta, d) monomials not divisible by u0*X0 (normal forms)."""
    for xe in _degree_vectors(delta, n + 1):
        for ue in _degree_vectors(d, n + 1):
            if xe[0] >= 1 and ue[0] >= 1:
                continue
            yield xe + ue


def rehomogenize(form: ChartForm, bidegree: tuple[int, int] | None = None) -> BiHomogPde:
    """The equation of minimal bi-degree restricting to the given chart form.

    The representative is canonical modulo the incidence form (u0
    eliminated).  Without a declared bi-degree the u-degree is the
    p-degree of F and the X-degree is the least one that admits a
    polynomial homogenization.  With a declared bi-degree the system is
    solved at exactly that bi-degree and failure is an error.
    """
    chart, F = form.chart, form.poly
    if not F:
        raise UsageError("cannot homogenize the zero chart form")
    n = chart.n
    if bidegree is not None:
        candidates = [bidegree]
    else:
        d = F.group_degree("p")
        if d < 1:
            raise UsageError("chart form has p-degree 0: weight would be 0")
        candidates = [(delta, d) for delta in range(F.group_degree("x") + 1)]

    sub = chart.substitution()
    table = VarTable.bihomog(n)
    # power caches for the substitution values, grown on demand
    pows: dict[str, list[MultiPoly]] = {name: [MultiPoly.const(chart.table, 1)]
                                        for name in sub}

    def value_power(name: str, e: int) -> MultiPoly:
        cache = pows[name]
        while len(cache) <= e:
            cache.append(cache[-1] * sub[name])
        return cache[e]

    for delta, d in candidates:
        if delta < 0 or d < 1:
            raise UsageError("declared bi-degree must have delta >= 0, d >= 1")
        monoms = list(_canonical_monomials(n, delta, d))
        restrictions = []
        for m in monoms:
            r = MultiPoly.const(chart.table, 1)
            for k, e in enumerate(m):
                if e:
                    r = r * value_power(table.names[k], e)
            restrictions.append(r)
        support: list[tuple[int, ...]] = sorted(
            set(F.terms) | {e for r in restrictions for e in r.terms})
        row_of = {e: k for k, e in enumerate(support)}
        rows = [[Fraction(0)] * len(monoms) for _ in support]
        for col, r in enumerate(restrictions):
            for e, c in r.terms.items():
                rows[row_of[e]][col] = c
        rhs = [F.terms.get(e, Fraction(0)) for e in support]
        sol = solve_linear(rows, rhs)
        if sol is None:
            continue
        H = MultiPoly(table, {m: c for m, c in zip(monoms, sol) if c})
        return BiHomogPde(n, H)
    raise UsageError("no polynomial homogenization at the declared bi-degree")


# -- rational functions and chart transitions ---------------------------


class RatFunc:
    """Quotient of two polynomials over one table, kept reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if not den:
            raise UsageError("zero denominator")
        if num.vars != den.vars:
            raise UsageError("numerator and denominator tables differ")
        if num:
            g = multivar_gcd([num, den])
            if not g.is_constant():
                num = exact_divide(num, g)
                den = exact_divide(den, g)
            _, lead = den.leading()
            if lead < 0:
                num, den = -num, -den
        else:
            den = MultiPoly.const(num.vars, 1)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def const(cls, table: VarTable, c) -> "RatFunc":
        return cls(MultiPoly.const(table, c))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if not other.num:
            raise UsageError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.num == other * self.den
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if not d:
            raise UsageError("denominator vanishes at the sample point")
        return self.num.evaluate(point) / d

    def __repr__(self) -> str:
        if self.den.is_constant() and self.den.constant_value() == 1:
            return f"RatFunc({self.num})"
        return f"RatFunc(({self.num})/({self.den}))"


@dataclass(frozen=True)
class ChartMaps:
    """Coordinate maps between two standard charts: ``x_map``/``p_map``
    express the target coordinates as rational functions of the source
    ones."""

    source: Chart
    target: Chart
    x_map: tuple[tuple[str, RatFunc], ...]
    p_map: tuple[tuple[str, RatFunc], ...]

    @property
    def maps(self) -> dict[str, RatFunc]:
        return dict(self.x_map) | dict(self.p_map)

    def overlap_factors(self) -> list[MultiPoly]:
        """Polynomials invertible on the chart overlap (unit generators)."""
        out: list[MultiPoly] = []
        src, tgt = self.source, self.target
        if tgt.i != src.i:
            out.append(src.x(tgt.i))
        if tgt.j != src.j:
            _, prim = integer_primitive(src.u_values()[tgt.j])
            out.append(prim)
        return out


@dataclass(frozen=True)
class ChartTransition(ChartMaps):
    """Exact transition between two standard charts.

    Besides the coordinate maps, J is the Jacobian of the point-part in
    the source/target slot order, K its adjugate (so J K = det(J) I), and
    ``frame_det`` the induced transition factor for wedges of the contact
    frame fields; these are the covariance data of chart forms.
    """

    J: tuple[tuple[RatFunc, ...], ...]
    K: tuple[tuple[RatFunc, ...], ...]
    jac_det: RatFunc
    frame_det: RatFunc


def _frame_data(source: Chart, nums: Sequence[MultiPoly], den: MultiPoly):
    """Jacobian package for the target point-coordinates nums[r] / den.

    ``nums`` lists the numerators in slot order (distinguished one last)
    over one common denominator, all polynomials in the source chart
    coordinates.  The Jacobian is M / den^2 with M a polynomial matrix,
    so det(J) and adj(J) are det(M) and adj(M) over powers of den^2.
    """
    slots = [f"x{k}" for k in source.slot_indices]
    M = PolyMatrix.from_rows([[f.derivative(s) * den - f * den.derivative(s) for s in slots]
                              for f in nums])
    adj = poly_adjugate(M)
    last = M.rows - 1
    den2 = den * den
    adj_den = den2 ** last
    frame = adj.at(last, last)
    for b, k in enumerate(source.p_indices):
        frame = frame - source.p(k) * adj.at(b, last)
    return (tuple(tuple(RatFunc(e, den2) for e in M.row(r)) for r in range(M.rows)),
            tuple(tuple(RatFunc(e, adj_den) for e in adj.row(r)) for r in range(M.rows)),
            RatFunc(poly_det(M), adj_den * den2), RatFunc(frame, adj_den))


def _chart_maps(c1: Chart, c2: Chart, sub: Mapping[str, MultiPoly]) -> ChartMaps:
    """Exact rational maps (x', p') in terms of (x, p) between two charts;
    ``sub`` is ``c1.substitution()``."""
    if c1.n != c2.n:
        raise UsageError("charts live on different spaces")
    x_map = tuple((f"x{k}", RatFunc(sub[f"X{k}"], sub[f"X{c2.i}"])) for k in c2.x_indices)
    p_map = tuple((f"p{a}", RatFunc(-sub[f"u{a}"], sub[f"u{c2.j}"])) for a in c2.p_indices)
    return ChartMaps(c1, c2, x_map, p_map)


def transition(c1: Chart, c2: Chart) -> ChartTransition:
    """The coordinate maps between two charts and the Jacobian package of
    their point-part."""
    sub = c1.substitution()
    m = _chart_maps(c1, c2, sub)
    frame = _frame_data(c1, [sub[f"X{k}"] for k in c2.slot_indices], sub[f"X{c2.i}"])
    return ChartTransition(c1, c2, m.x_map, m.p_map, *frame)


def transport_point(t: ChartMaps, point: Mapping[str, Fraction]) -> dict[str, Fraction]:
    return {name: expr.evaluate(point) for name, expr in t.maps.items()}


def transport_form(t: ChartMaps, form: "ChartForm | MultiPoly") -> tuple[MultiPoly, MultiPoly]:
    """Pull a target-chart form back to the source chart, clearing denominators.

    Returns (N, D) with N = D * (F o transition); D is the product of the
    transition denominators raised to F's degrees (the tracked unit factor).
    """
    F = form.poly if isinstance(form, ChartForm) else form
    if F.vars != t.target.table:
        raise UsageError("form does not live on the transition's target chart")
    mapping = {name: (expr.num, expr.den) for name, expr in t.maps.items()}
    return substitute(F, mapping, target=t.source.table)


def _peel(f: MultiPoly, factors: Sequence[MultiPoly]) -> MultiPoly:
    """Divide f by the highest power of each unit that divides it exactly."""
    for a in factors:
        if len(a.terms) == 1:
            # a monomial unit: its power is read off the exponents in one step
            ((ae, ac),) = a.terms.items()
            k = min((e[v] // ae[v] for e in f.terms for v in range(len(ae)) if ae[v]),
                    default=0)
            f = MultiPoly(f.vars, {tuple(x - k * y for x, y in zip(e, ae)): c / ac**k
                                   for e, c in f.terms.items()})
            continue
        while (q := exact_divide(f, a)) is not None:
            f = q
    return f


def covariance_check(S: BiHomogPde, c1: Chart, c2: Chart) -> bool:
    """Chart forms of one equation differ by a unit on the chart overlap.

    The pullback of the c2 form through the transition must equal the c1
    form times a product of integer powers of the overlap units (powers
    of x_{i'} and of the u_{j'} expression, which generate the covariance
    factor together with a nonzero rational constant).
    """
    t = _chart_maps(c1, c2, c1.substitution())
    F1 = chart_form(S, c1).poly
    F2 = chart_form(S, c2).poly
    N, D = transport_form(t, F2)
    if not N:
        return False
    allowed = t.overlap_factors()
    lhs = _peel(N, allowed)
    rhs = _peel(D * F1, allowed)
    return scalar_equal(lhs, rhs)
