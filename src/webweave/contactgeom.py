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

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Mapping

from .idealcalc import IdealBasis, block_order, normal_form
from .polycore import (
    MultiPoly,
    Scalar,
    UsageError,
    VarTable,
    _add_into,
    _mul_terms,
    _shift_terms,
    is_bihomogeneous,
    scalar_equal,
    substitute,
)


def incidence_form(n: int) -> MultiPoly:
    """The incidence pairing sum_r u_r X_r over the bi-homogeneous table."""
    table = VarTable.bihomog(n)
    f = MultiPoly.zero(table)
    for r in range(n + 1):
        f = f + MultiPoly.var(table, f"X{r}") * MultiPoly.var(table, f"u{r}")
    return f


@lru_cache(maxsize=None)
def _incidence_basis(n: int, j: int) -> IdealBasis:
    """The incidence form under the block order eliminating u_j: one
    generator is a Groebner basis, and it keeps its packed divisor."""
    return IdealBasis((incidence_form(n),), block_order(VarTable.bihomog(n), (f"u{j}",)))


def reduce_mod_incidence(n: int, f: MultiPoly) -> MultiPoly:
    """Canonical representative modulo the incidence form (u0 eliminated)."""
    return normal_form(f, _incidence_basis(n, 0))


@dataclass(frozen=True)
class BiHomogPde:
    """One global equation H(X; u), bi-homogeneous of bi-degree (delta, d).

    Valid equations are nonzero, have u-degree d >= 1, and are not
    divisible by the incidence form (divisible ones cut out nothing new).
    The equation keeps its chart forms, each restricted on first request
    (``chart_form``).
    """

    n: int
    poly: MultiPoly
    bidegree: tuple[int, int] = field(init=False, repr=False, compare=False)
    _forms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        object.__setattr__(self, "bidegree", bd)

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

    @cached_property
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

    @cached_property
    def _substitution(self) -> dict[str, MultiPoly]:
        sub: dict[str, MultiPoly] = {f"X{self.i}": MultiPoly.const(self.table, 1)}
        for k in self.x_indices:
            sub[f"X{k}"] = self.x(k)
        sub[f"u{self.j}"] = MultiPoly.const(self.table, -1)
        forced = self.x(self.j)
        for a in self.p_indices:
            sub[f"u{a}"] = self.p(a)
            forced = forced - self.p(a) * self.x(a)
        sub[f"u{self.i}"] = forced
        return sub

    # built once per chart; each call hands out a fresh dict, so no caller
    # can change the cached one (the polynomials are immutable)
    def substitution(self) -> dict[str, MultiPoly]:
        return dict(self._substitution)


def standard_atlas(n: int) -> tuple[Chart, ...]:
    return tuple(Chart(n, i, j) for i in range(n + 1) for j in range(n + 1) if i != j)


@dataclass(frozen=True)
class ChartForm:
    """Restriction F(x, p) of a global equation to one chart."""

    chart: Chart
    poly: MultiPoly

    def __post_init__(self):
        if self.poly.vars != self.chart.table:
            raise UsageError("chart form does not live over its chart's table")


def chart_form(S: BiHomogPde, chart: Chart) -> ChartForm:
    """The restriction of S to the chart, built once per equation and chart.

    The restriction is written in closed form (``_restrict``); it equals
    ``substitute(S.poly, chart.substitution(), target=chart.table)``.
    """
    if chart.n != S.n:
        raise UsageError("chart and equation dimensions differ")
    form = S._forms.get(chart)
    if form is None:
        form = S._forms[chart] = ChartForm(chart, _restrict(S.poly, chart))
    return form


def _restrict(H: MultiPoly, chart: Chart) -> MultiPoly:
    """H restricted to the chart, term by term.

    The chart sets X_i = 1, X_k = x_k, u_j = -1, u_a = p_a and
    u_i = L = x_j - sum_a p_a x_a, so a term c X^alpha u^beta restricts to
    (-1)^beta_j c x^alpha' p^beta' L^beta_i, where alpha' drops alpha_i and
    beta' keeps the p-indices: one shifted, scaled copy of a power of L.
    The powers of L are built once per call, and L is written straight
    into the chart table (the chart's substitution map, built with
    ``MultiPoly`` arithmetic, is not needed).  Coefficients come back
    canonical, an int wherever a sum or product of Fractions is integral.
    """
    n, ps = chart.n, chart.p_indices
    ui, uj = n + 1 + chart.i, n + 1 + chart.j
    # the bi-homogeneous slots of the chart's x_k and p_a, in table order
    carried = (*chart.x_indices, *(n + 1 + a for a in ps))
    L = {tuple(int(k == chart.j) for k in carried): 1}
    L.update({tuple(int(k in (a, n + 1 + a)) for k in carried): -1 for a in ps})
    powers = [{(0,) * len(carried): 1}]
    for _ in range(max(e[ui] for e in H.terms)):
        powers.append(_mul_terms(powers[-1], L))
    out: dict[tuple[int, ...], Scalar] = {}
    for e, c in H.terms.items():
        shift = tuple(map(e.__getitem__, carried))
        _add_into(out, _shift_terms(powers[e[ui]], shift, -c if e[uj] & 1 else c))
    if any(type(c) is Fraction for c in H.terms.values()):
        out = {m: v.numerator if v.denominator == 1 else v for m, v in out.items()}
    return MultiPoly._trusted(chart.table, out)


def rehomogenize(form: ChartForm, bidegree: tuple[int, int] | None = None) -> BiHomogPde:
    """The equation of minimal bi-degree restricting to the given chart form.

    The representative is canonical modulo the incidence form (u0
    eliminated).  Without a declared bi-degree the u-degree is the
    p-degree of F and the X-degree is the least one that admits a
    polynomial homogenization.  With a declared bi-degree the equation
    has exactly that bi-degree and failure is an error.

    Each term c x^a p^b of F lifts to c (-1)^(d-|b|) X^a X_i^(dx-|a|)
    u^b u_j^(d-|b|), dx the x-degree of F, which restricts back to it.
    Modulo the incidence form with u_j X_j leading, the lift's normal form
    is X_i^m times the minimal equation's: two equations of one bi-degree
    with the same chart form differ by a multiple of the incidence form,
    and multiplying by X_i (i != j) keeps normal forms normal.
    """
    chart, F = form.chart, form.poly
    if not F:
        raise UsageError("cannot homogenize the zero chart form")
    n, i, j = chart.n, chart.i, chart.j
    dx, dp = F.group_degree("x"), F.group_degree("p")
    if bidegree is None:
        if dp < 1:
            raise UsageError("chart form has p-degree 0: weight would be 0")
        delta, d = None, dp
    else:
        delta, d = bidegree
        if delta < 0 or d < 1:
            raise UsageError("declared bi-degree must have delta >= 0, d >= 1")
    infeasible = "no polynomial homogenization at the declared bi-degree"
    if d < dp:
        raise UsageError(infeasible)

    table = VarTable.bihomog(n)
    lift = {}
    for exps, c in F.terms.items():
        out = [0] * (2 * n + 2)
        for k, e in zip(chart.x_indices, exps[:n]):
            out[k] = e
        for k, e in zip(chart.p_indices, exps[n:]):
            out[n + 1 + k] = e
        out[i] = dx - sum(exps[:n])
        out[n + 1 + j] = d - sum(exps[n:])
        lift[tuple(out)] = -c if out[n + 1 + j] % 2 else c
    H = normal_form(MultiPoly(table, lift), _incidence_basis(n, j))
    m = min(e[i] for e in H.terms)
    shift = m if delta is None else dx - delta
    if shift > m:
        raise UsageError(infeasible)
    H = MultiPoly(table, {e[:i] + (e[i] - shift,) + e[i + 1:]: c for e, c in H.terms.items()})
    return BiHomogPde(n, reduce_mod_incidence(n, H))


# -- rational functions and chart transitions ---------------------------


class RatFunc:
    """Quotient num / den of two polynomials over one table, stored as given.

    Nothing is reduced: a chart transition keeps each quotient over the
    denominator it states (see ``ChartTransition``), valid wherever that
    denominator does not vanish.  Equality is exact, by cross-multiplying.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if den is None:
            den = MultiPoly.const(num.vars, 1)
        if not den:
            raise UsageError("zero denominator")
        if num.vars is not den.vars and num.vars != den.vars:
            raise UsageError("numerator and denominator tables differ")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("RatFunc is immutable")

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
        return f"RatFunc(({self.num})/({self.den}))"


@dataclass(frozen=True)
class ChartTransition:
    """Exact transition between two standard charts.

    ``x_map``/``p_map`` express the target coordinates as rational
    functions of the source ones.  J is the Jacobian of the point-part in
    the source/target slot order, K its adjugate (so J K = det(J) I), and
    ``frame_det`` the induced transition factor for wedges of the contact
    frame fields; these are the covariance data of chart forms.  The point
    part only switches the dehomogenizing coordinate, so J, K and the
    determinants have a closed form in the two charts' slot permutation
    (``_frame_data``): every entry is one monomial.

    Every quotient is stored unreduced over the denominator it is built
    with, and is valid on the chart overlap, where that denominator is a
    unit.  With den = X_{i'} read in the source chart (``_coordinate_maps``)
    the denominators are: the coordinate quotient's own (X_{i'} for
    ``x_map``, u_{j'} for ``p_map``), den^2 for J, den^(2(n-1)) for K and
    ``frame_det``, and den^(2n) for ``jac_det``.
    """

    source: Chart
    target: Chart
    x_map: tuple[tuple[str, RatFunc], ...]
    p_map: tuple[tuple[str, RatFunc], ...]
    J: tuple[tuple[RatFunc, ...], ...]
    K: tuple[tuple[RatFunc, ...], ...]
    jac_det: RatFunc
    frame_det: RatFunc

    @property
    def maps(self) -> dict[str, RatFunc]:
        return dict(self.x_map) | dict(self.p_map)


def _frame_data(c1: Chart, c2: Chart):
    """Jacobian package of the point-part of the chart change c1 -> c2.

    Read in c1, where X_i = 1 and X_k = x_k, the target slot coordinates
    are X_t / y for t in T = ``c2.slot_indices``, with y = X_{i'} (1 when
    i' = i).  Over the source slots S = ``c1.slot_indices`` the Jacobian is
    M / y^2 with M[r][c] = y [T_r = S_c] - X_{T_r} [S_c = i'].  For i' != i
    the row with T_r = i is -e_{i'}, and subtracting its multiples from the
    other rows leaves y times a permutation, so

        det M = sigma y^(n-1)

    with sigma the sign of pi(r) = the position in S of (i' if T_r = i
    else T_r), negated when i' != i; and adj M = det M * M^-1 is the
    inverse chart change's Jacobian, scaled:

        adj[c][r] = sigma y^(n-2) ([S_c = T_r] - x_{S_c} [T_r = i])   (S_c != i')
        adj[c][r] = -sigma y^(n-1) [T_r = i]                          (S_c = i')

    Every entry is one monomial and is built as one.  Each quotient is
    returned unreduced over the denominators of the quotient rule: y^2 for
    J, y^(2(n-1)) for K and the frame factor, and y^(2n) for det(J); they
    hold where y is nonzero.
    """
    n, table, S, T, i, i2 = c1.n, c1.table, c1.slot_indices, c2.slot_indices, c1.i, c2.i
    width = len(table.names)
    xpos = {k: t for t, k in enumerate(c1.x_indices)}
    ypos = xpos.get(i2)  # None when i' = i, where y = 1

    def mono(c: int, ydeg: int, k: int | None = None) -> MultiPoly:
        # c y^ydeg X_k, with X_i = 1 (k = i or None)
        e = [0] * width
        if ypos is not None:
            e[ypos] = ydeg
        if k in xpos:
            e[xpos[k]] += 1
        return MultiPoly._trusted(table, {tuple(e): c})

    zero = MultiPoly._trusted(table, {})
    pi = [S.index(i2 if t == i else t) for t in T]
    inversions = sum(a > b for r, a in enumerate(pi) for b in pi[r + 1:])
    sigma = (-1) ** inversions * (1 if i2 == i else -1)
    M = [[mono(-1, 0, t) if s == i2 else mono(1, 1) if s == t else zero for s in S]
         for t in T]
    adj = [[(mono(-sigma, n - 1) if t == i else zero) if s == i2
            else mono(-sigma, n - 2, s) if t == i
            else mono(sigma, n - 2) if t == s else zero
            for t in T] for s in S]
    last = n - 1
    frame = dict(adj[last][last].terms)
    for b in range(last):  # minus p_{S_b} adj[b][last]; adj holds no p, so no terms collide
        for e, c in adj[b][last].terms.items():
            frame[e[:n + b] + (1,) + e[n + b + 1:]] = -c
    den2, adj_den = mono(1, 2), mono(1, 2 * last)
    return (tuple(tuple(RatFunc(e, den2) for e in row) for row in M),
            tuple(tuple(RatFunc(e, adj_den) for e in row) for row in adj),
            RatFunc(mono(sigma, last), mono(1, 2 * n)),
            RatFunc(MultiPoly._trusted(table, frame), adj_den))


def _coordinate_maps(c1: Chart, c2: Chart, sub: Mapping[str, MultiPoly]):
    """Each chart c2 coordinate as (name, numerator, denominator) in the c1
    coordinates, x-coordinates first; ``sub`` is ``c1.substitution()``."""
    if c1.n != c2.n:
        raise UsageError("charts live on different spaces")
    return ([(f"x{k}", sub[f"X{k}"], sub[f"X{c2.i}"]) for k in c2.x_indices]
            + [(f"p{a}", -sub[f"u{a}"], sub[f"u{c2.j}"]) for a in c2.p_indices])


def transition(c1: Chart, c2: Chart) -> ChartTransition:
    """The coordinate maps between two charts and the Jacobian package of
    their point-part, the latter in closed form (``_frame_data``).  Each
    call builds its own package."""
    sub = c1.substitution()
    maps = tuple((name, RatFunc(num, den)) for name, num, den in _coordinate_maps(c1, c2, sub))
    return ChartTransition(c1, c2, maps[:c1.n], maps[c1.n:], *_frame_data(c1, c2))


def transport_point(t: ChartTransition, point: Mapping[str, Fraction]) -> dict[str, Fraction]:
    """The target coordinates of a source-chart point on the overlap.

    The maps are stored unreduced over their stated denominators and are
    valid on the chart overlap; a point where one of those denominators
    vanishes raises ``UsageError``.
    """
    return {name: expr.evaluate(point) for name, expr in t.maps.items()}


def transport_form(t: ChartTransition, form: ChartForm | MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Pull a target-chart form back to the source chart, clearing denominators.

    Returns (N, D) with N = D * (F o transition); D is the product of the
    transition denominators raised to F's degrees (the tracked unit factor).
    """
    F = form.poly if isinstance(form, ChartForm) else form
    if F.vars != t.target.table:
        raise UsageError("form does not live on the transition's target chart")
    mapping = {name: (expr.num, expr.den) for name, expr in t.maps.items()}
    return substitute(F, mapping, target=t.source.table)


def covariance_check(S: BiHomogPde, c1: Chart, c2: Chart) -> bool:
    """Chart forms of one equation obey the cocycle law on the overlap.

    Read in chart c1, the chart c2 coordinates are (X/X_{i'}, u/(-u_{j'})),
    so for H of bi-degree (delta, d) the pullback of the c2 form is the c1
    form F1 times X_{i'}^-delta (-u_{j'})^-d.  With the pullback of the
    coordinate quotients written N / D, the check is the polynomial
    identity N X_{i'}^delta (-u_{j'})^d = D F1.
    """
    sub = c1.substitution()
    maps = {name: (num, den) for name, num, den in _coordinate_maps(c1, c2, sub)}
    F1 = chart_form(S, c1).poly
    N, D = substitute(chart_form(S, c2).poly, maps, target=c1.table)
    delta, d = S.bidegree
    return N * sub[f"X{c2.i}"] ** delta * (-sub[f"u{c2.j}"]) ** d == D * F1
