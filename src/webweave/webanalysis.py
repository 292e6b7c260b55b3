"""Verdicts for complete-intersection webs: critical data per chart,
dicriticity, linearizability, smoothness, caustic elimination, and the
assembled algebraicity certification.

A web on P_n is presented by n-1 global equations; every verdict is
computed chart by chart over the standard atlas and aggregated by
conjunction.  Charts where the critical determinant vanishes identically
carry no covering data and are skipped with a notice; a web degenerate
in every chart is rejected.

Quasi-smoothness and dicriticity are read off minors of one matrix per
chart, the Jacobian bordered by the contact matrix (``ChartWebData``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .cohomcalc import CausticCertificate, MultiDegreeData, bott_number, \
    caustic_certificate, script_N
from .contactgeom import BiHomogPde, Chart, chart_form, standard_atlas
from .idealcalc import DEFAULT_PAIR_CAP, GREVLEX, IdealBasis, buchberger, \
    eliminate, is_trivial_ideal, normal_form
from .polycore import MultiPoly, PolyMatrix, UsageError, _minor_table, multivar_gcd, \
    partial_derivative


@dataclass(frozen=True)
class CiWeb:
    """A complete-intersection web: n-1 equations on P_n, and the analysis
    session of its verdicts: they run under ``pair_cap`` and share one
    package per chart, built on first use (``chart_web_data``)."""

    n: int
    pdes: tuple[BiHomogPde, ...]
    pair_cap: int = DEFAULT_PAIR_CAP
    _charts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise UsageError("webs need n >= 2")
        if len(self.pdes) != self.n - 1:
            raise UsageError(f"a web on P_{self.n} needs exactly {self.n - 1} equations")
        if any(p.n != self.n for p in self.pdes):
            raise UsageError("equation dimension does not match the web")


def multidegree_data(w: CiWeb) -> MultiDegreeData:
    return MultiDegreeData(w.n, tuple(p.bidegree for p in w.pdes))


def weight(w: CiWeb) -> int:
    return multidegree_data(w).weight


def degree(w: CiWeb) -> int:
    return multidegree_data(w).degree


def multidegree(w: CiWeb) -> tuple[int, ...]:
    return tuple(p.bidegree[0] for p in w.pdes)


def bott_bridge(m: MultiDegreeData) -> tuple[Fraction, int, bool]:
    """script_N, the Bott number, and whether the Bott number equals the
    weight times script_N."""
    N, bott = script_N(m), bott_number(m)
    return N, bott, bott == m.weight * N


def is_algebraic_web(w: CiWeb) -> bool:
    """All partial X-degrees zero: the leaves are hyperplanes of a dual curve."""
    return all(d == 0 for d in multidegree(w))


class ChartWebData:
    """Per-chart package of a web: its chart forms and their Jacobian.

    ``jacobian`` J has rows indexed by equation and columns by the chart's
    variables in table order, p-columns last (dF/dv, each computed once);
    ``contact_jacobian`` Θ has columns by contact direction (entry
    dF/dx_a + p_a dF/dx_j).  Every minor is read off one table of [J | Θ],
    built on first use: ``critical_det`` is det P, P the block of
    p-columns; ``smooth`` tells whether the forms and J's maximal minors
    generate the unit ideal; ``obstruction`` is adj(P)·Θ by Cramer's rule.
    ``warnings`` are input diagnostics, and ``web_basis`` and
    ``critical_basis`` the reduced bases of (F_1..F_{n-1}) and of
    (F_1..F_{n-1}, critical_det) (None on degenerate charts).
    """

    def __init__(self, chart: Chart, forms: tuple[MultiPoly, ...],
                 pair_cap: int = DEFAULT_PAIR_CAP):
        self.chart = chart
        self.forms = forms
        self._pair_cap = pair_cap

    @cached_property
    def jacobian(self) -> PolyMatrix:
        return PolyMatrix.from_rows(
            [[partial_derivative(F, v) for v in self.chart.table.names] for F in self.forms])

    @cached_property
    def contact_jacobian(self) -> PolyMatrix:
        J, chart = self.jacobian, self.chart
        col = chart.table.index
        xj = col(f"x{chart.j}")
        return PolyMatrix.from_rows(
            [[J.at(r, col(f"x{a}")) + chart.p(a) * J.at(r, xj) for a in chart.p_indices]
             for r in range(J.rows)])

    @cached_property
    def _minor_table(self):
        """The minors of J bordered by Θ: column J.cols + c is Θ's column c."""
        J, theta = self.jacobian, self.contact_jacobian
        return _minor_table(PolyMatrix.from_rows(
            [J.row(r) + theta.row(r) for r in range(J.rows)]))

    @cached_property
    def critical_det(self) -> MultiPoly:
        return self._minor_table(tuple(range(self.jacobian.rows)), self.chart.table.group("p"))

    @cached_property
    def degenerate(self) -> bool:
        return not self.critical_det

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        return tuple(_input_warnings(self))

    @cached_property
    def web_basis(self) -> IdealBasis:
        return buchberger(list(self.forms), GREVLEX, self._pair_cap)

    @cached_property
    def critical_basis(self) -> IdealBasis | None:
        if self.degenerate:
            return None
        return buchberger(list(self.forms) + [self.critical_det], GREVLEX, self._pair_cap)

    @cached_property
    def smooth(self) -> bool:
        J = self.jacobian
        rows = tuple(range(J.rows))
        minors = [self._minor_table(rows, cols)
                  for cols in itertools.combinations(range(J.cols), J.rows)]
        return is_trivial_ideal(list(self.forms) + minors, self._pair_cap)

    def vanishes_on_web(self, entries) -> bool:
        """Every entry lies in the ideal (F_1..F_{n-1})."""
        return all(not e or not normal_form(e, self.web_basis) for e in entries)

    def obstruction(self) -> PolyMatrix:
        """adj(P)·Θ, the matrix whose vanishing on the critical scheme is
        dicriticity.  By Cramer's rule entry (r, c) is det P with column r
        replaced by Θ's column c; in the table that column sits after the
        p-columns, k - 1 - r places from slot r (P is k x k)."""
        J = self.jacobian
        rows, pcols = tuple(range(J.rows)), self.chart.table.group("p")
        k = len(pcols)
        out = []
        for r in range(k):
            others = pcols[:r] + pcols[r + 1:]
            minors = [self._minor_table(rows, others + (J.cols + c,)) for c in range(k)]
            out.append(minors if (k - 1 - r) % 2 == 0 else [-m for m in minors])
        return PolyMatrix.from_rows(out)


def _input_warnings(data: ChartWebData) -> list[str]:
    out = []
    chart = data.chart
    for k, F in enumerate(data.forms):
        # in characteristic 0, a non-constant gcd(F, every partial) is a repeated factor
        if not multivar_gcd([F, *data.jacobian.row(k)], data._pair_cap).is_constant():
            out.append(f"chart ({chart.i},{chart.j}): equation {k + 1} may be "
                       "non-reduced (shares a factor with a partial derivative)")
        coeffs = _p_coefficients(chart, F)
        if len(coeffs) > 1 and not multivar_gcd(coeffs, data._pair_cap).is_constant():
            out.append(f"chart ({chart.i},{chart.j}): equation {k + 1} has "
                       "p-coefficients with a common non-constant factor")
    return out


def _p_coefficients(chart: Chart, F: MultiPoly) -> list[MultiPoly]:
    table = chart.table
    p_positions = table.group("p")
    buckets: dict[tuple[int, ...], dict] = {}
    for exps, c in F.terms.items():
        pkey = tuple(exps[t] for t in p_positions)
        rest = tuple(0 if t in p_positions else e for t, e in enumerate(exps))
        buckets.setdefault(pkey, {})[rest] = c
    return [MultiPoly(table, t) for t in buckets.values()]


def chart_web_data(w: CiWeb, chart: Chart) -> ChartWebData:
    """The web's package for ``chart``, built on the first request."""
    if chart.n != w.n:
        raise UsageError("chart dimension does not match the web")
    data = w._charts.get(chart)
    if data is None:
        data = w._charts[chart] = ChartWebData(
            chart, tuple(chart_form(p, chart).poly for p in w.pdes), w.pair_cap)
    return data


@dataclass(frozen=True)
class ChartVerdict:
    chart: Chart
    status: str  # "true" | "false" | "degenerate"
    detail: str = ""


@dataclass(frozen=True)
class WebVerdict:
    aggregated: bool
    per_chart: tuple[ChartVerdict, ...]
    warnings: tuple[str, ...] = ()
    extra: tuple[tuple[str, bool], ...] = ()

    def chart_status(self) -> dict[str, str]:
        return {f"{v.chart.i},{v.chart.j}": v.status for v in self.per_chart}


def _aggregate(per_chart: list[ChartVerdict], warnings=(), extra=()) -> WebVerdict:
    """Conjunction over the live charts: degenerate ones are skipped."""
    agg = all(v.status != "false" for v in per_chart)
    return WebVerdict(agg, tuple(per_chart), tuple(dict.fromkeys(warnings)), tuple(extra))


def atlas(n: int, charts) -> tuple[Chart, ...]:
    """The given charts, or the standard atlas of P_n when none are given."""
    return tuple(charts) if charts else standard_atlas(n)


def _critical_membership(w: CiWeb, charts, hyper: bool) -> WebVerdict:
    """Per chart, test whether the nonzero entries of a matrix lie in the
    critical ideal (F_1..F_{n-1}, critical_det): the obstruction matrix,
    or with ``hyper`` the contact Jacobian, which is then also tested
    against (F_1..F_{n-1}) alone on every chart, degenerate ones included.
    """
    per, warns = [], []
    on_web = True
    for chart in atlas(w.n, charts):
        data = chart_web_data(w, chart)
        warns.extend(data.warnings)
        if hyper:
            on_web = data.vanishes_on_web(data.contact_jacobian.entries) and on_web
        if data.degenerate:
            per.append(ChartVerdict(chart, "degenerate", "critical determinant is 0"))
            continue
        matrix = data.contact_jacobian if hyper else data.obstruction()
        ok = all(not e or not normal_form(e, data.critical_basis) for e in matrix.entries)
        per.append(ChartVerdict(chart, "true" if ok else "false"))
    if all(v.status == "degenerate" for v in per):
        raise UsageError("critical determinant vanishes identically in every requested chart"
                         if charts else "web violates covering condition: critical "
                         "determinant vanishes identically in every chart")
    return _aggregate(per, warns, (("theta_vanishes_on_web", on_web),) if hyper else ())


def is_dicritical(w: CiWeb, charts=None) -> WebVerdict:
    """The induced foliation extends across the critical scheme.

    Chart criterion: every entry of adj(P)·Θ (``ChartWebData.obstruction``,
    P the p-block of the Jacobian, Θ the contact matrix) lies in the ideal
    (F_1..F_{n-1}, critical_det).
    """
    return _critical_membership(w, charts, hyper=False)


def is_hyperdicritical(w: CiWeb, charts=None) -> WebVerdict:
    """Stronger variant: the contact-direction matrix itself vanishes on the
    critical scheme.  Also reports whether it already vanishes on all of
    the web (membership in (F_1..F_{n-1}) alone), as linear webs do in
    affine coordinates.
    """
    return _critical_membership(w, charts, hyper=True)


def is_linearizable_pde(S: BiHomogPde, charts=None) -> WebVerdict:
    """Necessary linearizability condition: the contact directions are
    tangent to the hypersurface everywhere, i.e. dF/dx_a + p_a dF/dx_j
    lies in the principal ideal (F) in every chart.  (F) has a one-element
    basis, so no S-pair is reduced and no pair cap applies.
    """
    per = []
    for chart in atlas(S.n, charts):
        data = ChartWebData(chart, (chart_form(S, chart).poly,))
        ok = data.vanishes_on_web(data.contact_jacobian.entries)
        per.append(ChartVerdict(chart, "true" if ok else "false"))
    return _aggregate(per)


def smoothness_chart_check(w: CiWeb, charts=None) -> WebVerdict:
    """Certify absence of singular points of the web chart by chart.

    The ideal of the equations plus all maximal minors of their full
    Jacobian is trivial iff the chart contains no singular point; all
    charts trivial certifies the web smooth (hence quasi-smooth).
    """
    per = [ChartVerdict(chart, "true" if chart_web_data(w, chart).smooth else "false")
           for chart in atlas(w.n, charts)]
    return _aggregate(per)


def caustic_generators(w: CiWeb, chart: Chart) -> list[MultiPoly]:
    """Generators (in the chart's x-variables) of the caustic ideal:
    the p-variables eliminated from (F_1..F_{n-1}, critical_det)."""
    data = chart_web_data(w, chart)
    gens = list(data.forms) + [data.critical_det]
    return eliminate(gens, "p", w.pair_cap)


@dataclass(frozen=True)
class CertificationReport:
    """Assembled consistency report for the algebraicity criterion."""

    weight: int
    multidegree: tuple[int, ...]
    degree: int
    algebraic: bool
    smooth: WebVerdict
    dicritical: WebVerdict
    script_N: Fraction
    bott_number: int
    bott_bridge_ok: bool
    caustic: CausticCertificate
    contradiction: bool
    notes: tuple[str, ...]


def certify_algebraicity(w: CiWeb) -> CertificationReport:
    """Run the full battery and flag inconsistencies with the criterion
    "quasi-smooth + dicritical + weight >= 3 implies zero multi-degree".

    A flagged contradiction means some unverified hypothesis fails
    (typically irreducibility of the presented intersection), not that
    the arithmetic is wrong.
    """
    m = multidegree_data(w)
    smooth = smoothness_chart_check(w)
    dicrit = is_dicritical(w)
    algebraic = is_algebraic_web(w)
    N, bott, bridge = bott_bridge(m)
    cert = caustic_certificate(m)
    notes: list[str] = []
    contradiction = False
    if m.weight >= 3 and smooth.aggregated and dicrit.aggregated and not algebraic:
        contradiction = True
        notes.append("algebraicity criterion violated: dicritical quasi-smooth web "
                     "with nonzero multi-degree - check irreducibility assumption")
    if not cert.nonzero:
        notes.append("caustic class computed to zero - inconsistent with a valid "
                     "complete-intersection web")
    if not bridge:
        notes.append("Bott pairing does not equal weight times the closed-form "
                     "obstruction number")
    return CertificationReport(m.weight, multidegree(w), m.degree, algebraic, smooth, dicrit,
                               N, bott, bridge, cert, contradiction, tuple(notes))
