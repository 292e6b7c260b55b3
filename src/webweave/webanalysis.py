"""Verdicts for complete-intersection webs: critical data per chart,
dicriticity, linearizability, smoothness, caustic elimination, and the
assembled algebraicity certification.

A web on P_n is presented by n-1 global equations; every verdict is
computed chart by chart over the standard atlas and aggregated by
conjunction.  Charts where the critical determinant vanishes identically
carry no covering data and are skipped with a notice; a web degenerate
in every chart is rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .cohomcalc import CausticCertificate, MultiDegreeData, bott_number, \
    caustic_certificate, script_N
from .contactgeom import BiHomogPde, Chart, chart_form, standard_atlas
from .idealcalc import DEFAULT_PAIR_CAP, GREVLEX, IdealBasis, buchberger, \
    eliminate, is_trivial_ideal, normal_form
from .polycore import MultiPoly, PolyMatrix, UsageError, multivar_gcd, \
    partial_derivative, poly_adjugate, poly_det


@dataclass(frozen=True)
class CiWeb:
    """A complete-intersection web: n-1 equations on P_n."""

    n: int
    pdes: tuple[BiHomogPde, ...]

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
    """Per-chart critical package of a web.

    ``p_jacobian`` has rows indexed by equation and columns by the chart's
    p-variables; ``contact_jacobian`` rows by equation and columns by the
    contact directions (entry dF/dx_a + p_a dF/dx_j); ``p_adjugate`` is
    the adjugate of the p-Jacobian, so p_jacobian * p_adjugate =
    critical_det * I.  ``warnings`` (input diagnostics) and
    ``critical_basis`` (the reduced basis of (F_1..F_{n-1}, critical_det),
    None on degenerate charts) are computed on first access.
    """

    def __init__(self, chart: Chart, forms: tuple[MultiPoly, ...],
                 pair_cap: int = DEFAULT_PAIR_CAP):
        self.chart = chart
        self.forms = forms
        self.p_jacobian = PolyMatrix.from_rows(
            [[partial_derivative(F, f"p{a}") for a in chart.p_indices] for F in forms])
        self.critical_det = poly_det(self.p_jacobian)
        self.contact_jacobian = PolyMatrix.from_rows(
            [_contact_row(chart, F) for F in forms])
        self.p_adjugate = poly_adjugate(self.p_jacobian)
        self.degenerate = not self.critical_det
        self._pair_cap = pair_cap

    @cached_property
    def warnings(self) -> tuple[str, ...]:
        return tuple(_input_warnings(self.chart, self.forms))

    @cached_property
    def critical_basis(self) -> IdealBasis | None:
        if self.degenerate:
            return None
        return buchberger(list(self.forms) + [self.critical_det], GREVLEX, self._pair_cap)

    def obstruction(self) -> PolyMatrix:
        """The matrix whose vanishing on the critical scheme is dicriticity."""
        return self.p_adjugate.matmul(self.contact_jacobian)


def _contact_row(chart: Chart, F: MultiPoly) -> list[MultiPoly]:
    """dF/dx_a + p_a dF/dx_j for each contact direction a of the chart."""
    dxj = partial_derivative(F, f"x{chart.j}")
    return [partial_derivative(F, f"x{a}") + chart.p(a) * dxj for a in chart.p_indices]


def _chart_forms(w: CiWeb, chart: Chart) -> tuple[MultiPoly, ...]:
    return tuple(chart_form(p, chart).poly for p in w.pdes)


def _input_warnings(chart: Chart, forms) -> list[str]:
    out = []
    names = chart.table.names
    for k, F in enumerate(forms):
        if any(not multivar_gcd([F, partial_derivative(F, v)]).is_constant()
               for v in names if F.degree_in(v) > 0):
            out.append(f"chart ({chart.i},{chart.j}): equation {k + 1} may be "
                       "non-reduced (shares a factor with a partial derivative)")
        coeffs = _p_coefficients(chart, F)
        if len(coeffs) > 1 and not multivar_gcd(coeffs).is_constant():
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


def chart_web_data(w: CiWeb, chart: Chart,
                   pair_cap: int = DEFAULT_PAIR_CAP) -> ChartWebData:
    if chart.n != w.n:
        raise UsageError("chart dimension does not match the web")
    return ChartWebData(chart, _chart_forms(w, chart), pair_cap)


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
    live = [v for v in per_chart if v.status != "degenerate"]
    if not live:
        raise UsageError("web violates covering condition: critical determinant "
                         "vanishes identically in every chart")
    agg = all(v.status == "true" for v in live)
    return WebVerdict(agg, tuple(per_chart), tuple(dict.fromkeys(warnings)), tuple(extra))


def atlas(n: int, charts) -> tuple[Chart, ...]:
    """The given charts, or the standard atlas of P_n when none are given."""
    return tuple(charts) if charts else standard_atlas(n)


def _critical_membership(w: CiWeb, charts, pair_cap: int, hyper: bool) -> WebVerdict:
    """Per chart, test whether the nonzero entries of a matrix lie in the
    critical ideal (F_1..F_{n-1}, critical_det): the obstruction matrix,
    or with ``hyper`` the contact Jacobian, which is then also tested
    against (F_1..F_{n-1}) alone on every chart, degenerate ones included.
    """
    per, warns = [], []
    on_web = True
    for chart in atlas(w.n, charts):
        data = chart_web_data(w, chart, pair_cap)
        warns.extend(data.warnings)
        if hyper:
            entries = [e for e in data.contact_jacobian.entries if e]
            if entries:
                web_basis = buchberger(list(data.forms), GREVLEX, pair_cap)
                on_web = all(not normal_form(e, web_basis) for e in entries) and on_web
        if data.degenerate:
            per.append(ChartVerdict(chart, "degenerate", "critical determinant is 0"))
            continue
        if not hyper:
            entries = [e for e in data.obstruction().entries if e]
        ok = all(not normal_form(e, data.critical_basis) for e in entries)
        per.append(ChartVerdict(chart, "true" if ok else "false"))
    return _aggregate(per, warns, (("theta_vanishes_on_web", on_web),) if hyper else ())


def is_dicritical(w: CiWeb, charts=None, pair_cap: int = DEFAULT_PAIR_CAP) -> WebVerdict:
    """The induced foliation extends across the critical scheme.

    Chart criterion: every entry of p_adjugate o contact_jacobian lies in
    the ideal (F_1..F_{n-1}, critical_det).
    """
    return _critical_membership(w, charts, pair_cap, hyper=False)


def is_hyperdicritical(w: CiWeb, charts=None, pair_cap: int = DEFAULT_PAIR_CAP) -> WebVerdict:
    """Stronger variant: the contact-direction matrix itself vanishes on the
    critical scheme.  Also reports whether it already vanishes on all of
    the web (membership in (F_1..F_{n-1}) alone), as linear webs do in
    affine coordinates.
    """
    return _critical_membership(w, charts, pair_cap, hyper=True)


def is_linearizable_pde(S: BiHomogPde, charts=None,
                        pair_cap: int = DEFAULT_PAIR_CAP) -> WebVerdict:
    """Necessary linearizability condition: the contact directions are
    tangent to the hypersurface everywhere, i.e. dF/dx_a + p_a dF/dx_j
    lies in the principal ideal (F) in every chart.
    """
    per = []
    for chart in atlas(S.n, charts):
        F = chart_form(S, chart).poly
        basis = buchberger([F], GREVLEX, pair_cap)
        ok = all(not normal_form(e, basis) for e in _contact_row(chart, F))
        per.append(ChartVerdict(chart, "true" if ok else "false"))
    return _aggregate(per)


def smoothness_chart_check(w: CiWeb, charts=None,
                           pair_cap: int = DEFAULT_PAIR_CAP) -> WebVerdict:
    """Certify absence of singular points of the web chart by chart.

    The ideal of the equations plus all maximal minors of their full
    Jacobian is trivial iff the chart contains no singular point; all
    charts trivial certifies the web smooth (hence quasi-smooth).
    """
    per = []
    k = w.n - 1
    for chart in atlas(w.n, charts):
        forms = _chart_forms(w, chart)
        names = chart.table.names
        jac = [[partial_derivative(F, v) for v in names] for F in forms]
        gens = list(forms)
        for cols in itertools.combinations(range(len(names)), k):
            rows = [[jac[r][c] for c in cols] for r in range(k)]
            gens.append(poly_det(PolyMatrix.from_rows(rows)))
        ok = is_trivial_ideal(gens, GREVLEX, pair_cap)
        per.append(ChartVerdict(chart, "true" if ok else "false"))
    return _aggregate(per)


def caustic_generators(w: CiWeb, chart: Chart,
                       pair_cap: int = DEFAULT_PAIR_CAP) -> list[MultiPoly]:
    """Generators (in the chart's x-variables) of the caustic ideal:
    the p-variables eliminated from (F_1..F_{n-1}, critical_det)."""
    data = chart_web_data(w, chart, pair_cap)
    gens = list(data.forms) + [data.critical_det]
    return eliminate(gens, "p", pair_cap)


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


def certify_algebraicity(w: CiWeb, pair_cap: int = DEFAULT_PAIR_CAP) -> CertificationReport:
    """Run the full battery and flag inconsistencies with the criterion
    "quasi-smooth + dicritical + weight >= 3 implies zero multi-degree".

    A flagged contradiction means some unverified hypothesis fails
    (typically irreducibility of the presented intersection), not that
    the arithmetic is wrong.
    """
    m = multidegree_data(w)
    smooth = smoothness_chart_check(w, pair_cap=pair_cap)
    dicrit = is_dicritical(w, pair_cap=pair_cap)
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
