"""Correctness gate: recompute what each job reported, independently.

Runs after the timed passes.  Chart forms, critical determinants,
Groebner bases and ideal memberships are recomputed with sympy from the
generated terms and the documented chart conventions (X_i = 1, u_j = -1,
p_a = -u_a/u_j, u_i forced by sum u_r X_r = 0); bi-degrees, weights and
multi-degrees are recomputed from the terms; verdicts that cannot be
recomputed cheaply are cross-checked between jobs (a command against
``certify``, a coordinate variant against another).  Any mismatch fails
the job.  A recomputation that itself runs past ``CHECK_LIMIT_S`` leaves
the job unverified; an unverified job makes the run incorrect.
"""

from __future__ import annotations

import itertools
import json
import signal
from fractions import Fraction

import sympy as sp

from witness import cofactor_det

CHECK_LIMIT_S = 20.0
EXPECTED_REJECTIONS = ("dual has weight 0",)


class CheckTimeout(BaseException):
    pass


TIMED_OUT = object()
"""Memo entry of a recomputation that ran past ``CHECK_LIMIT_S``, so later
jobs on the same chart fail at once instead of timing out again."""


def _on_alarm(signum, frame):
    raise CheckTimeout()


class Mismatch(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def bidegrees(doc: dict) -> list[tuple[int, int]]:
    """Bi-degree of each equation, recomputed from its generated terms."""
    out = []
    for terms in doc["pdes"]:
        degs = {(sum(t["X"]), sum(t["u"])) for t in terms}
        expect(len(degs) == 1, "generated equation is not bi-homogeneous")
        out.append(degs.pop())
    return out


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _normalized(P):
    """A polynomial scaled to grevlex-leading coefficient 1, as a term set."""
    return frozenset(P.quo_ground(P.LC(order="grevlex")).terms())


def _adjugate(m):
    k = len(m)
    if k == 1:
        return [[m[0][0].one]]
    return [[(-1) ** (r + c) * cofactor_det([[m[a][b] for b in range(k) if b != r]
                                     for a in range(k) if a != c])
             for c in range(k)] for r in range(k)]


class ChartAlgebra:
    """sympy recomputation of one equation system on chart (i, j)."""

    def __init__(self, n: int, i: int, j: int, pdes: list, symbols: dict):
        self.n = n
        s = symbols
        self.p_idx = [a for a in range(n + 1) if a not in (i, j)]
        self.ps = [s[f"p{a}"] for a in self.p_idx]
        self.gens = [s[f"x{k}"] for k in range(n + 1) if k != i] + self.ps
        sub = {s[f"X{i}"]: sp.Integer(1)}
        sub.update({s[f"X{k}"]: s[f"x{k}"] for k in range(n + 1) if k != i})
        sub[s[f"u{j}"]] = sp.Integer(-1)
        sub.update({s[f"u{a}"]: s[f"p{a}"] for a in self.p_idx})
        sub[s[f"u{i}"]] = s[f"x{j}"] - sum(s[f"p{a}"] * s[f"x{a}"] for a in self.p_idx)
        self.forms = [self.poly(H.xreplace(sub)) for H in pdes]
        self.xj = s[f"x{j}"]
        self.x_of_p = [s[f"x{a}"] for a in self.p_idx]
        self._cache: dict = {}

    def poly(self, expr):
        return sp.Poly(expr, *self.gens, domain="QQ")

    def _memo(self, key, make):
        if key not in self._cache:
            try:
                self._cache[key] = make()
            except CheckTimeout:
                self._cache[key] = TIMED_OUT
        if self._cache[key] is TIMED_OUT:
            raise CheckTimeout()
        return self._cache[key]

    def theta(self, F):
        """Contact directions dF/dx_a + p_a dF/dx_j, one per p-variable."""
        dxj = F.diff(self.xj)
        return [F.diff(x) + self.poly(p) * dxj for x, p in zip(self.x_of_p, self.ps)]

    def p_jacobian(self):
        return [[F.diff(p) for p in self.ps] for F in self.forms]

    def det(self):
        return self._memo("det", lambda: cofactor_det(self.p_jacobian()))

    def _gb(self, polys):
        polys = [f for f in polys if not f.is_zero]
        return sp.groebner(polys, *self.gens, order="grevlex", domain="QQ") if polys else None

    def critical_gb(self):
        return self._memo("crit", lambda: self._gb(self.forms + [self.det()]))

    def web_gb(self):
        return self._memo("web", lambda: self._gb(self.forms))

    @staticmethod
    def reduces_to_zero(f, gb) -> bool:
        return f.is_zero or gb.reduce(f)[1].is_zero

    def degenerate(self) -> bool:
        return self.det().is_zero

    def dicritical(self) -> str:
        def make():
            if self.degenerate():
                return "degenerate"
            adj = _adjugate(self.p_jacobian())
            theta = [self.theta(F) for F in self.forms]
            size = len(adj)
            entries = [sum((adj[r][m] * theta[m][c] for m in range(1, size)), adj[r][0] * theta[0][c])
                       for r in range(size) for c in range(len(self.ps))]
            gb = self.critical_gb()
            return "true" if all(self.reduces_to_zero(e, gb) for e in entries) else "false"
        return self._memo("dicritical", make)

    def hyperdicritical(self) -> tuple[str, bool]:
        def make():
            entries = [e for F in self.forms for e in self.theta(F) if not e.is_zero]
            on_web = all(self.reduces_to_zero(e, self.web_gb()) for e in entries)
            if self.degenerate():
                return "degenerate", on_web
            gb = self.critical_gb()
            ok = all(self.reduces_to_zero(e, gb) for e in entries)
            return ("true" if ok else "false"), on_web
        return self._memo("hyper", make)

    def linearizable(self, k: int) -> str:
        F = self.forms[k]
        return "true" if all(t.rem(F).is_zero for t in self.theta(F)) else "false"

    def smooth(self) -> str:
        def make():
            k = self.n - 1
            jac = [[F.diff(v) for v in self.gens] for F in self.forms]
            minors = [cofactor_det([[jac[r][c] for c in cols] for r in range(k)])
                      for cols in itertools.combinations(range(len(self.gens)), k)]
            gb = self._gb(self.forms + minors)
            return "true" if gb is not None and list(gb.exprs) == [1] else "false"
        return self._memo("smooth", make)


class Gate:
    """Checks job records of one workload; ``check`` returns a reason or None."""

    def __init__(self, wl):
        self.wl = wl
        self.symbols = {}
        for n in (2, 3, 4):
            for k in range(n + 1):
                for stem in ("X", "u", "x", "p"):
                    self.symbols.setdefault(f"{stem}{k}", sp.Symbol(f"{stem}{k}"))
        self._charts: dict = {}
        self._pdes: dict = {}
        self.unverified: list[str] = []
        self.shared: dict = {}

    # -- helpers ---------------------------------------------------------

    def parse(self, text: str):
        return sp.sympify(text, locals=self.symbols)

    def pdes(self, path: str) -> list:
        if path not in self._pdes:
            doc = self.wl.docs[path]
            s = self.symbols
            out = []
            for terms in doc["pdes"]:
                H = sp.Integer(0)
                for t in terms:
                    mono = sp.Rational(*t["c"])
                    for k, e in enumerate(t["X"]):
                        mono *= s[f"X{k}"] ** e
                    for k, e in enumerate(t["u"]):
                        mono *= s[f"u{k}"] ** e
                    H += mono
                out.append(sp.expand(H))
            self._pdes[path] = out
        return self._pdes[path]

    def chart(self, path: str, i: int, j: int, only: int | None = None) -> ChartAlgebra:
        key = (path, i, j, only)
        if key not in self._charts:
            pdes = self.pdes(path)
            if only is not None:
                pdes = [pdes[only]]
            self._charts[key] = ChartAlgebra(self.wl.docs[path]["n"], i, j, pdes, self.symbols)
        return self._charts[key]

    def same_poly(self, text: str, alg: ChartAlgebra, P) -> bool:
        return alg.poly(self.parse(text)) == P

    # -- per-command checks -------------------------------------------------

    def check(self, job, rec) -> str | None:
        """None when the record is correct, else the reason it is not."""
        old = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CHECK_LIMIT_S)
        try:
            try:
                self._check(job, rec)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CheckTimeout:
            self.unverified.append(job.label)
            return None
        except Mismatch as exc:
            return f"check failed: {exc}"
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"check failed: malformed report ({exc!r})"
        finally:
            signal.signal(signal.SIGALRM, old)
        return None

    def _check(self, job, rec) -> None:
        if job.kind == "transition":
            expect(rec["witness"] is None, f"transition: {rec['witness']}")
            return
        if job.kind == "covariance":
            expect(rec["value"] is True, "covariance_check returned False")
            return
        cmd, path = job.meta["command"], job.meta["path"]
        doc = self.wl.docs[path]
        if rec["code"] == 2:
            expect(cmd == "dual" and any(dx == 0 for dx, _ in bidegrees(doc))
                   and any(m in rec["err"] for m in EXPECTED_REJECTIONS),
                   f"undocumented input rejection: {rec['err']}")
            return
        report = json.loads(rec["out"])
        expect(report["command"] == cmd and report["n"] == doc["n"], "report header")
        getattr(self, "_" + cmd.replace("-", "_"))(job, report, path, doc)

    def _charts_of(self, job, doc):
        if "chart" in job.meta:
            return [job.meta["chart"]]
        n = doc["n"]
        return [(i, j) for i in range(n + 1) for j in range(n + 1) if i != j]

    def _degrees(self, report, doc, keys=("weight", "multidegree", "degree")):
        bds = bidegrees(doc)
        want = {"weight": _prod(d for _, d in bds), "multidegree": [dx for dx, _ in bds],
                "degree": _prod(dx for dx, _ in bds),
                "algebraic": all(dx == 0 for dx, _ in bds)}
        for k in keys:
            expect(report[k] == want[k], f"{k} {report[k]} != {want[k]}")

    def _bidegree(self, job, report, path, doc):
        bds = bidegrees(doc)
        expect([p["bidegree"] for p in report["pdes"]] == [list(b) for b in bds], "bidegree")
        expect([p["algebraic"] for p in report["pdes"]] == [dx == 0 for dx, _ in bds],
               "algebraic flag")
        if len(bds) == doc["n"] - 1:
            self._degrees(report, doc)

    def _chart_form(self, job, report, path, doc):
        charts = self._charts_of(job, doc)
        for k, entry in enumerate(report["pdes"]):
            expect([tuple(f["chart"]) for f in entry["forms"]] == charts, "chart list")
            for f in entry["forms"]:
                alg = self.chart(path, *f["chart"])
                expect(self.same_poly(f["F"], alg, alg.forms[k]), f"chart form {f['chart']}")

    def _dual(self, job, report, path, doc):
        expect(all(dx >= 1 for dx, _ in bidegrees(doc)), "dual of a weight-0 equation")
        for entry, terms in zip(report["pdes"], doc["pdes"]):
            want = sorted((Fraction(*t["c"]), t["u"], t["X"]) for t in terms)
            got = sorted((Fraction(*t["c"]), t["X"], t["u"]) for t in entry["terms"])
            expect(got == want, "dual terms")
            dx, du = bidegrees({"pdes": [terms]})[0]
            expect(entry["bidegree"] == [du, dx], "dual bidegree")

    def _linearizable(self, job, report, path, doc):
        for k, entry in enumerate(report["pdes"]):
            statuses = [self.chart(path, *c, only=k).linearizable(0)
                        for c in self._charts_of(job, doc)]
            expect([v["status"] for v in entry["per_chart"]] == statuses,
                   f"linearizable statuses of equation {k}")
            expect(entry["aggregated"] == all(s == "true" for s in statuses), "aggregate")

    def _critical(self, job, report, path, doc):
        for entry in report["charts"]:
            alg = self.chart(path, *entry["chart"])
            expect(self.same_poly(entry["critical_det"], alg, alg.det()),
                   f"critical det {entry['chart']}")
            expect(entry["degenerate"] == alg.degenerate(), "degenerate flag")
            if alg.degenerate():
                continue
            got = {_normalized(alg.poly(self.parse(g))) for g in entry["critical_basis"]}
            want = {_normalized(alg.poly(g)) for g in alg.critical_gb().exprs}
            expect(got == want and len(entry["critical_basis"]) == len(want),
                   f"critical basis on chart {entry['chart']} differs from sympy's")

    def _caustic(self, job, report, path, doc):
        for entry in report["charts"]:
            alg = self.chart(path, *entry["chart"])
            for g in entry["generators"]:
                expr = self.parse(g)
                expect(not (expr.free_symbols & set(alg.ps)), "caustic generator uses p")
                expect(alg.reduces_to_zero(alg.poly(expr), alg.critical_gb()),
                       "caustic generator outside the critical ideal")

    def _verdicts(self, per_chart, path, verdict):
        got = [v["status"] for v in per_chart]
        want = [verdict(self.chart(path, *v["chart"])) for v in per_chart]
        expect(got == want, f"per-chart statuses {got} != {want}")
        live = [s for s in want if s != "degenerate"]
        return all(s == "true" for s in live)

    def _dicritical(self, job, report, path, doc):
        agg = self._verdicts(report["per_chart"], path, ChartAlgebra.dicritical)
        expect(report["aggregated"] == agg, "dicritical aggregate")
        self._remember(job, "dicritical", report["per_chart"])

    def _hyperdicritical(self, job, report, path, doc):
        agg = self._verdicts(report["per_chart"], path, lambda a: a.hyperdicritical()[0])
        expect(report["aggregated"] == agg, "hyperdicritical aggregate")
        on_web = all(self.chart(path, *v["chart"]).hyperdicritical()[1]
                     for v in report["per_chart"])
        expect(report["theta_vanishes_on_web"] == on_web, "theta_vanishes_on_web")
        self._remember(job, "hyperdicritical", report["per_chart"])

    def _smooth(self, job, report, path, doc):
        agg = self._verdicts(report["per_chart"], path, ChartAlgebra.smooth)
        expect(report["aggregated"] == agg, "smooth aggregate")
        self._remember(job, "smooth", report["per_chart"])

    def _algebraic(self, job, report, path, doc):
        self._degrees(report, doc, ("algebraic", "multidegree"))

    def _chern(self, job, report, path, doc):
        expect(len(report["chern_T"]) == doc["n"] + 1, "number of Chern classes")
        first = self.shared.setdefault(("chern", doc["n"]), report["chern_T"])
        expect(report["chern_T"] == first, "Chern classes differ between runs")
        expect(isinstance(report["top_class_vanishes"], bool), "top class flag")

    def _bott(self, job, report, path, doc):
        self._degrees(report, doc, ("weight", "multidegree"))
        N = Fraction(report["script_N"])
        expect(report["bott_equals_weight_times_script_N"]
               == (report["bott_number"] == report["weight"] * N), "bridge flag")

    def _certify(self, job, report, path, doc):
        self._degrees(report, doc, ("weight", "multidegree", "degree", "algebraic"))
        smooth = self._verdicts(report["smooth"]["per_chart"], path, ChartAlgebra.smooth)
        dicrit = self._verdicts(report["dicritical"]["per_chart"], path,
                                ChartAlgebra.dicritical)
        expect(report["smooth"]["aggregated"] == smooth, "certify smooth aggregate")
        expect(report["dicritical"]["aggregated"] == dicrit, "certify dicritical aggregate")
        N = Fraction(report["script_N"])
        expect(report["bott_equals_weight_times_script_N"]
               == (report["bott_number"] == report["weight"] * N), "bridge flag")
        want = (report["weight"] >= 3 and smooth and dicrit and not report["algebraic"])
        expect(report["contradiction"] == want, "contradiction flag")
        self._remember(job, "smooth", report["smooth"]["per_chart"])
        self._remember(job, "dicritical", report["dicritical"]["per_chart"])

    def _remember(self, job, verdict, per_chart):
        """Per-chart statuses of coordinate variants, in the base chart's name."""
        sigma = job.meta.get("sigma")
        if sigma is None:
            return
        inverse = {s: k for k, s in enumerate(sigma)}
        for v in per_chart:
            i, j = v["chart"]
            base = (verdict, inverse[i], inverse[j])
            first = self.shared.setdefault(base, (v["status"], job.label))
            expect(first[0] == v["status"],
                   f"{verdict} status of base chart {base[1:]} is {v['status']} here "
                   f"but {first[0]} in {first[1]}")
