"""Command-line surface: JSON input files, verdict commands, reports.

Input files describe one web (or a list of equations) as exact term
lists; reports are deterministic JSON (or aligned text) with rationals
serialized as "num/den" strings.  Exit status reflects process health
only: analyses that complete exit 0 whatever the verdicts say.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import cohomcalc, webanalysis
from .contactgeom import BiHomogPde, Chart, chart_form, dual_pde, is_algebraic_pde
from .idealcalc import DEFAULT_PAIR_CAP, PairCapExceeded
from .polycore import MultiPoly, UsageError, VarTable
from .webanalysis import CiWeb

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ENGINE = 3

# Largest X- or u-degree of one input term.  Chart substitution expands
# the forced u-expression to the term's u-degree, so unbounded degrees
# make even chart-form run without end; sample inputs use at most 3.
MAX_TERM_DEGREE = 64

# Largest dimension n.  Parsing builds the 2n + 2 variable table and every
# command works over it, so a huge n exhausts memory before any other
# check; sample inputs use at most n = 3.
MAX_DIMENSION = 12


class InputError(ValueError):
    """Malformed or invalid input document."""


class InputDocument:
    def __init__(self, n: int, pdes: list[BiHomogPde], pair_cap: int = DEFAULT_PAIR_CAP):
        self.n = n
        self.pdes = pdes
        self.pair_cap = pair_cap

    def web(self) -> CiWeb:
        if len(self.pdes) != self.n - 1:
            raise InputError(
                f"web commands need exactly {self.n - 1} equations for n={self.n}, "
                f"got {len(self.pdes)}")
        return CiWeb(self.n, tuple(self.pdes), self.pair_cap)


def _is_int(v) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(v, int) and not isinstance(v, bool)


def _term_to_poly(n: int, terms, which: int) -> MultiPoly:
    table = VarTable.bihomog(n)
    acc: dict[tuple[int, ...], Fraction] = {}
    for t, term in enumerate(terms):
        where = f"pde {which}, term {t}"
        if not isinstance(term, dict):
            raise InputError(f"{where}: term must be an object")
        for key in ("c", "X", "u"):
            if key not in term:
                raise InputError(f"{where}: missing field {key!r}")
        c = term["c"]
        if (not isinstance(c, (list, tuple)) or len(c) != 2
                or not all(_is_int(v) for v in c)):
            raise InputError(f"{where}: coefficient must be [numerator, denominator]")
        if c[1] == 0:
            raise InputError(f"{where}: zero coefficient denominator")
        for key in ("X", "u"):
            exps = term[key]
            if not isinstance(exps, list) or len(exps) != n + 1:
                raise InputError(f"{where}: {key} exponent list length must be {n + 1}")
            if not all(_is_int(e) and e >= 0 for e in exps):
                raise InputError(f"{where}: {key} exponents must be non-negative integers")
            if sum(exps) > MAX_TERM_DEGREE:
                raise InputError(f"{where}: {key}-degree {sum(exps)} exceeds "
                                 f"the limit {MAX_TERM_DEGREE}")
        exps = tuple(term["X"]) + tuple(term["u"])
        acc[exps] = acc.get(exps, Fraction(0)) + Fraction(c[0], c[1])
    return MultiPoly(table, acc)


def parse_document(data, pair_cap: int = DEFAULT_PAIR_CAP) -> InputDocument:
    if not isinstance(data, dict):
        raise InputError("top-level value must be an object")
    n = data.get("n")
    if not _is_int(n) or n < 2:
        raise InputError("field 'n' must be an integer >= 2")
    if n > MAX_DIMENSION:
        raise InputError(f"field 'n' exceeds the limit {MAX_DIMENSION}")
    raw_pdes = data.get("pdes")
    if not isinstance(raw_pdes, list) or not raw_pdes:
        raise InputError("field 'pdes' must be a non-empty list of term lists")
    pdes = []
    for k, terms in enumerate(raw_pdes):
        if not isinstance(terms, list) or not terms:
            raise InputError(f"pde {k}: must be a non-empty term list")
        poly = _term_to_poly(n, terms, k)
        try:
            pdes.append(BiHomogPde(n, poly))
        except UsageError as exc:
            raise InputError(f"pde {k}: {exc}") from exc
    return InputDocument(n, pdes, pair_cap)


def parse_input(path: str, pair_cap: int = DEFAULT_PAIR_CAP) -> tuple[InputDocument, str]:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # besides bad UTF-8 and JSON syntax: a plain ValueError for an
        # integer literal past the interpreter's digit limit, and
        # RecursionError for arrays or objects nested too deeply
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    return parse_document(data, pair_cap), hashlib.sha256(blob).hexdigest()


# -- serialization helpers ----------------------------------------------


def _frac(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _chart_id(chart: Chart) -> list[int]:
    return [chart.i, chart.j]


def _verdict_dict(v: webanalysis.WebVerdict) -> dict:
    out = {
        "aggregated": v.aggregated,
        "per_chart": [
            {"chart": _chart_id(cv.chart), "status": cv.status,
             **({"detail": cv.detail} if cv.detail else {})}
            for cv in v.per_chart
        ],
    }
    for key, val in v.extra:
        out[key] = val
    if v.warnings:
        out["warnings"] = list(v.warnings)
    return out


def _pde_terms(p: BiHomogPde) -> list[dict]:
    n = p.n
    items = sorted(p.poly.terms.items())
    return [{"c": [c.numerator, c.denominator],
             "X": list(e[:n + 1]), "u": list(e[n + 1:])} for e, c in items]


# -- commands -------------------------------------------------------------


def _charts_arg(doc: InputDocument, chart_opts) -> tuple[Chart, ...] | None:
    if not chart_opts:
        return None
    charts = []
    for pair_text in chart_opts:
        try:
            i, j = (int(s) for s in pair_text.split(","))
        except ValueError:
            raise InputError(f"--chart expects 'i,j', got {pair_text!r}") from None
        try:
            charts.append(Chart(doc.n, i, j))
        except UsageError as exc:
            raise InputError(str(exc)) from exc
    # a repeated chart is analysed and reported once, in first-seen order
    return tuple(dict.fromkeys(charts))


def _bidegree(doc: InputDocument, charts) -> dict:
    body = {"pdes": [{"bidegree": list(p.bidegree), "algebraic": is_algebraic_pde(p)}
                     for p in doc.pdes]}
    if len(doc.pdes) == doc.n - 1:
        w = doc.web()
        body["weight"] = webanalysis.weight(w)
        body["multidegree"] = list(webanalysis.multidegree(w))
        body["degree"] = webanalysis.degree(w)
    return body


def _chart_form(doc: InputDocument, charts) -> dict:
    atlas = webanalysis.atlas(doc.n, charts)
    return {"pdes": [{"forms": [{"chart": _chart_id(c), "F": str(chart_form(p, c).poly)}
                                for c in atlas]} for p in doc.pdes]}


def _dual(doc: InputDocument, charts) -> dict:
    out = []
    for k, p in enumerate(doc.pdes):
        try:
            d = dual_pde(p)
        except UsageError as exc:
            raise InputError(f"pde {k}: {exc}") from exc
        out.append({"bidegree": list(d.bidegree), "terms": _pde_terms(d)})
    return {"pdes": out}


def _critical(doc: InputDocument, charts) -> dict:
    w = doc.web()
    out = []
    for c in webanalysis.atlas(doc.n, charts):
        data = webanalysis.chart_web_data(w, c)
        entry = {"chart": _chart_id(c), "degenerate": data.degenerate,
                 "critical_det": str(data.critical_det)}
        if data.critical_basis is not None:
            entry["critical_basis"] = [str(g) for g in data.critical_basis]
        out.append(entry)
    return {"charts": out}


def _caustic(doc: InputDocument, charts) -> dict:
    w = doc.web()
    return {"charts": [
        {"chart": _chart_id(c),
         "generators": [str(g) for g in webanalysis.caustic_generators(w, c)]}
        for c in webanalysis.atlas(doc.n, charts)]}


def _algebraic(doc: InputDocument, charts) -> dict:
    w = doc.web()
    return {"algebraic": webanalysis.is_algebraic_web(w),
            "multidegree": list(webanalysis.multidegree(w))}


def _chern(doc: InputDocument, charts) -> dict:
    n = doc.n
    return {"chern_T": [str(cohomcalc.chern_T(n, j)) for j in range(n + 1)],
            "top_class_vanishes": not cohomcalc.nf(cohomcalc.chern_T(n, n))}


def _bott(doc: InputDocument, charts) -> dict:
    w = doc.web()
    N, bott, bridge = webanalysis.bott_bridge(webanalysis.multidegree_data(w))
    return {"weight": webanalysis.weight(w), "multidegree": list(webanalysis.multidegree(w)),
            "script_N": _frac(N), "bott_number": bott,
            "bott_equals_weight_times_script_N": bridge}


def _certify(doc: InputDocument, charts) -> dict:
    rep = webanalysis.certify_algebraicity(doc.web())
    return {
        "weight": rep.weight,
        "multidegree": list(rep.multidegree),
        "degree": rep.degree,
        "algebraic": rep.algebraic,
        "smooth": _verdict_dict(rep.smooth),
        "dicritical": _verdict_dict(rep.dicritical),
        "script_N": _frac(rep.script_N),
        "bott_number": rep.bott_number,
        "bott_equals_weight_times_script_N": rep.bott_bridge_ok,
        "caustic_class_coefficients": list(rep.caustic.coefficients),
        "caustic_class_all_positive": rep.caustic.all_positive,
        "caustic_class_nonzero": rep.caustic.nonzero,
        "contradiction": rep.contradiction,
        "notes": list(rep.notes),
    }


# Each command's report body from (document, requested charts or None), in
# the order of the usage message.
_COMMAND_TABLE = {
    "bidegree": _bidegree,
    "chart-form": _chart_form,
    "dual": _dual,
    "linearizable": lambda doc, charts: {"pdes": [
        _verdict_dict(webanalysis.is_linearizable_pde(p, charts)) for p in doc.pdes]},
    "critical": _critical,
    "caustic": _caustic,
    "dicritical": lambda doc, charts: _verdict_dict(
        webanalysis.is_dicritical(doc.web(), charts)),
    "hyperdicritical": lambda doc, charts: _verdict_dict(
        webanalysis.is_hyperdicritical(doc.web(), charts)),
    "smooth": lambda doc, charts: _verdict_dict(
        webanalysis.smoothness_chart_check(doc.web(), charts)),
    "algebraic": _algebraic,
    "chern": _chern,
    "bott": _bott,
    "certify": _certify,
}
COMMANDS = tuple(_COMMAND_TABLE)


def run(command: str, doc: InputDocument, charts) -> dict:
    """Dispatch one command; returns the body of the report."""
    if command not in _COMMAND_TABLE:
        raise InputError(f"unknown command {command!r}")
    return _COMMAND_TABLE[command](doc, charts)


def _render_text(report: dict, indent: str = "") -> str:
    lines = []
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_text(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(_render_text(item, indent + "  ").rstrip())
                lines.append(f"{indent}  -")
            lines.pop()
        else:
            lines.append(f"{indent}{key}: {json.dumps(value)}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webweave",
        description="Exact analysis of complete-intersection webs on P_n")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", help="path to a JSON input document")
    parser.add_argument("--chart", action="append", default=[],
                        metavar="i,j", help="restrict to a chart (repeatable)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        pair_cap = int(os.environ.get("WEAVE_PAIR_CAP", DEFAULT_PAIR_CAP))
        if pair_cap < 0:
            raise ValueError(pair_cap)
    except ValueError:
        print("error: WEAVE_PAIR_CAP must be an integer >= 0", file=sys.stderr)
        return EXIT_INPUT
    try:
        doc, digest = parse_input(args.input, pair_cap)
        charts = _charts_arg(doc, args.chart)
        body = run(args.command, doc, charts)
    except (InputError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PairCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ENGINE

    report = {"command": args.command, "input": args.input, "digest": digest,
              "n": doc.n}
    if args.chart:
        report["charts_requested"] = args.chart
    report.update(body)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(_render_text(report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
