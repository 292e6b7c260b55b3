"""Span tracer that wraps webweave's public functions from outside.

``Tracer.install`` replaces each traced function in every webweave
module namespace that bound it at import (``webanalysis`` imports
``buchberger`` by name, so patching ``idealcalc`` alone would miss its
calls) and the traced ``MultiPoly``/``RatFunc`` methods on their
classes; ``uninstall`` puts the originals back, so one process can
alternate traced and untraced calls.

Self time is a span's duration minus the time covered by its child
spans.  The bookkeeping a wrapper does itself (including the observers
that derive counts from arguments and results) is charged to neither
the span nor its parent, so it shows only as tracing overhead.  Spans of
the coarse layers are kept in memory and written when the run ends; the
kernel layers (multiply, constructors) are only counted, since they run
millions of times.
"""

from __future__ import annotations

import json
import time

from webweave import cli, cohomcalc, contactgeom, idealcalc, polycore, webanalysis

MODULES = (polycore, idealcalc, contactgeom, webanalysis, cohomcalc, cli)
SPAN_LIMIT = 300_000

FUNCTIONS = (
    ("polycore.substitute", polycore, "substitute"),
    ("polycore.poly_det", polycore, "poly_det"),
    ("polycore.poly_adjugate", polycore, "poly_adjugate"),
    ("polycore.multivar_gcd", polycore, "multivar_gcd"),
    ("idealcalc.buchberger", idealcalc, "buchberger"),
    ("idealcalc.normal_form", idealcalc, "normal_form"),
    ("idealcalc.eliminate", idealcalc, "eliminate"),
    ("idealcalc.is_trivial_ideal", idealcalc, "is_trivial_ideal"),
    ("contactgeom.chart_form", contactgeom, "chart_form"),
    ("contactgeom.transition", contactgeom, "transition"),
    ("contactgeom.covariance_check", contactgeom, "covariance_check"),
    ("webanalysis.chart_web_data", webanalysis, "chart_web_data"),
    ("webanalysis.is_dicritical", webanalysis, "is_dicritical"),
    ("webanalysis.is_hyperdicritical", webanalysis, "is_hyperdicritical"),
    ("webanalysis.smoothness_chart_check", webanalysis, "smoothness_chart_check"),
    ("webanalysis.caustic_generators", webanalysis, "caustic_generators"),
    ("webanalysis.is_linearizable_pde", webanalysis, "is_linearizable_pde"),
    ("webanalysis.certify_algebraicity", webanalysis, "certify_algebraicity"),
    ("cli.parse_document", cli, "parse_document"),
    ("cli.run", cli, "run"),
    ("cli.main", cli, "main"),
)
METHODS = (
    ("polycore.mul", polycore.MultiPoly, ("__mul__", "__rmul__")),
    ("polycore.multipoly_init", polycore.MultiPoly, ("__init__",)),
    ("contactgeom.ratfunc_init", contactgeom.RatFunc, ("__init__",)),
)
COUNT_ONLY = {"polycore.mul", "polycore.multipoly_init", "contactgeom.ratfunc_init"}


def _cohomcalc_functions():
    return [name for name, val in vars(cohomcalc).items()
            if callable(val) and not name.startswith("_") and not isinstance(val, type)
            and getattr(val, "__module__", None) == cohomcalc.__name__]


def _poly_key(f) -> tuple:
    return (f.vars.names, frozenset(f.terms.items()))


def _coeff_bits(f) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in f.terms.values()), default=0)


class Stats:
    """Counters of one layer, derived from call arguments and results."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.keys: set[int] = set()
        self.keyed = 0
        self.hits = 0
        self.sums: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    def key(self, k) -> None:
        self.keyed += 1
        self.keys.add(hash(k))

    def add(self, name: str, v: int) -> None:
        self.sums[name] = self.sums.get(name, 0) + v

    def high(self, name: str, v: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), v)

    def repeat_ratio(self) -> float:
        return (self.keyed - len(self.keys)) / self.keyed if self.keyed else 0.0

    def hit_ratio(self) -> float:
        return self.hits / self.calls if self.calls else 0.0


# -- observers: (stats, args, kwargs) before the call, (stats, result) after --


def _buchberger_pre(st, args, kwargs):
    gens = [g for g in args[0] if g]
    order = args[1] if len(args) > 1 else kwargs.get("order", idealcalc.GREVLEX)
    st.key((order, tuple(_poly_key(g) for g in gens)))
    st.add("gens_in", len(gens))


def _buchberger_post(st, basis):
    st.add("basis_out", len(basis))
    st.high("basis_max", len(basis))
    for g in basis:
        st.high("top_degree_max", g.total_degree())
        st.high("coeff_bits_max", _coeff_bits(g))


def _chart_web_data_pre(st, args, kwargs):
    w, chart = args[0], args[1]
    st.key((chart.n, chart.i, chart.j, tuple(_poly_key(p.poly) for p in w.pdes)))


def _chart_form_pre(st, args, kwargs):
    S, chart = args
    st.key((chart.n, chart.i, chart.j, _poly_key(S.poly)))


def _count_true(st, result):
    st.hits += bool(result)


def _count_zero(st, result):
    st.hits += not result


OBSERVERS = {
    "idealcalc.buchberger": (_buchberger_pre, _buchberger_post),
    "webanalysis.chart_web_data": (_chart_web_data_pre, None),
    "contactgeom.chart_form": (_chart_form_pre, None),
    "idealcalc.normal_form": (None, _count_zero),
    "idealcalc.is_trivial_ideal": (None, _count_true),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.job = None
        self._next_id = 0
        # frame: [span id, start, time covered by children]
        self._stack: list[list] = [[-1, 0.0, 0.0]]
        self._patch_list: list[tuple] | None = None

    def reset_stack(self) -> None:
        """Drop frames left open by a job stopped at its deadline."""
        del self._stack[1:]
        self._stack[0][2] = 0.0

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, Stats())
        pre, post = OBSERVERS.get(name, (None, None))
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        keep_spans = name not in COUNT_ONLY

        def traced(*args, **kwargs):
            entered = clock()
            if pre is not None:
                pre(st, args, kwargs)
            frame = [self._next_id, 0.0, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                st.calls += 1
                st.self_s += end - start - frame[2]
                parent = stack[-1]
                parent[2] += end - entered
                if keep_spans:
                    if len(spans) < SPAN_LIMIT:
                        spans.append((self.job, frame[0], parent[0], name, start, end))
                    else:
                        self.dropped += 1
            if post is not None:
                post(st, result)
            parent[2] += clock() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every traced binding."""
        targets = [(name, mod, attr) for name, mod, attr in FUNCTIONS]
        targets += [("cohomcalc", cohomcalc, attr) for attr in _cohomcalc_functions()]
        out = []
        for name, mod, attr in targets:
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig)
            for m in MODULES + (_package(),):
                out.extend((m, key, orig, wrapped)
                           for key, val in vars(m).items() if val is orig)
        for name, cls, attrs in METHODS:
            orig = cls.__dict__[attrs[0]]
            wrapped = self._wrap(name, orig)
            out.extend((cls, attr, cls.__dict__[attr], wrapped) for attr in attrs)
        return out

    def install(self) -> None:
        if self._patch_list is None:
            self._patch_list = self._patches()
        for owner, attr, _, wrapped in self._patch_list:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in self._patch_list or ():
            setattr(owner, attr, orig)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, by metric name."""
        def s(name):
            return self.stats.get(name) or Stats()

        out: dict[str, float] = {}
        bb = s("idealcalc.buchberger")
        out["idealcalc.buchberger.calls"] = bb.calls
        out["idealcalc.buchberger.self_s"] = bb.self_s
        for k in ("gens_in", "basis_out"):
            out[f"idealcalc.buchberger.{k}"] = bb.sums.get(k, 0)
        for k in ("basis_max", "top_degree_max", "coeff_bits_max"):
            out[f"idealcalc.buchberger.{k}"] = bb.maxima.get(k, 0)
        out["idealcalc.buchberger.repeat_ratio"] = bb.repeat_ratio()
        nf = s("idealcalc.normal_form")
        out.update({"idealcalc.normal_form.calls": nf.calls,
                    "idealcalc.normal_form.self_s": nf.self_s,
                    "idealcalc.normal_form.zero_ratio": nf.hit_ratio()})
        el = s("idealcalc.eliminate")
        out.update({"idealcalc.eliminate.calls": el.calls,
                    "idealcalc.eliminate.self_s": el.self_s})
        tr = s("idealcalc.is_trivial_ideal")
        out.update({"idealcalc.is_trivial_ideal.calls": tr.calls,
                    "idealcalc.is_trivial_ideal.self_s": tr.self_s,
                    "idealcalc.is_trivial_ideal.true_ratio": tr.hit_ratio()})
        for name in ("webanalysis.chart_web_data", "contactgeom.chart_form"):
            st = s(name)
            out.update({f"{name}.calls": st.calls, f"{name}.self_s": st.self_s,
                        f"{name}.repeat_ratio": st.repeat_ratio()})
        for fn in ("is_dicritical", "is_hyperdicritical", "smoothness_chart_check",
                   "caustic_generators", "is_linearizable_pde", "certify_algebraicity"):
            out[f"webanalysis.{fn}.self_s"] = s(f"webanalysis.{fn}").self_s
        out["polycore.multivar_gcd.calls"] = s("polycore.multivar_gcd").calls
        out["polycore.multivar_gcd.self_s"] = s("polycore.multivar_gcd").self_s
        out["contactgeom.ratfunc_init.calls"] = s("contactgeom.ratfunc_init").calls
        for name in ("contactgeom.transition", "contactgeom.covariance_check",
                     "polycore.mul", "polycore.substitute", "polycore.poly_det",
                     "polycore.poly_adjugate", "polycore.multipoly_init"):
            out[f"{name}.calls"] = s(name).calls
            out[f"{name}.self_s"] = s(name).self_s
        out["cohomcalc.self_s"] = s("cohomcalc").self_s
        for fn in ("parse_document", "run", "main"):
            out[f"cli.{fn}.self_s"] = s(f"cli.{fn}").self_s
        return out

    def write(self, path) -> None:
        """Write the kept spans (job, span id, parent id, layer, start, end)."""
        with open(path, "w") as fh:
            json.dump({"fields": ["job (pass, index)", "span", "parent", "layer", "start_s", "end_s"],
                       "dropped_after_limit": self.dropped,
                       "spans": self.spans}, fh)


def _package():
    import webweave
    return webweave

