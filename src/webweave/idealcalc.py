"""Monomial orders, multivariate division, Buchberger completion.

Ideal membership is the computational meaning of "vanishes on the
critical scheme": membership is tested in the ideal itself, not its
radical, so nilpotent structure is respected.  All computations are
deterministic: fixed pair selection (minimal lcm total degree, ties by
index) and a fixed reduction order.

Completion discards S-pairs with the Gebauer–Möller criteria (product,
chain B, and M/F on each new element's pairs) before reducing them, and
stops with the unit basis ``(1)`` as soon as a nonzero constant appears,
which is what ``is_trivial_ideal`` asks.  The pair cap counts only the
S-polynomial reductions actually performed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .polycore import (
    MultiPoly,
    UsageError,
    VarTable,
    _grevlex_key,
    integer_primitive,
)

DEFAULT_PAIR_CAP = 10_000


class PairCapExceeded(RuntimeError):
    """Buchberger ran past its safety cap; inputs are out of desk scale."""


@dataclass(frozen=True)
class MonomialOrder:
    """Total order on exponent vectors, compatible with multiplication.

    kind 'grevlex' and 'lex' need no extra data; kind 'block' carries the
    index partition (eliminated group compared first, grevlex within each
    block), which makes it an elimination order for the first group.
    """

    kind: str
    elim: tuple[int, ...] = ()
    keep: tuple[int, ...] = ()

    def key(self, exps: tuple[int, ...]):
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        if self.kind == "lex":
            return exps
        if self.kind == "block":
            left = tuple(exps[k] for k in self.elim)
            right = tuple(exps[k] for k in self.keep)
            return (_grevlex_key(left), _grevlex_key(right))
        raise UsageError(f"unknown monomial order kind {self.kind!r}")


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")


def block_order(table: VarTable, eliminated: "str | tuple[str, ...] | list[str]") -> MonomialOrder:
    """Elimination order dropping a variable group or explicit names."""
    if isinstance(eliminated, str):
        names = set(table.group_names(eliminated))
    else:
        names = set(eliminated)
    elim = tuple(k for k, nm in enumerate(table.names) if nm in names)
    keep = tuple(k for k, nm in enumerate(table.names) if nm not in names)
    missing = names - set(table.names)
    if missing:
        raise UsageError(f"unknown variables {sorted(missing)}")
    return MonomialOrder("block", elim, keep)


@dataclass(frozen=True)
class IdealBasis:
    generators: tuple[MultiPoly, ...]
    order: MonomialOrder

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _leading(f: MultiPoly, order: MonomialOrder):
    return f.leading(order.key)


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monic(f: MultiPoly, order: MonomialOrder) -> MultiPoly:
    _, c = _leading(f, order)
    return f if c == 1 else MultiPoly(f.vars, {e: v / c for e, v in f.terms.items()})


def _divisor_data(gens, order):
    out = []
    for g in gens:
        ge, gc = _leading(g, order)
        out.append((g.terms, ge, gc))
    return out


def _reduce_terms(fterms, divisors, key):
    """Division remainder on raw term dicts (the engine's hot loop)."""
    work = dict(fterms)
    remainder: dict[tuple[int, ...], Fraction] = {}
    while work:
        we = max(work, key=key)
        wc = work.pop(we)
        for gterms, ge, gc in divisors:
            if _divides(ge, we):
                ratio = wc / gc
                shift = tuple(a - b for a, b in zip(we, ge))
                for e2, c2 in gterms.items():
                    if e2 == ge:
                        continue
                    tgt = tuple(x + y for x, y in zip(e2, shift))
                    s = work.get(tgt, 0) - ratio * c2
                    if s:
                        work[tgt] = s
                    else:
                        work.pop(tgt, None)
                break
        else:
            remainder[we] = wc
    return remainder


def normal_form(f: MultiPoly, basis, order: MonomialOrder | None = None) -> MultiPoly:
    """Remainder of multivariate division of f by the basis.

    No term of the result is divisible by any generator's leading
    monomial, and f minus the result lies in the generated ideal.
    """
    gens = list(basis.generators) if isinstance(basis, IdealBasis) else list(basis)
    if order is None:
        order = basis.order if isinstance(basis, IdealBasis) else GREVLEX
    gens = [g for g in gens if g]
    for g in gens:
        if g.vars != f.vars:
            raise UsageError("polynomial and basis live over different tables")
    if not f or not gens:
        return f
    return MultiPoly(f.vars, _reduce_terms(f.terms, _divisor_data(gens, order), order.key))


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder = GREVLEX) -> MultiPoly:
    fe, fc = _leading(f, order)
    ge, gc = _leading(g, order)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = MultiPoly.monomial(f.vars, tuple(l - a for l, a in zip(lcm, fe)), Fraction(1) / fc)
    mg = MultiPoly.monomial(f.vars, tuple(l - a for l, a in zip(lcm, ge)), Fraction(1) / gc)
    return mf * f - mg * g


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _coprime(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return not any(x and y for x, y in zip(a, b))


def _update(leads, live, pairs, k):
    """Gebauer–Möller update of the live list and pair heap for new element k.

    Old pairs go by criterion B (the new leading monomial divides their lcm
    and gives a different lcm with either end).  Of the new pairs with the
    live elements, a pair goes by criteria M and F when another new pair's
    lcm divides its lcm (of equal lcms the last survives), and then by the
    product criterion when the two leading monomials are coprime.  Returns
    the new live list and pair heap.
    """
    h = leads[k]
    kept = [p for p in pairs
            if not (_divides(h, p[3]) and _lcm(leads[p[1]], h) != p[3]
                    and _lcm(leads[p[2]], h) != p[3])]
    new = [(i, _lcm(leads[i], h)) for i in live]
    chosen: list[tuple[int, tuple[int, ...]]] = []
    for t, (i, lcm) in enumerate(new):
        if _coprime(leads[i], h) or not any(
                _divides(m, lcm) for _, m in itertools.chain(new[t + 1:], chosen)):
            chosen.append((i, lcm))
    kept.extend((sum(lcm), i, k, lcm) for i, lcm in chosen if not _coprime(leads[i], h))
    heapq.heapify(kept)
    return [i for i in live if not _divides(h, leads[i])] + [k], kept


def buchberger(gens, order: MonomialOrder = GREVLEX,
               pair_cap: int = DEFAULT_PAIR_CAP) -> IdealBasis:
    """Reduced Groebner basis of the given generators.

    Each input and each S-polynomial is reduced by every element found so
    far and, when nonzero, inserted through the Gebauer–Möller update
    (``_update``), which discards pairs by the product criterion and
    criteria B, M and F before they are reduced.  New pairs are formed only
    with the live elements, those whose leading monomial no later leading
    monomial divides.  A nonzero constant returns the unit basis ``(1)`` at
    once.  Every inserted leading monomial is reduced by all earlier ones,
    so the live list ends as a minimal basis, and its inter-reduction is
    the reduced basis.

    Deterministic: pairs are processed by minimal lcm total degree with
    ties broken by generator index; intermediate polynomials are kept
    primitive to control coefficient growth.  ``pair_cap`` bounds the
    S-polynomial reductions actually performed (pairs a criterion discards
    do not count); exceeding it raises PairCapExceeded rather than
    truncating silently.
    """
    gens = [g for g in gens if g]
    if not gens:
        return IdealBasis((), order)
    table = gens[0].vars
    if any(g.vars != table for g in gens):
        raise UsageError("generators live over different variable tables")

    basis: list[MultiPoly] = []
    leads: list[tuple[int, ...]] = []
    live: list[int] = []
    divisors: list = []
    pairs: list[tuple[int, int, int, tuple[int, ...]]] = []
    reductions = 0
    inputs = gens[::-1]

    while inputs or pairs:
        if inputs:
            f = inputs.pop()
        else:
            _, a, b, _ = heapq.heappop(pairs)
            reductions += 1
            if reductions > pair_cap:
                raise PairCapExceeded(
                    f"Buchberger exceeded {pair_cap} pair reductions; "
                    "raise WEAVE_PAIR_CAP only if the input is known to be tame")
            f = s_polynomial(basis[a], basis[b], order)
        _, f = integer_primitive(f)
        # Superseded elements stay divisors, in insertion order: they still
        # lie in the ideal, and with the live ones alone the coefficients
        # swelled on one block-order caustic chart of a mixed_n3 variant,
        # which then ran past 60 s instead of 0.4 s.
        h = MultiPoly(table, _reduce_terms(f.terms, divisors, order.key))
        if not h:
            continue
        if h.is_constant():
            return IdealBasis((MultiPoly.const(table, 1),), order)
        _, h = integer_primitive(h)
        h = _monic(h, order)
        basis.append(h)
        leads.append(_leading(h, order)[0])
        divisors.append((h.terms, leads[-1], Fraction(1)))
        live, pairs = _update(leads, live, pairs, len(basis) - 1)

    # inter-reduce tails of the minimal basis
    minimal = [basis[t] for t in live]
    reduced: list[MultiPoly] = []
    for t, g in enumerate(minimal):
        others = minimal[:t] + minimal[t + 1:]
        h = normal_form(g, others, order)
        if h:
            reduced.append(_monic(h, order))
    reduced.sort(key=lambda g: order.key(_leading(g, order)[0]))
    return IdealBasis(tuple(reduced), order)


def ideal_member(f: MultiPoly, gens, order: MonomialOrder = GREVLEX,
                 pair_cap: int = DEFAULT_PAIR_CAP) -> bool:
    basis = gens if isinstance(gens, IdealBasis) else buchberger(gens, order, pair_cap)
    return not normal_form(f, basis)


def is_trivial_ideal(gens, order: MonomialOrder = GREVLEX,
                     pair_cap: int = DEFAULT_PAIR_CAP) -> bool:
    """True iff 1 lies in the ideal (no common zero over the complexes)."""
    basis = gens if isinstance(gens, IdealBasis) else buchberger(gens, order, pair_cap)
    return len(basis) == 1 and basis.generators[0].is_constant()


def eliminate(gens, drop: "str | tuple[str, ...] | list[str]",
              pair_cap: int = DEFAULT_PAIR_CAP) -> list[MultiPoly]:
    """Generators of the elimination ideal with the dropped variables removed.

    Computes a reduced basis under a block order eliminating ``drop`` and
    returns the generators free of the dropped variables (a reduced basis
    of the elimination ideal in the retained variables).
    """
    gens = list(gens.generators) if isinstance(gens, IdealBasis) else list(gens)
    gens = [g for g in gens if g]
    if not gens:
        return []
    table = gens[0].vars
    order = block_order(table, drop)
    if isinstance(drop, str):
        dropped = set(table.group_names(drop))
    else:
        dropped = set(drop)
    basis = buchberger(gens, order, pair_cap)
    return [g for g in basis if not (g.variables_used() & dropped)]
