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

Inside completion and division, polynomials are raw term dicts with
integer coefficients: every intermediate is integer-primitive, and
division is fraction-free, taking the leading work term from a heap
keyed by the negated flat order key (Monagan & Pearce, "Sparse
polynomial division using a heap", JSC 46, 2011).  ``MultiPoly`` values
appear only at the public boundary, with a coefficient that is an int
when it is integral and a ``Fraction`` otherwise.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import add, le, sub

from .polycore import (
    MultiPoly,
    UsageError,
    VarTable,
    _grevlex_key,
    _heap_key,
    _integer_terms,
    _quotient,
    _subtract_shifted,
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
    ``key`` is a flat tuple of integers, compared lexicographically.
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


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(map(le, a, b))


def _element(terms: dict, key) -> tuple:
    """(leading monomial, leading coefficient, tail items) of a term dict,
    negated where needed so that the leading coefficient is positive."""
    lead = max(terms, key=key)
    if terms[lead] < 0:
        terms = {e: -c for e, c in terms.items()}
    return lead, terms[lead], tuple((e, c) for e, c in terms.items() if e != lead)


def _primitive_element(terms: dict) -> tuple:
    """The element of a nonzero integer remainder (``_reduce`` output),
    divided by its content and sign so the leading coefficient is positive."""
    g = math.gcd(*(c for _, c in terms))
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(e, c // g) for e, c in terms]
    return terms[0][0], terms[0][1], tuple(terms[1:])


def _reduce(work: dict, divisors, key) -> tuple[list, int]:
    """Fraction-free remainder of an integer term dict (consumed).

    The leading work term comes off a heap of (heap key, monomial)
    entries; cancelled monomials leave stale entries that are skipped.
    It is cancelled by the first divisor in list order whose leading
    monomial divides it, after scaling the work by gc/gcd(gc, wc), or
    else moved to the remainder.  Divisors are ``_element`` triples with
    positive leading coefficients.  Returns ``(remainder, scale)``: the
    remainder's (monomial, integer) items in decreasing order, and the
    positive integer with scale * f minus the remainder in the ideal of
    the divisors; divided by ``scale``, the remainder is the exact one of
    division over Q with the same selection rule.  It takes exponent
    tuples of any width: ``cohomcalc.nf`` divides (xi, xi') classes.
    """
    heap = [(_heap_key(key, e), e) for e in work]
    heapq.heapify(heap)
    remainder = []
    scale = 1
    while heap:
        we = heapq.heappop(heap)[1]
        wc = work.pop(we, 0)
        if not wc:
            continue
        for ge, gc, tail in divisors:
            if all(map(le, ge, we)):
                d = math.gcd(gc, wc)
                if d != gc:
                    m = gc // d
                    for e in work:
                        work[e] *= m
                    scale *= m
                _subtract_shifted(work, heap, key, tail, tuple(map(sub, we, ge)), wc // d)
                break
        else:
            remainder.append((we, wc, scale))
    return [(e, c * (scale // s)) for e, c, s in remainder], scale


def _s_pair(f: tuple, g: tuple, a, b) -> dict:
    """a * x^(l - lm f) * tail f - b * x^(l - lm g) * tail g, l the lcm of
    the leading monomials: the S-polynomial of f and g when
    a * lc(f) = b * lc(g), built on raw term dicts."""
    fe, _, ftail = f
    ge, _, gtail = g
    lcm = _lcm(fe, ge)
    shift = tuple(map(sub, lcm, fe))
    out = {tuple(map(add, e, shift)): a * c for e, c in ftail}
    shift = tuple(map(sub, lcm, ge))
    for e, c in gtail:
        t = tuple(map(add, e, shift))
        v = out.get(t, 0) - b * c
        if v:
            out[t] = v
        else:
            out.pop(t, None)
    return out


def normal_form(f: MultiPoly, basis, order: MonomialOrder | None = None) -> MultiPoly:
    """Remainder of multivariate division of f by the basis.

    No term of the result is divisible by any generator's leading
    monomial, and f minus the result lies in the generated ideal.  The
    leading term of the work is cancelled by the first generator (in
    list order) whose leading monomial divides it, so the remainder is
    exact and fixed by the generators' order; it is computed
    fraction-free and divided back at the end.
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
    divisors = [_element(_integer_terms(g.terms)[1], order.key) for g in gens]
    content, work = _integer_terms(f.terms)
    remainder, scale = _reduce(work, divisors, order.key)
    num, den = content.numerator, content.denominator * scale
    return MultiPoly._trusted(f.vars, {e: _quotient(num * c, den) for e, c in remainder})


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(max, a, b))


def _coprime(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return not any(map(min, a, b))


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
                all(map(le, m, lcm)) for _, m in itertools.chain(new[t + 1:], chosen)):
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
    ties broken by generator index.  Elements are kept as integer-primitive
    term dicts with a positive leading coefficient; S-polynomials are
    formed from them directly and made primitive before the fraction-free
    heap division (``_reduce``), and a ``MultiPoly`` is built only for each
    monic element of the result.  ``pair_cap`` bounds the S-polynomial
    reductions actually performed (pairs a criterion discards do not
    count); exceeding it raises PairCapExceeded rather than truncating
    silently.
    """
    gens = [g for g in gens if g]
    if not gens:
        return IdealBasis((), order)
    table = gens[0].vars
    if any(g.vars != table for g in gens):
        raise UsageError("generators live over different variable tables")

    key = order.key
    # Every element found so far divides, in insertion order; superseded
    # ones still lie in the ideal, and with the live ones alone the
    # coefficients swelled on one block-order caustic chart of a mixed_n3
    # variant, which then ran past 60 s instead of 0.4 s.
    basis: list[tuple] = []
    leads: list[tuple[int, ...]] = []
    live: list[int] = []
    pairs: list[tuple[int, int, int, tuple[int, ...]]] = []
    reductions = 0
    inputs = gens[::-1]

    while inputs or pairs:
        if inputs:
            work = _integer_terms(inputs.pop().terms)[1]
        else:
            _, a, b, _ = heapq.heappop(pairs)
            reductions += 1
            if reductions > pair_cap:
                raise PairCapExceeded(
                    f"Buchberger exceeded {pair_cap} pair reductions; "
                    "raise WEAVE_PAIR_CAP only if the input is known to be tame")
            fc, gc = basis[a][1], basis[b][1]
            d = math.gcd(fc, gc)
            work = _s_pair(basis[a], basis[b], gc // d, fc // d)
            if not work:
                continue
            d = math.gcd(*work.values())
            if d != 1:
                work = {e: c // d for e, c in work.items()}
        remainder, _ = _reduce(work, basis, key)
        if not remainder:
            continue
        if not any(remainder[0][0]):
            return IdealBasis((MultiPoly.const(table, 1),), order)
        basis.append(_primitive_element(remainder))
        leads.append(remainder[0][0])
        live, pairs = _update(leads, live, pairs, len(basis) - 1)

    # inter-reduce tails of the minimal basis
    minimal = [basis[t] for t in live]
    reduced: list[tuple[tuple[int, ...], MultiPoly]] = []
    for t, (lead, lc, tail) in enumerate(minimal):
        remainder, _ = _reduce(dict(((lead, lc), *tail)), minimal[:t] + minimal[t + 1:], key)
        lead, lc = remainder[0]
        reduced.append((key(lead), MultiPoly._trusted(
            table, {e: _quotient(c, lc) for e, c in remainder})))
    reduced.sort(key=lambda kg: kg[0])
    return IdealBasis(tuple(g for _, g in reduced), order)


def is_trivial_ideal(gens, pair_cap: int = DEFAULT_PAIR_CAP) -> bool:
    """True iff 1 lies in the ideal (no common zero over the complexes)."""
    basis = buchberger(gens, GREVLEX, pair_cap)
    return len(basis) == 1 and basis.generators[0].is_constant()


def eliminate(gens, drop: "str | tuple[str, ...] | list[str]",
              pair_cap: int = DEFAULT_PAIR_CAP) -> list[MultiPoly]:
    """Generators of the elimination ideal with the dropped variables removed.

    Computes a reduced basis under a block order eliminating ``drop`` and
    returns the generators free of the dropped variables (a reduced basis
    of the elimination ideal in the retained variables).
    """
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
