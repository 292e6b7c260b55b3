"""Monomial orders, multivariate division, Buchberger completion.

Ideal membership is the computational meaning of "vanishes on the
critical scheme": membership is tested in the ideal itself, not its
radical, so nilpotent structure is respected.  All computations are
deterministic: S-pairs are chosen by least sugar, then least lcm total
degree, then index (Giovini, Mora, Niesi, Robbiano, Traverso, "One sugar
cube, please", ISSAC 1991), and reductions follow a fixed order.

Completion discards S-pairs with the Gebauer–Möller criteria (product,
chain B, and M/F on each new element's pairs) before reducing them, and
stops with the unit basis ``(1)`` as soon as a nonzero constant appears,
which is what ``is_trivial_ideal`` asks.  The pair cap counts only the
S-polynomial reductions actually performed.

Inside completion and division, polynomials are raw term dicts with
integer coefficients: every intermediate is integer-primitive, and
division is fraction-free, taking the leading work term from a heap
(Monagan & Pearce, "Sparse polynomial division using a heap", JSC 46,
2011).  Each monomial is packed into one int (``polycore._Packing``),
keyed by its heap entry, an int that puts the negated flat order key
above the packed exponents, so products, shifts, divisibility and lcms
are integer adds and masks and the heap compares ints.  A monomial that
outgrows its fields restarts the call with wider ones.  ``MultiPoly``
values appear only at the public boundary, with a coefficient that is
an int when it is integral and a ``Fraction`` otherwise.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import and_, sub

# the monomial orders live in polycore beside the packing that flattens
# their keys, and the pair cap beside the gcd that also runs under it;
# GREVLEX, LEX, MonomialOrder and DEFAULT_PAIR_CAP stay importable from here
from .polycore import (
    DEFAULT_PAIR_CAP,
    GREVLEX,
    LEX,
    MonomialOrder,
    MultiPoly,
    UsageError,
    VarTable,
    _integer_terms,
    _Packing,
    _quotient,
    _subtract_packed,
    _top,
    _with_packing,
)


class PairCapExceeded(RuntimeError):
    """Buchberger ran past its safety cap; inputs are out of desk scale."""


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
    # normal_form's divisors, packed once per packing; not part of the value
    _divisors: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _primitive_element(terms: list) -> tuple:
    """The element of a nonzero integer remainder (``_reduce`` output),
    divided by its content and sign so the leading coefficient is positive."""
    g = math.gcd(*(c for _, c in terms))
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(e, c // g) for e, c in terms]
    return terms[0][0], terms[0][1], tuple(terms[1:])


def _reduce(work: dict, divisors, guards: int) -> tuple[list, int]:
    """Fraction-free remainder of a packed integer term dict (consumed).

    ``work`` maps heap entries (``polycore._Packing``) to integers.  The
    leading work term comes off a heap of entries; cancelled monomials
    leave stale entries that are skipped.  It is cancelled by the first
    divisor in list order whose leading monomial divides it, after scaling
    the work by gc/gcd(gc, wc), or else moved to the remainder.  Divisors
    are ``_Packing.element`` triples with positive leading coefficients,
    and the shifted divisor tail is subtracted by ``_subtract_packed``.
    Returns ``(remainder, scale)``: the remainder's (entry, integer) items
    in decreasing order, and the positive integer with scale * f minus
    the remainder in the ideal of the divisors; divided by ``scale``, the
    remainder is the exact one of division over Q with the same selection
    rule.
    """
    heap = list(work)
    heapq.heapify(heap)
    remainder = []
    scale = 1
    while heap:
        we = heapq.heappop(heap)
        wc = work.pop(we, 0)
        if not wc:
            continue
        for ge, gc, tail in divisors:
            shift = we - ge
            if not shift & guards:
                d = math.gcd(gc, wc)
                if d != gc:
                    m = gc // d
                    for e in work:
                        work[e] *= m
                    scale *= m
                _subtract_packed(work, heap, tail, shift, wc // d, guards)
                break
        else:
            remainder.append((we, wc, scale))
    return [(e, c * (scale // s)) for e, c, s in remainder], scale


def _s_pair(f: tuple, g: tuple, a, b, lcm: int, guards: int) -> dict:
    """a * x^(l - lm f) * tail f - b * x^(l - lm g) * tail g, l the lcm of
    the leading monomials with heap entry ``lcm``: the S-polynomial of f
    and g when a * lc(f) = b * lc(g), built on packed term dicts."""
    fe, _, ftail = f
    ge, _, gtail = g
    out: dict = {}
    # ``_reduce`` builds the heap of the result, so none is kept here
    _subtract_packed(out, [], ftail, lcm - fe, -a, guards)
    _subtract_packed(out, [], gtail, lcm - ge, b, guards)
    return out


def normal_form(f: MultiPoly, basis, order: MonomialOrder | None = None) -> MultiPoly:
    """Remainder of multivariate division of f by the basis.

    No term of the result is divisible by any generator's leading
    monomial, and f minus the result lies in the generated ideal.  The
    leading term of the work is cancelled by the first generator (in
    list order) whose leading monomial divides it, so the remainder is
    exact and fixed by the generators' order; it is computed
    fraction-free on packed monomials and divided back at the end.
    """
    # an IdealBasis keeps its packed divisors; a plain list is packed per call
    packed = basis._divisors if isinstance(basis, IdealBasis) else None
    if order is None:
        order = GREVLEX if packed is None else basis.order
    gens = [g for g in basis if g]
    for g in gens:
        if g.vars != f.vars:
            raise UsageError("polynomial and basis live over different tables")
    if not f or not gens:
        return f
    content, work = _integer_terms(f.terms)

    def run(pk: _Packing):
        divisors = None if packed is None else packed.get(pk)
        if divisors is None:
            divisors = [pk.element(_integer_terms(g.terms)[1]) for g in gens]
            if packed is not None:
                packed[pk] = divisors
        remainder, scale = _reduce(pk.pack(work), divisors, pk.guards)
        return pk.unpack(remainder), scale

    top = _top(work, *(g.terms for g in gens))
    remainder, scale = _with_packing(order, len(f.vars.names), top, run)
    num, den = content.numerator, content.denominator * scale
    return MultiPoly._trusted(f.vars, {e: _quotient(num * c, den) for e, c in remainder.items()})


def _update(pk: _Packing, leads, degrees, sugars, live, pairs, k):
    """Gebauer–Möller update of the live list and pair heap for new element k.

    ``leads`` are packed leading monomials, ``degrees`` their total
    degrees and ``sugars`` the elements' sugars.  Old pairs go by
    criterion B (the new leading monomial divides their lcm and gives a
    different lcm with either end).  Of the new pairs with the live
    elements, a pair goes by criteria M and F when another new pair's lcm
    divides its lcm (of equal lcms the last survives), and then by the
    product criterion when the two leading monomials are coprime, that is
    when their lcm is their product.  A kept pair is keyed
    ``(sugar, lcm degree, i, k, lcm)``, its sugar the larger of
    ``sugar_i + deg lcm - deg lm_i`` over its two ends.  Returns the new
    live list and pair heap.
    """
    h = leads[k]
    guards, lcm = pk.guards, pk.lcm
    kept = [p for p in pairs
            if (p[4] - h) & guards or lcm(leads[p[2]], h) == p[4]
            or lcm(leads[p[3]], h) == p[4]]
    new = [lcm(leads[i], h) for i in live]
    chosen: list[int] = []
    excess = sugars[k] - degrees[k]
    for t, (i, m) in enumerate(zip(live, new)):
        coprime = m == leads[i] + h
        # no later new lcm and no chosen one divides m
        if coprime or all(map(and_, map(sub, repeat(m), chain(new[t + 1:], chosen)),
                              repeat(guards))):
            chosen.append(m)
            if not coprime:
                d = sum(pk.exps(m))
                kept.append((d + max(sugars[i] - degrees[i], excess), d, i, k, m))
    heapq.heapify(kept)
    return [i for i in live if (leads[i] - h) & guards] + [k], kept


def buchberger(gens, order: MonomialOrder = GREVLEX,
               pair_cap: int = DEFAULT_PAIR_CAP, *, _elimination: bool = False) -> IdealBasis:
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

    Deterministic: pairs are processed by least sugar, the degree the
    S-polynomial would have if no cancellation had lowered the degrees of
    its ancestors (Giovini et al., "One sugar cube, please", ISSAC 1991),
    with ties broken by lcm total degree and then by generator index.  An
    input's sugar is its top total degree; a new element's is the larger
    of its pair's sugar and its remainder's top total degree.  On some
    smoothness ideals, least lcm degree first swelled the coefficients to
    tens of thousands of bits.  The inputs are packed once on entry
    (``polycore._Packing``, fields sized from their largest exponent) and
    the result unpacked once on exit; elements are packed integer-primitive
    term dicts with a positive leading coefficient, S-polynomials are formed
    from them directly and made primitive before the fraction-free heap
    division (``_reduce``), and a ``MultiPoly`` is built only for each
    monic element of the result.  A monomial that outgrows its fields
    restarts the completion with wider ones; orders and divisibility do
    not depend on the width, so the restart makes the same decisions.
    ``pair_cap`` bounds the S-polynomial reductions actually performed in
    the run that completes (pairs a criterion discards do not count);
    exceeding it raises PairCapExceeded rather than truncating silently.

    ``_elimination`` is ``eliminate``'s: the basis then holds only the
    elements free of the block order's eliminated variables.
    """
    gens = [g for g in gens if g]
    if not gens:
        return IdealBasis((), order)
    table = gens[0].vars
    if any(g.vars != table for g in gens):
        raise UsageError("generators live over different variable tables")
    inputs = [_integer_terms(g.terms)[1] for g in gens]
    nvars = len(table.names)
    drop = order.elim if _elimination else ()
    generators = _with_packing(order, nvars, _top(*inputs),
                               lambda pk: _complete(pk, table, inputs, pair_cap, drop))
    return IdealBasis(generators, order)


def _complete(pk: _Packing, table: VarTable, inputs: list, pair_cap: int,
              drop: tuple[int, ...]) -> tuple:
    """``buchberger``'s completion and inter-reduction on one packing; the
    elements whose leading monomial involves a variable at an index in
    ``drop`` are left out of the inter-reduction and the result."""
    guards = pk.guards
    # Every element found so far divides, in insertion order; superseded
    # ones still lie in the ideal, and with the live ones alone the
    # coefficients swelled on one block-order caustic chart of a mixed_n3
    # variant, which then ran past 60 s instead of 0.4 s.
    basis: list[tuple] = []
    leads: list[int] = []
    degrees: list[int] = []
    sugars: list[int] = []
    live: list[int] = []
    pairs: list[tuple[int, int, int, int, int]] = []
    reductions = 0
    # an input's sugar is its top total degree, which under a block order
    # need not be the degree of its leading term
    pending = [(max(map(sum, f)), f) for f in reversed(inputs)]

    while pending or pairs:
        if pending:
            sugar, f = pending.pop()
            work = pk.pack(f)
        else:
            sugar, _, a, b, lcm = heapq.heappop(pairs)
            reductions += 1
            if reductions > pair_cap:
                raise PairCapExceeded(
                    f"Buchberger exceeded {pair_cap} pair reductions; "
                    "raise WEAVE_PAIR_CAP only if the input is known to be tame")
            fc, gc = basis[a][1], basis[b][1]
            d = math.gcd(fc, gc)
            work = _s_pair(basis[a], basis[b], gc // d, fc // d, pk.entry(pk.exps(lcm)), guards)
            if not work:
                continue
            d = math.gcd(*work.values())
            if d != 1:
                work = {e: c // d for e, c in work.items()}
        remainder, _ = _reduce(work, basis, guards)
        if not remainder:
            continue
        if not remainder[0][0]:
            return (MultiPoly.const(table, 1),)
        basis.append(_primitive_element(remainder))
        leads.append(remainder[0][0] & pk.mask)
        degrees.append(sum(pk.exps(leads[-1])))
        sugars.append(max(sugar, max(sum(pk.exps(e)) for e, _ in remainder)))
        live, pairs = _update(pk, leads, degrees, sugars, live, pairs, len(basis) - 1)

    # inter-reduce tails of the minimal basis; sorted by increasing order
    # key, which is decreasing entry.  Under a block order an element whose
    # leading monomial is free of the eliminated block is free of it
    # altogether, so an element left out never divides one of its terms.
    minimal = [basis[t] for t in live]
    if drop:
        minimal = [g for g in minimal if not any(map(pk.exps(g[0]).__getitem__, drop))]
    reduced = []
    for t, (lead, lc, tail) in enumerate(minimal):
        remainder, _ = _reduce(dict(((lead, lc), *tail)), minimal[:t] + minimal[t + 1:], guards)
        lead, lc = remainder[0]
        reduced.append((lead, MultiPoly._trusted(
            table, pk.unpack((e, _quotient(c, lc)) for e, c in remainder))))
    reduced.sort(key=lambda lg: lg[0], reverse=True)
    return tuple(g for _, g in reduced)


def is_trivial_ideal(gens, pair_cap: int = DEFAULT_PAIR_CAP) -> bool:
    """True iff 1 lies in the ideal (no common zero over the complexes)."""
    basis = buchberger(gens, GREVLEX, pair_cap)
    return len(basis) == 1 and basis.generators[0].is_constant()


def eliminate(gens, drop: "str | tuple[str, ...] | list[str]",
              pair_cap: int = DEFAULT_PAIR_CAP) -> list[MultiPoly]:
    """Generators of the elimination ideal with the dropped variables removed.

    Completes a Groebner basis under a block order eliminating ``drop`` and
    returns its reduced elements free of the dropped variables (a reduced
    basis of the elimination ideal in the retained variables); the others
    are neither inter-reduced nor unpacked.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    return list(buchberger(gens, block_order(gens[0].vars, drop), pair_cap, _elimination=True))
