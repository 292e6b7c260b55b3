"""Correctness witness for chart transitions, computed right after each
``transition`` job (outside its timed window) so the run need not keep
every transition object until the gate runs.  Plain Fraction arithmetic
on the returned rational functions; no webweave code is called.
"""

from __future__ import annotations

import random
from fractions import Fraction


def transition_witness(t, rng: random.Random) -> str | None:
    """Check a ChartTransition at a random rational point of the overlap.

    The target coordinates are recomputed from the homogeneous point the
    source coordinates describe, and J K = det(J) I is checked there.
    """
    src, tgt = t.source, t.target
    for _ in range(20):
        point = {f"x{k}": Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for k in src.x_indices}
        point.update({f"p{a}": Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for a in src.p_indices})
        X = {src.i: Fraction(1), **{k: point[f"x{k}"] for k in src.x_indices}}
        u = {src.j: Fraction(-1), **{a: point[f"p{a}"] for a in src.p_indices}}
        u[src.i] = point[f"x{src.j}"] - sum(point[f"p{a}"] * point[f"x{a}"]
                                            for a in src.p_indices)
        if X[tgt.i] == 0 or u[tgt.j] == 0:
            continue
        values = {}
        try:
            for name, expr in t.x_map + t.p_map:
                values[name] = _eval_rat(expr, point)
            J = [[_eval_rat(e, point) for e in row] for row in t.J]
            K = [[_eval_rat(e, point) for e in row] for row in t.K]
            det = _eval_rat(t.jac_det, point)
        except ZeroDivisionError:
            continue
        for k in tgt.x_indices:
            if values[f"x{k}"] != X[k] / X[tgt.i]:
                return f"x{k} map is wrong at {point}"
        for a in tgt.p_indices:
            if values[f"p{a}"] != -u[a] / u[tgt.j]:
                return f"p{a} map is wrong at {point}"
        size = len(J)
        for r in range(size):
            for c in range(size):
                s = sum(J[r][m] * K[m][c] for m in range(size))
                if s != (det if r == c else 0):
                    return f"J K != det(J) I at {point}"
        if det != cofactor_det(J):
            return f"jac_det != det(J) at {point}"
        return None
    return "no sample point found on the overlap"


def _eval_poly(f, point) -> Fraction:
    names = f.vars.names
    total = Fraction(0)
    for exps, c in f.terms.items():
        term = c
        for k, e in enumerate(exps):
            if e:
                term *= point[names[k]] ** e
        total += term
    return total


def _eval_rat(r, point) -> Fraction:
    den = _eval_poly(r.den, point)
    if den == 0:
        raise ZeroDivisionError
    return _eval_poly(r.num, point) / den


def cofactor_det(m):
    """Determinant of a small square matrix over any commutative ring."""
    if len(m) == 1:
        return m[0][0]
    total = None
    for r in range(len(m)):
        minor = [row[1:] for t, row in enumerate(m) if t != r]
        term = m[r][0] * cofactor_det(minor)
        total = term if total is None else (total + term if r % 2 == 0 else total - term)
    return total
