"""Lattice points in fundamental parallelepipeds of the dominant cones,
and the growth series f_Q they produce.

The cone of a generator subset Q is spanned by the gcd-reduced columns
w_i, i in I = I(Q) (the indices not in Q), of a positive multiple of the
inverse Cartan matrix.  Since C w_i = d_i e_i with d_i > 0, the residue
map m -> C m is a bijection from the lattice points of the half-open
parallelepiped Pi = {sum c_i w_i : 0 <= c_i < 1} onto the vectors y,
supported on I with 0 <= y_i < d_i, for which m = sum (y_i / d_i) w_i is
integral (found by a meet-in-the-middle join on residues mod lcm(d_i)).
With wt(m) = <2 rho, v> = 2 * sum(m) for the translation v that m
encodes, and W = sum_{i in I} w_i, Stanley reciprocity (the open
parallelepiped is W - Pi) gives

    f_Q = sum_{m in Pi} t^(wt(W) - wt(m)) / prod_{i in I} (1 - t^wt(w_i)).
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod

from .ratfun import IntPoly, RatFun
from . import rootsystem


MAX_BOX_POINTS = 10 ** 6  # A7's boxes hold 492 075 entries in all, A8's 16e6


def indices_outside(rs, q_mask):
    """I(Q): 0-based indices of the generators not in Q."""
    return [i for i in range(rs.rank) if not (q_mask >> i) & 1]


def check_boxes(rs, boxes):
    """Refuse to enumerate the residue boxes of the cones on
    {w_i : i in I}, for each index list I in `boxes`, when their entries
    (vectors y), prod_{i in I} d_i each, number over MAX_BOX_POINTS in all."""
    total = sum(prod(rs.cone_depths[i] for i in idx) for idx in boxes)
    if total > MAX_BOX_POINTS:
        raise ValueError(f"{rs.label}: residue boxes of {total} points, "
                         f"over the bound {MAX_BOX_POINTS}")


def parallelepiped_points(rs, indices):
    """Integer points of the fundamental parallelepiped of the cone on
    {w_i : i in indices}, in lexicographic order.  With L = lcm(d_i), the
    sums a, b of y_i (L / d_i) w_i over the two halves of the sorted indices
    meet where b = -a mod L, in the point (a + b) / L: the work is
    prod_{first} d_i + prod_{second} d_i + #points, not prod d_i."""
    idx = sorted(set(indices))
    check_boxes(rs, [idx])
    big = lcm(*(rs.cone_depths[i] for i in idx))
    halves = []
    for part in (idx[:len(idx) // 2], idx[len(idx) // 2:]):
        sums = [(0,) * rs.rank]
        for i in part:
            g = [big // rs.cone_depths[i] * x for x in rs.cone_gens[i]]
            sums = [tuple(s + y * x for s, x in zip(v, g))
                    for v in sums for y in range(rs.cone_depths[i])]
        halves.append(sums)
    by_residue = {}
    for b in halves[1]:
        by_residue.setdefault(tuple(x % big for x in b), []).append(b)
    return sorted(tuple((x + y) // big for x, y in zip(a, b))
                  for a in halves[0]
                  for b in by_residue.get(tuple(-x % big for x in a), ()))


def reciprocity_numerator(rs, q_mask, points=None):
    """The numerator sum_{m in Pi} t^(wt(W) - wt(m)) of f_Q, and the
    weights wt(w_i), i not in Q, of its denominator; the points of the
    half-open parallelepiped Pi are enumerated unless given."""
    idx = indices_outside(rs, q_mask)
    if points is None:
        points = parallelepiped_points(rs, idx)
    weights = [rs.two_rho_weight(rs.cone_gens[i]) for i in idx]
    top = sum(weights)
    coeffs = [0] * (top + 1)
    for m in points:
        coeffs[top - rs.two_rho_weight(m)] += 1
    return IntPoly(coeffs), weights


def f_q(rs, q_mask, points=None):
    """Series of strictly dominant translations with vanishing pattern Q:
    the open cone on {w_i : i not in Q}, by reciprocity over the
    half-open parallelepiped, whose points are enumerated unless given."""
    num, weights = reciprocity_numerator(rs, q_mask, points)
    return RatFun(num, IntPoly.one_minus_t(*weights))


def f_q_closed_form(rs, q_mask):
    """t^(sum of generator weights) over prod (1 - t^weight): equal to
    f_q when every parallelepiped above Q holds only the origin."""
    return f_q(rs, q_mask, [(0,) * rs.rank])


def all_parallelepipeds_trivial(rs):
    """True when the parallelepiped of every cone holds only the origin,
    which makes the closed form of f_q exact."""
    return all(len(parallelepiped_points(rs, indices_outside(rs, q))) == 1
               for q in rs.subsets())


def lattice_walk_counts(rs, q_mask, max_degree):
    """Direct truncated count of coroot-lattice vectors v with
    <alpha_i, v> > 0 for i outside Q, = 0 for i in Q, binned by
    <2 rho, v> up to max_degree.  Independent of the cone machinery:
    scans the coordinate box sum(m) <= max_degree / 2 directly."""
    n = rs.rank
    counts = [0] * (max_degree + 1)
    bound = max_degree // 2
    for m in product(range(bound + 1), repeat=n):
        deg = 2 * sum(m)
        if deg > max_degree:
            continue
        cm = rootsystem.mat_vec(rs.cartan, m)
        ok = all(cm[i] == 0 if (q_mask >> i) & 1 else cm[i] > 0
                 for i in range(n))
        if ok:
            counts[deg] += 1
    return counts
