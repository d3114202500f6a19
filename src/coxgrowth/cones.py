"""Lattice points in fundamental parallelepipeds of the dominant cones,
and the growth series f_Q they produce.

The cone attached to a generator subset Q uses the gcd-reduced columns
w_i of a positive multiple of the inverse Cartan matrix, for the indices
i not in Q.  Since C w_i = d_i e_i with d_i > 0, a lattice point m lies
in the half-open parallelepiped of {w_i : i in I} exactly when

    (C m)_j = 0       for j not in I, and
    0 <= (C m)_i < d_i for i in I,

which keeps the membership test in integer arithmetic.  The exponent of
a point m is <2 rho, v> = 2 * sum(m) for the translation v it encodes.
"""

from __future__ import annotations

from itertools import product

from .ratfun import IntPoly, RatFun
from . import rootsystem


def indices_outside(rs, q_mask):
    """I(Q): 0-based indices of the generators not in Q."""
    return [i for i in range(rs.rank) if not (q_mask >> i) & 1]


def parallelepiped_points(rs, indices):
    """Integer points of the fundamental parallelepiped of the cone on
    {w_i : i in indices}, in lexicographic order."""
    n = rs.rank
    idx = sorted(set(indices))
    if not idx:
        return [(0,) * n]
    gens = [rs.cone_gens[i] for i in idx]
    depths = {i: rootsystem.mat_vec(rs.cartan, rs.cone_gens[i])[i]
              for i in idx}
    assert all(d > 0 for d in depths.values())
    # componentwise bound: m_j < sum of the generators' j-th entries
    bounds = [sum(g[j] for g in gens) for j in range(n)]
    points = []
    for m in product(*(range(b) for b in bounds)):
        cm = rootsystem.mat_vec(rs.cartan, m)
        ok = True
        for j in range(n):
            if j in depths:
                if not 0 <= cm[j] < depths[j]:
                    ok = False
                    break
            elif cm[j] != 0:
                ok = False
                break
        if ok:
            points.append(m)
    points.sort()
    assert (0,) * n in points
    return points


def sigma_closed(rs, indices):
    """Growth series of the closed cone on {w_i : i in indices}, graded
    by 2 * sum of coordinates."""
    idx = sorted(set(indices))
    num = IntPoly.zero()
    for m in parallelepiped_points(rs, idx):
        num = num + IntPoly.t_power(rs.two_rho_weight(m))
    den = IntPoly.one()
    for i in idx:
        den = den * IntPoly.one_minus_t(rs.two_rho_weight(rs.cone_gens[i]))
    return RatFun(num, den)


def sigma_open(rs, indices):
    """Growth series of the open cone, by inclusion-exclusion over the
    faces spanned by subsets of the generators."""
    idx = sorted(set(indices))
    d = len(idx)
    acc = RatFun.zero()
    for bits in range(1 << d):
        sub = [idx[i] for i in range(d) if (bits >> i) & 1]
        term = sigma_closed(rs, sub)
        acc = acc + (term if (d - len(sub)) % 2 == 0 else -term)
    return acc


def f_q(rs, q_mask):
    """Series of strictly dominant translations with vanishing pattern Q."""
    return sigma_open(rs, indices_outside(rs, q_mask))


def f_q_closed_form(rs, q_mask):
    """Shortcut valid when every parallelepiped above Q holds only the
    origin: t^(sum of generator weights) over the product of
    (1 - t^weight)."""
    idx = indices_outside(rs, q_mask)
    weights = [rs.two_rho_weight(rs.cone_gens[i]) for i in idx]
    den = IntPoly.one()
    for w in weights:
        den = den * IntPoly.one_minus_t(w)
    return RatFun(IntPoly.t_power(sum(weights)), den)


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
