"""Exact growth series of minimal double-coset representatives in finite
and affine Weyl groups.

Quick start::

    from coxgrowth import build_label, get_pipeline
    rs = build_label("A2")
    pl = get_pipeline(rs)
    pl.group_series()                 # Poincare series of the affine group
    pl.double_coset_series(rs.mask_of([1]), rs.mask_of([2]))

All arithmetic is exact (integer polynomials and canonical rational
functions); every assembled series can be cross-checked against a
brute-force enumeration oracle.
"""

from .ratfun import IntPoly, RatFun, expand, poly_str
from .rootsystem import (RootSystem, build_label, cartan_matrix,
                         parse_label, InvalidTypeError)
from .finite import (GroupTable, get_table, matrix_M, matrix_N, PolyMatrix,
                     identity_checks_finite)
from .affine import AffineWeyl, get_affine
from .cones import (parallelepiped_points, f_q, f_q_closed_form,
                    lattice_walk_counts, all_parallelepipeds_trivial,
                    indices_outside)
from .series import AffinePipeline, get_pipeline

__version__ = "0.1.0"

__all__ = [
    "IntPoly", "RatFun", "expand", "poly_str",
    "RootSystem", "build_label", "cartan_matrix", "parse_label",
    "InvalidTypeError",
    "GroupTable", "get_table", "matrix_M", "matrix_N", "PolyMatrix",
    "identity_checks_finite",
    "AffineWeyl", "get_affine",
    "parallelepiped_points", "f_q", "f_q_closed_form",
    "lattice_walk_counts", "all_parallelepipeds_trivial", "indices_outside",
    "AffinePipeline", "get_pipeline",
    "__version__",
]
