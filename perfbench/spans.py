"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public entry points of each coxgrowth
module with wrappers that record a span per call: name, start, end,
parent span and run id.  A function imported by name into another module
(`from .finite import get_table`) is a separate binding, so every binding
of the same object, in every coxgrowth module and class, is replaced.
Spans stay in memory until `write()`.

Hot helpers called millions of times per job (`rootsystem.mat_vec`,
`IntPoly` arithmetic, `AffineWeyl.length`, ...) are not wrapped: their
time counts as self time of the traced function that calls them.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("ratfun", "rootsystem", "finite", "cones", "series", "affine",
          "cli")


def _points_key(args):
    rs, indices = args[0], args[1]
    return (id(rs), tuple(sorted(set(indices))))


def _method_key(args):
    return (id(args[0]),) + tuple(args[1:])


# (module, attribute path, span name, distinct-key function)
TARGETS = [
    ("ratfun", "poly_gcd", "ratfun.gcd", None),
    ("ratfun", "poly_exact_div", "ratfun.exact_div", None),
    ("ratfun", "RatFun.__init__", "ratfun.normalize", None),
    ("ratfun", "RatFun.__add__", "ratfun.arith", None),
    ("ratfun", "RatFun.__sub__", "ratfun.arith", None),
    ("ratfun", "RatFun.__mul__", "ratfun.arith", None),
    ("ratfun", "RatFun.__truediv__", "ratfun.arith", None),
    ("ratfun", "RatFun.__eq__", "ratfun.arith", None),
    ("ratfun", "expand", "ratfun.expand", None),
    ("ratfun", "factored_den", "ratfun.factored_den", None),
    ("rootsystem", "RootSystem.__init__", "rootsystem.build", None),
    ("finite", "GroupTable.__init__", "finite.table", None),
    ("finite", "GroupTable.p_poly", "finite.p_poly", _method_key),
    ("finite", "GroupTable.h_poly", "finite.h_poly", _method_key),
    ("finite", "PolyMatrix.__matmul__", "finite.matmul", None),
    ("finite", "matrix_M", "finite.matrix", None),
    ("finite", "matrix_N", "finite.matrix", None),
    ("finite", "identity_checks_finite", "finite.checks", None),
    ("cones", "parallelepiped_points", "cones.points", _points_key),
    ("cones", "sigma_closed", "cones.sigma", None),
    ("cones", "sigma_open", "cones.sigma", None),
    ("cones", "f_q", "cones.f_q", None),
    ("series", "AffinePipeline.__init__", "series.pipeline", None),
    ("series", "AffinePipeline.p_ss", "series.p_ss", None),
    ("series", "AffinePipeline.p_affine_S", "series.p_affine_S", None),
    ("series", "AffinePipeline.matrix_M_affine", "series.matrix", None),
    ("series", "AffinePipeline.p_full", "series.p_full", None),
    ("series", "AffinePipeline.double_coset_series", "series.double_coset",
     None),
    ("series", "AffinePipeline.normalizer_series", "series.normalizer",
     None),
    ("series", "AffinePipeline.affine_identity_checks", "series.checks",
     None),
    ("series", "AffinePipeline.verify_against_oracle", "series.verify",
     None),
    ("affine", "AffineWeyl.__init__", "affine.init", None),
    ("affine", "AffineWeyl.bfs_enumerate", "affine.bfs", None),
    ("affine", "AffineWeyl.classify", "affine.classify", None),
    ("affine", "AffineWeyl.normalizes", "affine.normalizes", None),
    ("affine", "AffineWeyl.oracle_series", "affine.oracle", None),
    ("affine", "AffineWeyl.normalizer_counts", "affine.oracle", None),
    ("affine", "AffineWeyl.parabolic_poincare", "affine.parabolic", None),
    ("cli", "main", "cli.main", None),
]


class Tracer:
    """Span recorder for one job (one run id)."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_idx = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.distinct = defaultdict(set)
        self.gcd_nontrivial = 0
        self.bfs_elements = 0
        self.wrapped = []

    def _name_id(self, name):
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name, fn, key=None):
        name_id = self._name_id(name)
        names, starts, ends, parents = (self.name, self.start, self.end,
                                        self.parent)
        stack = self._stack
        clock = time.perf_counter
        distinct = self.distinct[name]
        after = {"ratfun.gcd": self._after_gcd,
                 "affine.bfs": self._after_bfs}.get(name)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if key is not None:
                distinct.add(key(args))
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after_gcd(self, g):
        if g.degree > 0:
            self.gcd_nontrivial += 1

    def _after_bfs(self, result):
        self.bfs_elements += len(result[0])

    def install(self):
        """Wrap every binding of every target.  Returns the targets that
        could not be found, as "module.attribute" strings."""
        modules = {m: importlib.import_module(f"coxgrowth.{m}")
                   for m in LAYERS}
        owners = [mod for name, mod in sys.modules.items()
                  if name == "coxgrowth" or name.startswith("coxgrowth.")]
        owners += [v for mod in list(owners) for v in vars(mod).values()
                   if isinstance(v, type)
                   and v.__module__.startswith("coxgrowth")]
        missing = []
        for mod, path, name, key in TARGETS:
            obj = modules[mod]
            try:
                for part in path.split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                missing.append(f"{mod}.{path}")
                continue
            wrapped = self.wrap(name, obj, key)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is obj:
                        setattr(owner, attr, wrapped)
                        self.wrapped.append((owner, attr, obj))
        return missing

    def unwrapped_bindings(self):
        """Bindings in coxgrowth modules that still refer to an original
        target function; empty when the wiring is complete."""
        originals = {id(orig) for _, _, orig in self.wrapped}
        left = []
        for name, mod in sys.modules.items():
            if name == "coxgrowth" or name.startswith("coxgrowth."):
                for attr, value in vars(mod).items():
                    if id(value) in originals:
                        left.append(f"{name}.{attr}")
        return left

    def summary(self):
        """Per span name: calls, total seconds, self seconds (duration minus
        the time its child spans cover), plus the time covered by root
        spans."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        root_s = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root_s += dur[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            total[k] += dur[i]
            self_s[k] += dur[i] - child[i]
        spans = {name: {"calls": calls[k], "total_s": total[k],
                        "self_s": self_s[k],
                        "distinct": len(self.distinct[name])}
                 for k, name in enumerate(self.names)}
        return {"spans": spans, "root_s": root_s,
                "gcd_nontrivial": self.gcd_nontrivial,
                "bfs_elements": self.bfs_elements}

    def write(self, path):
        """Write every span as a tab-separated line:
        run id, name, start, end, parent index (-1 for a root span)."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("run_id\tname\tstart\tend\tparent\n")
            names, rid = self.names, self.run_id
            for i in range(len(self.start)):
                f.write(f"{rid}\t{names[self.name[i]]}\t{self.start[i]:.9f}"
                        f"\t{self.end[i]:.9f}\t{self.parent[i]}\n")
