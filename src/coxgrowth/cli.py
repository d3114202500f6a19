"""Command-line front end.

JSON output is written by the package's own encoder (`_json_pieces`),
byte-identical to `json.dumps(obj, sort_keys=True, indent=2)`, in pieces
of one value two levels down (one f_Q entry, one matrix row), so the
whole document is never held as one string.

Exit codes: 0 success (and all checks passed), 1 computational mismatch
in verify/check/selftest, 2 usage error or an oversized request, 141 the
reader closed stdout (the status a shell gives a writer ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources

from .ratfun import RatFun, IntPoly, expand, poly_str, factored_den_str
from . import rootsystem, cones
from .finite import (check_table_size, get_table, matrix_M, matrix_N,
                     identity_checks_finite)
from .affine import get_affine
from .series import get_pipeline

MAX_DEGREE = 1000   # the largest `check --degree` and `series --expand`

def _parse_ids(s):
    if s is None:
        return None
    ids = []
    for x in s.replace(",", " ").split():
        try:
            ids.append(int(x))
        except ValueError:
            raise ValueError(f"generator id {x!r} is not an integer") from None
    return ids


def _subset_key(rs, mask):
    return ",".join(str(i) for i in rs.ids_of(mask))


def _ratfun_text(r):
    if r.is_polynomial():
        return poly_str(r.num)
    return f"({poly_str(r.num)}) / {factored_den_str(r.den)}"


def _fmt(r, fmt):
    if isinstance(r, IntPoly):
        r = RatFun(r)
    if fmt == "json":
        return r.to_json()
    if fmt == "latex":
        return r.to_latex()
    return _ratfun_text(r)


def _matrix_layout(rs, m, fmt):
    """The rows, columns and entries of a PolyMatrix, in this key order,
    which the text format prints."""
    return {"rows": [rs.ids_of(q) for q in m.rows],
            "cols": [rs.ids_of(j) for j in m.cols],
            "entries": [[_fmt(e, fmt) for e in row] for row in m.entries]}


_FLAT = {int: int.__repr__, str: json.encoder.encode_basestring_ascii}
_str = _FLAT[str]


def _json(v, pad=""):
    """v as json.dumps(v, sort_keys=True, indent=2) writes it, where `pad`
    is the indent of v's closing bracket.  A flat list of ints or of strs
    is one str.join; a bool, None, a float or a key that is not a str
    raises TypeError."""
    t = type(v)
    if t in _FLAT:
        return _FLAT[t](v)
    if t is not list and t is not dict:
        raise TypeError(f"{t.__name__} is not written as JSON")
    pair = "[]" if t is list else "{}"
    if not v:
        return pair
    inner = pad + "  "
    if t is dict:
        body = [_str(k) + ": " + _json(v[k], inner) for k in sorted(v)]
    else:
        kinds = set(map(type, v))
        flat = _FLAT.get(kinds.pop()) if len(kinds) == 1 else None
        body = map(flat, v) if flat else [_json(x, inner) for x in v]
    return (pair[0] + "\n" + inner + (",\n" + inner).join(body) + "\n"
            + pad + pair[1])


def _json_pieces(v, pad="", depth=2):
    """_json(v, pad) in pieces: one per value `depth` levels down and one
    per bracket and key above them, so that the document is never held
    as one string.  A list whose first entry is no list or dict is one
    piece."""
    t = type(v)
    if not (depth and v and (t is dict or t is list
                              and type(v[0]) in (list, dict))):
        yield _json(v, pad)
        return
    inner = pad + "  "
    pair = "[]" if t is list else "{}"
    items = ([(_str(k) + ": ", v[k]) for k in sorted(v)] if t is dict
             else [("", x) for x in v])
    yield pair[0]
    for i, (head, x) in enumerate(items):
        yield (",\n" if i else "\n") + inner + head
        yield from _json_pieces(x, inner, depth - 1)
    yield "\n" + pad + pair[1]


def _emit(obj, fmt):
    if fmt == "json":
        # sys.stdout is read at each call: callers redirect it
        sys.stdout.writelines(_json_pieces(obj))
        sys.stdout.write("\n")
    else:
        _emit_text(obj)


def _emit_text(obj, indent=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v and not _is_flat(v):
                print(f"{indent}{k}:")
                _emit_text(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if _is_flat(v):
                print(f"{indent}{v}")
            else:
                _emit_text(v, indent)
    else:
        print(f"{indent}{obj}")


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _print_report(report, prefix=""):
    """Print one PASS/FAIL line per (name, ok, detail) triple; True when
    every check passed."""
    for name, ok, detail in report:
        print(f"{'PASS' if ok else 'FAIL'} {prefix}{name}"
              + (f": {detail}" if detail else ""))
    return all(ok for _, ok, _ in report)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cartan(args):
    rs = rootsystem.build_label(args.label)
    out = {
        "type": rs.label,
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "det": rs.det_c,
        "positive_roots": len(rs.positive_roots),
        "highest_root": list(rs.highest_root),
        "r": list(rs.two_rho),
        "w": [list(w) for w in rs.cone_gens],
    }
    _emit(out, args.format)
    return 0


def cmd_finite(args):
    rs = rootsystem.build_label(args.type)
    sp = rs.full_mask if args.subset is None else rs.mask_of(
        _parse_ids(args.subset))
    if args.what == "poincare":
        # the closed form gives the order without the table, but a
        # parabolic too large to tabulate is refused all the same
        poincare = check_table_size(rs, sp)
        _emit({"type": rs.label, "subset": rs.ids_of(sp),
               "order": poincare(1),
               "poincare": _fmt(poincare, args.format)},
              args.format)
        return 0
    if args.what in ("pmatrix", "hmatrix"):
        # M_{K,S'} has rows Q within K, N_{J,S'} rows R within J
        name, build = (("K", matrix_M) if args.what == "pmatrix"
                       else ("J", matrix_N))
        mask = rs.mask_of(_parse_ids(getattr(args, name) or ""))
        _emit({"type": rs.label, name: rs.ids_of(mask),
               **_matrix_layout(rs, build(rs, mask, sp), args.format)},
              args.format)
        return 0
    # check
    return 0 if _print_report(identity_checks_finite(rs, sp)) else 1


def cmd_fq(args):
    rs = rootsystem.build_label(args.type)
    masks = (rs.subsets() if args.Q is None
             else [rs.mask_of(_parse_ids(args.Q))])
    cones.check_boxes(rs, [cones.indices_outside(rs, q) for q in masks])
    out = {"type": rs.label, "w": [list(w) for w in rs.cone_gens],
           "f": {}}
    for q in masks:
        pts = cones.parallelepiped_points(rs, cones.indices_outside(rs, q))
        out["f"][_subset_key(rs, q)] = {
            "Q": rs.ids_of(q),
            "parallelepiped": [list(p) for p in pts],
            "series": _fmt(cones.f_q(rs, q, pts), args.format),
        }
    _emit(out, args.format)
    return 0


def cmd_series(args):
    rs = rootsystem.build_label(args.type)
    pl = get_pipeline(rs)
    j = rs.mask_of(_parse_ids(args.J))
    k = rs.mask_of(_parse_ids(args.K))
    if args.Q is not None:
        q = rs.mask_of(_parse_ids(args.Q))
        if q & ~k:
            # the Q-strata of (J, K) exist only for Q within K
            raise ValueError(f"Q={rs.ids_of(q)} is not inside "
                             f"K={rs.ids_of(k)}")
        r = pl.p_full(q, j, k)
    else:
        r = pl.double_coset_series(j, k)
    out = {"type": rs.label, "J": rs.ids_of(j), "K": rs.ids_of(k),
           "series": _fmt(r, args.format)}
    if args.Q is not None:
        out["Q"] = rs.ids_of(q)
    if args.expand is not None:
        out["expansion"] = expand(r, args.expand)
    _emit(out, args.format)
    return 0


def cmd_matrix(args):
    rs = rootsystem.build_label(args.type)
    m = get_pipeline(rs).matrix_M_affine()
    _emit({"type": rs.label, **_matrix_layout(rs, m, args.format)},
          args.format)
    return 0


def cmd_oracle(args):
    rs = rootsystem.build_label(args.type)
    aff = get_affine(rs)
    j = rs.mask_of(_parse_ids(args.J))
    k = rs.mask_of(_parse_ids(args.K))
    bins, total = aff.oracle_series(j, k, args.max_length)
    out = {"type": rs.label, "J": rs.ids_of(j), "K": rs.ids_of(k),
           "max_length": args.max_length,
           "bins": {_subset_key(rs, q): c for q, c in sorted(bins.items())},
           "total": total}
    _emit(out, args.format)
    return 0


def cmd_verify(args):
    rs = rootsystem.build_label(args.type)
    report = get_pipeline(rs).verify_against_oracle(args.max_length)
    return 0 if _print_report(report) else 1


def cmd_check(args):
    rs = rootsystem.build_label(args.type)
    pl = get_pipeline(rs)   # refuses an oversized pipeline before the suites
    ok = _print_report(identity_checks_finite(rs), "finite ")
    report = pl.affine_identity_checks(args.degree)
    ok = _print_report(report, "affine ") and ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# fixture self-test


def _load_fixtures():
    base = resources.files("coxgrowth").joinpath("fixtures")
    out = {}
    for entry in sorted(base.iterdir()):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = json.loads(entry.read_text())
    return out


def _mask_from_key(rs, key):
    return rs.mask_of([int(x) for x in key.split(",")] if key else [])


def check_fixture(name, fx):
    """Recompute everything a fixture pins down.  Returns a list of
    (item, ok) pairs."""
    rs = rootsystem.build_label(fx["label"])
    results = []

    if "cone_gens" in fx:
        want = [tuple(w) for w in fx["cone_gens"]]
        results.append(("cone-generators", list(rs.cone_gens) == want))
    if "weights" in fx:
        got = [rs.two_rho_weight(w) for w in rs.cone_gens]
        results.append(("generator-weights", got == fx["weights"]))
    for key, pts in fx.get("pi_points", {}).items():
        q = _mask_from_key(rs, key)
        got = cones.parallelepiped_points(rs, cones.indices_outside(rs, q))
        want = sorted(tuple(p) for p in pts)
        results.append((f"parallelepiped[{key or 'empty'}]", got == want))
    if fx.get("all_pi_trivial"):
        ok = cones.all_parallelepipeds_trivial(rs)
        results.append(("parallelepipeds-trivial", ok))
        ok = all(cones.f_q(rs, q) == cones.f_q_closed_form(rs, q)
                 for q in rs.subsets())
        results.append(("closed-form-f", ok))
    for key, val in fx.get("f", {}).items():
        q = _mask_from_key(rs, key)
        want = RatFun.from_json(val)
        results.append((f"f[{key or 'empty'}]",
                        cones.f_q(rs, q) == want))
    if "M_S" in fx:
        pl = get_pipeline(rs)
        subs = rs.subsets()
        ok = True
        for i, qk in enumerate(fx["M_S"]["rows"]):
            for jdx, jk in enumerate(fx["M_S"]["cols"]):
                want = RatFun.from_json(fx["M_S"]["entries"][i][jdx])
                got = pl.p_affine_S(_mask_from_key(rs, qk),
                                    _mask_from_key(rs, jk))
                if got != want:
                    ok = False
        if [_mask_from_key(rs, k) for k in fx["M_S"]["rows"]] != subs:
            raise AssertionError(f"{name}: M_S rows are not the subsets "
                                 "in ascending order")
        results.append(("full-series-matrix", ok))
    for key, data in fx.get("M_K", {}).items():
        k = _mask_from_key(rs, key)
        table = get_table(rs)
        ok = True
        for i, qk in enumerate(data["rows"]):
            for jdx, jk in enumerate(data["cols"]):
                want = RatFun.from_json(data["entries"][i][jdx])
                got = RatFun(table.p_poly(_mask_from_key(rs, qk),
                                          _mask_from_key(rs, jk), k))
                if got != want:
                    ok = False
        results.append((f"coset-matrix[{key or 'empty'}]", ok))
    return results


def run_selftest():
    all_ok = True
    for name, fx in _load_fixtures().items():
        report = [(item, ok, "") for item, ok in check_fixture(name, fx)]
        all_ok = _print_report(report, f"{name}:") and all_ok
    for label in ["A2", "C2", "G2"]:
        rs = rootsystem.build_label(label)
        all_ok = (_print_report(identity_checks_finite(rs),
                                f"{label}:finite-") and all_ok)
    rs = rootsystem.build_label("A2")
    report = get_pipeline(rs).affine_identity_checks(12)
    return _print_report(report, "A2:affine-") and all_ok


def cmd_selftest(args):
    return 0 if run_selftest() else 1


# ---------------------------------------------------------------------------


def _non_negative_int(text):
    """argparse type: an int >= 0, so that a negative length or degree is
    a usage error (exit 2) before anything is computed."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every
    later command in the process."""
    p = argparse.ArgumentParser(
        prog="growth",
        description="Exact growth series of double-coset representatives "
                    "in finite and affine Weyl groups.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_fmt(sp):
        sp.add_argument("--format", choices=["text", "json", "latex"],
                        default="text")

    sp = sub.add_parser("cartan", help="root system data for a type label")
    sp.add_argument("label")
    add_fmt(sp)
    sp.set_defaults(func=cmd_cartan)

    sp = sub.add_parser("finite", help="finite Weyl group series")
    sp.add_argument("--type", required=True)
    sp.add_argument("--subset", help="generator ids of the parabolic")
    sp.add_argument("--what", default="poincare",
                    choices=["poincare", "pmatrix", "hmatrix", "check"])
    sp.add_argument("--K", help="generator ids for pmatrix rows")
    sp.add_argument("--J", help="generator ids for hmatrix rows")
    add_fmt(sp)
    sp.set_defaults(func=cmd_finite)

    sp = sub.add_parser("fq", help="dominant translation series f_Q")
    sp.add_argument("--type", required=True)
    sp.add_argument("--Q", help="generator ids (omit for all subsets)")
    add_fmt(sp)
    sp.set_defaults(func=cmd_fq)

    sp = sub.add_parser("series", help="affine double-coset series")
    sp.add_argument("--type", required=True)
    sp.add_argument("--J", required=True)
    sp.add_argument("--K", required=True)
    sp.add_argument("--Q")
    sp.add_argument("--expand", type=_non_negative_int)
    add_fmt(sp)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("matrix", help="full matrix of affine series")
    sp.add_argument("--type", required=True)
    add_fmt(sp)
    sp.set_defaults(func=cmd_matrix)

    sp = sub.add_parser("oracle", help="brute-force enumeration bins")
    sp.add_argument("--type", required=True)
    sp.add_argument("--J", required=True)
    sp.add_argument("--K", required=True)
    sp.add_argument("--max-length", type=_non_negative_int, required=True)
    add_fmt(sp)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("verify",
                        help="compare assembled series with enumeration")
    sp.add_argument("--type", required=True)
    sp.add_argument("--max-length", type=_non_negative_int, required=True)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("check", help="run the identity suites")
    sp.add_argument("--type", required=True)
    sp.add_argument("--degree", type=_non_negative_int, default=20)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("selftest", help="recompute the bundled fixtures")
    sp.set_defaults(func=cmd_selftest)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for option in ("degree", "expand"):
            if (getattr(args, option, None) or 0) > MAX_DEGREE:
                raise ValueError(f"--{option} {getattr(args, option)} is "
                                 f"over the degree bound {MAX_DEGREE}")
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, which is no mismatch: point stdout at
        # os.devnull so that the flush at shutdown prints nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (rootsystem.InvalidTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
