"""Compare assembled double-coset series with brute-force enumeration.

Usage: python coset_series_vs_oracle.py [label] [max_length]

Every minimal-length representative of a (W_J, W_K)-double coset up to
the length bound is classified by its intersection pattern Q, and the
resulting counts are compared coefficient-for-coefficient with the
closed-form rational series.
"""

import sys

from coxgrowth import build_label, get_pipeline, expand
from coxgrowth.affine import get_affine

label = sys.argv[1] if len(sys.argv) > 1 else "B2"
maxlen = int(sys.argv[2]) if len(sys.argv) > 2 else 12

rs = build_label(label)
pl = get_pipeline(rs)
aff = get_affine(rs)
subs = rs.subsets()
# one pass over the enumeration bins every (J, K) pair at once
cosets, _ = aff.oracle_scan(maxlen, [(j, k) for j in subs for k in subs], [])
# J = K = {} makes every element a minimal representative
print(f"type {label}: {sum(cosets[0, 0][1])} elements up to length "
      f"{maxlen}\n")

for (j, k), (bins, total) in cosets.items():
    series = pl.double_coset_series(j, k)
    ok = expand(series, maxlen) == total
    print(f"J={rs.ids_of(j)!s:8} K={rs.ids_of(k)!s:8} "
          f"^JW~^K(t) = {series}   [{'ok' if ok else 'MISMATCH'}]")
    for q in sorted(bins):
        got = expand(pl.p_full(q, j, k), maxlen)
        assert got == bins[q], (j, k, q)
print("\nall per-Q series match the enumeration")
