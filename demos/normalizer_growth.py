"""Growth series of parabolic normalizers in affine Weyl groups.

For each proper subset J of the finite generators, the normalizer of
W_J in the affine group grows like W_J(t) * p_{J,J,J}(t).  The script
tabulates these series for a few types and confirms the first
coefficients against a direct enumeration.
"""

from coxgrowth import build_label, get_pipeline, expand
from coxgrowth.affine import get_affine

for label in ["A1", "A2", "B2", "G2"]:
    rs = build_label(label)
    pl = get_pipeline(rs)
    aff = get_affine(rs)
    print(f"type {label}")
    for j in rs.subsets():
        series = pl.normalizer_series(j)
        got = expand(series, 12)
        want = aff.oracle_scan(12, [], [j])[1][j]
        tag = "ok" if got == want else "MISMATCH"
        print(f"  J={rs.ids_of(j)!s:8} N(W_J)(t) = {series}   [{tag}]")
    print()
