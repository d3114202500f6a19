"""Walk through the whole pipeline on the rank-2 chain type.

Builds the root system, shows the cone data behind the translation
series, assembles the full matrix of affine double-coset series and
checks the group series against a direct enumeration.
"""

from coxgrowth import build_label, get_pipeline, expand
from coxgrowth.affine import get_affine
from coxgrowth.cones import parallelepiped_points, f_q, indices_outside

rs = build_label("A2")
print("Cartan matrix:", rs.cartan)
print("cone generators:", rs.cone_gens)
print()

print("Translation series f_Q, with the parallelepiped points that")
print("produce the numerators:")
for q in rs.subsets():
    pts = parallelepiped_points(rs, indices_outside(rs, q))
    print(f"  Q={rs.ids_of(q)!s:8} points={pts}  f_Q = {f_q(rs, q)}")
print()

pl = get_pipeline(rs)
print("Matrix of affine series p_{Q,J,S} (rows Q, columns J):")
for q in rs.subsets():
    row = [str(pl.p_affine_S(q, j)) for j in rs.subsets()]
    print(f"  Q={rs.ids_of(q)!s:8}", " | ".join(row))
print()

wt = pl.group_series()
print("group growth series:", wt)
print("first coefficients:", expand(wt, 12))

# cross-check against brute force
aff = get_affine(rs)
_, sizes = aff.bfs_enumerate(12)
assert sizes == expand(wt, 12)
print("matches the level sizes of the enumeration up to length 12")
