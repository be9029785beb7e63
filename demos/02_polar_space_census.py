#!/usr/bin/env python3
# Isotropic points and totally isotropic lines: closed-form counts
# against brute enumeration, plus a look at the canonical orders.

from hermgrass import (
    HermitianSpace,
    isotropic_point_count,
    line_count,
    make_field,
)

print("m  q  | points (formula / enumerated) | lines (formula / enumerated)")
for q in (2, 3):
    ctx = make_field(q, 1)
    for m in (4, 5, 6):
        space = HermitianSpace(m, ctx)
        mu = isotropic_point_count(m, q)
        n = line_count(m, q)
        print(
            f"{m}  {q}  | {mu:7d} / {space.num_points:7d}        "
            f"| {n:7d} / {space.num_lines:7d}"
        )
        assert space.num_points == mu and space.num_lines == n

ctx = make_field(2, 1)
space = HermitianSpace(4, ctx)
print("\nfirst isotropic points of the (4,2) space, ascending lex order:")
for row in space.points()[:6]:
    print(" ", tuple(int(x) for x in row))

# line i is the pair of point rows (a_idx[i], b_idx[i]), its RREF basis
a_idx, b_idx = space.line_pair_indices()
a, b = space.points()[a_idx], space.points()[b_idx]
print("\nfirst totally isotropic lines (canonical 2 x 4 RREF bases):")
for i in range(3):
    print(" ", tuple(int(x) for x in a[i]), "|", tuple(int(x) for x in b[i]))
    assert space.inner(a[i], b[i]) == 0
