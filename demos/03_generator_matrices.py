#!/usr/bin/env python3
# The Pluecker embedding turns each totally isotropic line into a
# projective point; stacking the images as columns gives the
# generator matrix of an [N, K] code with K = C(m, 2).

import numpy as np

from hermgrass import HermitianSpace, build_system, code_params, make_field, pluecker_point
from hermgrass.linalg import rank

print("m  q  |     N      K    d_min")
for m, q in [(4, 2), (5, 2), (6, 2), (7, 2), (4, 3), (5, 3)]:
    cp = code_params(m, q)
    print(f"{m}  {q}  | {cp.n:7d}  {cp.k:4d}  {cp.d_min:8d}")

ctx = make_field(2, 1)
space = HermitianSpace(4, ctx)
system = build_system(space)
print(f"\n(4,2) generator matrix is {system.k} x {system.n}, rank", rank(ctx, system.matrix))
print(np.asarray(system.matrix))

# column j is exactly the normalized Pluecker image of line j
a_idx, b_idx = space.line_pair_indices()
col0 = pluecker_point(ctx, space.points()[[a_idx[0], b_idx[0]]])
assert np.array_equal(col0, system.matrix[:, 0])
print("\ncolumn 0 equals the embedded first line:", [int(x) for x in col0])
