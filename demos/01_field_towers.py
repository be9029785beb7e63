#!/usr/bin/env python3
# A tour of the field layer: GF(q^2) tables, the conjugation x -> x^q,
# and the norm map down to GF(q).

import numpy as np

from hermgrass import make_field

for p, e in [(2, 1), (3, 1), (2, 2)]:
    ctx = make_field(p, e)
    print(f"\n=== {ctx} ===")
    print("subfield GF(q) =", [int(x) for x in ctx.subfield])

    # conjugation is the unique order-2 automorphism fixing GF(q);
    # ctx.frob is its table, indexed by element code
    fixed = [x for x in range(ctx.q2) if ctx.frob[x] == x]
    print("fixed points of x -> x^q:", fixed)
    assert all(ctx.frob[ctx.frob[x]] == x for x in range(ctx.q2))

    # the norm x -> x^(q+1) is onto GF(q), each nonzero value hit q+1 times
    for s in sorted(set(int(v) for v in ctx.norm)):
        print(f"norm fiber over {s}: {int((ctx.norm == s).sum())} elements")

ctx = make_field(2, 1)
print("\nGF(4) multiplication table:")
print(np.asarray(ctx.mul))
