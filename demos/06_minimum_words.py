#!/usr/bin/env python3
# Minimum-weight machinery: per-rank lower bounds, certified witness
# constructions, and the structural test for minimum words.

from math import ceil

import numpy as np

from hermgrass import (
    AlternatingForm,
    HermitianSpace,
    bound_table,
    build_system,
    check_min_weight_profile,
    code_params,
    make_field,
    make_rank2_cone_form,
    min_distance,
    min_word_witness,
    radical_profile,
    weight_direct,
)

ctx = make_field(2, 1)

for m in (5, 6):
    space = HermitianSpace(m, ctx)
    system = build_system(space)
    params = code_params(m, 2)
    print(f"\n=== m = {m}, q = 2: [N, K, d] = [{params.n}, {params.k}, {params.d_min}] ===")

    table = bound_table(m, 2)
    print("rank stratum bounds (i, zero-class bound, weight bound):")
    for row in table.rows:
        print(f"  i={row.i}: xi={row.xi:5d}  d_i >= {ceil(row.d_lower)}")

    cone = make_rank2_cone_form(space)
    w = weight_direct(cone, system)
    prof = radical_profile(space, cone.radical)
    print(f"rank-2 cone form: weight {w}, radical profile {prof.label}")

    kind, witness = min_word_witness(space)
    wd = weight_direct(witness, system)
    print(f"minimum-word witness: {kind}, weight {wd}")
    print("minimum-word structure check:", *check_min_weight_profile(witness, space, wd))

    if m == 5:
        # the second m = 5 shape: rank 4, the radical the non-isotropic
        # point e_0, and a permutable form on its perp
        s = np.zeros((m, m), dtype=np.uint8)
        s[1, 2] = s[3, 4] = 1
        s[2, 1] = s[4, 3] = ctx.neg[1]
        rank4 = AlternatingForm(ctx, s)
        w4 = weight_direct(rank4, system)
        print(f"rank-4 form, radical e_0: weight {w4}")
        print("minimum-word structure check:", *check_min_weight_profile(rank4, space, w4))

    d, cert = min_distance(system, strategy="construct+sample", seed=7, samples=20_000)
    print(
        f"min_distance(construct+sample): d = {d}, witness = {cert['witness_kind']}, "
        f"sampled minimum = {cert['sample_min_weight']}"
    )
