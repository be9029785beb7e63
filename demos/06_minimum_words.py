#!/usr/bin/env python3
# Minimum-weight machinery: per-rank lower bounds, certified witness
# constructions, and the structural test for minimum words.

from math import ceil

from hermgrass import (
    HermitianSpace,
    bound_table,
    build_system,
    check_min_weight_profile,
    code_params,
    make_field,
    make_permutable_form,
    make_rank2_cone_form,
    min_distance,
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
    print(f"rank-2 cone witness: weight {w}, radical profile {prof.label}")

    if m in (4, 6):
        perm = make_permutable_form(space)
        wp = weight_direct(perm, system)
        print(f"permutable witness: weight {wp} (this is d_min for m = {m})")
        ok, why = check_min_weight_profile(perm, space, wp)
    else:
        ok, why = check_min_weight_profile(cone, space, w)
    print("minimum-word structure check:", ok, "|", why)

    d, cert = min_distance(system, strategy="construct+sample", seed=7, samples=20_000)
    print(
        f"min_distance(construct+sample): d = {d}, witness = {cert['witness_kind']}, "
        f"sampled minimum = {cert['sample_min_weight']}"
    )
