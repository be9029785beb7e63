"""Acceptance suite.

One test per top-level claim; each prints a PASS line with the
numbers it verified (run pytest with -s to see them).  All arithmetic
is exact, so every comparison is equality unless a bound is involved.
"""

import itertools

import numpy as np
import pytest

import hermgrass as hg
from hermgrass import classify, code, counts, linalg, polar


def _gaussian_binomial(n, k, qq):
    num = den = 1
    for t in range(k):
        num *= qq ** (n - t) - 1
        den *= qq ** (k - t) - 1
    assert num % den == 0
    return num // den


def test_criterion_1_golden_exhaustive_52(system52):
    rep = code.spectrum(system52, mode="exhaustive")
    assert rep.forms_scanned == 4**10 == 1_048_576
    assert sum(rep.histogram.values()) == 4**10
    assert sorted(rep.histogram) == [0, 192, 216, 224, 232, 256]
    assert rep.histogram[0] == 1
    assert rep.histogram[192] == 24948
    assert rep.min_nonzero_weight == 192

    # Independent oracle for the radical split of the 24948 minimum
    # words.  A rank-2 form is q^2 - 1 scalar multiples of a kernel,
    # so the count of minimum words with a 3-dimensional radical is
    # 3 x (number of 3-spaces cutting a vertex-1 cone).  That count
    # follows from an incidence double count over all 3-spaces:
    # 9 t0 + 13 t1 + 5 t2 = 165 * [4 choose 2], t0 + t1 + t2 = [5 choose 3],
    # t2 = number of totally isotropic 2-spaces = 297.
    threespaces = _gaussian_binomial(5, 3, 4)
    through_point = _gaussian_binomial(4, 2, 4)
    incidences = 165 * through_point
    t2 = counts.line_count(5, 2)
    t1 = (incidences - 5 * t2 - 9 * (threespaces - t2)) // 4
    assert t1 == 1980
    rank2_min = 3 * t1
    assert rep.min_weight_radical_dims == {3: rank2_min, 1: 24948 - rank2_min}
    # keyed in order of first occurrence by counter index, as verify prints it
    assert list(rep.min_weight_radical_dims.items()) == [(3, 5940), (1, 19008)]
    print(
        "PASS criterion 1: (5,2) exhaustive weights {0,192,216,224,232,256}, "
        f"24948 at 192, radical split dim3={rank2_min} dim1={24948 - rank2_min} "
        f"in {rep.wall_time_s:.1f}s"
    )



def test_exhaustive_enumerator_44():
    # The whole weight enumerator over GF(16): 16^6 forms.
    ctx = hg.make_field(2, 2)
    system = hg.build_system(hg.HermitianSpace(4, ctx))
    params = counts.code_params(4, 4)
    assert (system.n, system.k, params.d_min) == (325, 6, 240)
    rep = code.spectrum(system, mode="exhaustive")
    hist, n, k, Q = rep.histogram, system.n, system.k, ctx.q2
    assert rep.forms_scanned == sum(hist.values()) == Q**k
    assert sum(w * a for w, a in hist.items()) == n * (Q - 1) * Q ** (k - 1)
    assert sum(w * w * a for w, a in hist.items()) == (
        (Q - 1) * Q ** (k - 2) * n * (Q + (n - 1) * (Q - 1))
    )
    assert rep.min_nonzero_weight == params.d_min == 240
    assert hist == {
        0: 1, 240: 15600, 256: 4875, 300: 5091840, 304: 3978000, 308: 7488000, 320: 198900,
    }
    assert rep.min_weight_example == [0, 0, 1, 1, 0, 0]
    assert sum(rep.min_weight_radical_dims.values()) == 15600
    witness = code.AlternatingForm.from_upper(ctx, 4, rep.min_weight_example)
    assert code.weight_direct(witness, system) == 240
    print(
        f"PASS (4,4) enumerator: {Q**k} forms, d_min 240 x {hist[240]}, "
        f"radical split {rep.min_weight_radical_dims} in {rep.wall_time_s:.1f}s"
    )

@pytest.mark.parametrize("m,q", [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (4, 3), (5, 3)])
def test_criterion_2_counts_and_rank(request, m, q):
    ctx = hg.make_field(q, 1)
    fixture = {
        (4, 2): "space42",
        (5, 2): "space52",
        (6, 2): "space62",
        (7, 2): "space72",
        (8, 2): "space82",
        (4, 3): "space43",
        (5, 3): "space53",
    }[(m, q)]
    space = request.getfixturevalue(fixture)
    mu = counts.isotropic_point_count(m, q)
    n = counts.line_count(m, q)
    k = m * (m - 1) // 2
    assert space.num_points == mu
    assert space.num_lines == n
    system = hg.build_system(space)  # raises unless rank == K
    assert system.k == k and system.n == n
    assert linalg.rank(ctx, system.matrix[:, : min(n, 200_000)]) == k
    print(f"PASS criterion 2 ({m},{q}): {mu} points, {n} lines, generator rank {k}")


@pytest.mark.parametrize(
    "fixture,expect,total",
    [("system42", 12, 4**6), ("system43", 72, 9**6)],
)
def test_criterion_3_exhaustive_minimum_distance(request, fixture, expect, total):
    system = request.getfixturevalue(fixture)
    d, cert = code.min_distance(system, strategy="exhaustive")
    assert d == expect
    assert cert["forms_scanned"] == total
    witness = code.AlternatingForm.from_upper(system.ctx, system.space.m, cert["witness_upper"])
    assert code.weight_direct(witness, system) == expect
    print(
        f"PASS criterion 3 ({system.space.m},{system.ctx.q}): "
        f"exhaustive d_min = {d} over {total} forms"
    )


def test_criterion_4_constructed_witnesses(
    space52, system52, space62, system62, space43, system43, space72
):
    q = 2
    perm62 = hg.make_permutable_form(space62)
    w = code.weight_direct(perm62, system62)
    assert w == q**12 - q**6 == 4032
    perm43 = hg.make_permutable_form(space43)
    assert code.weight_direct(perm43, system43) == 3**4 - 3**2 == 72

    cone52 = hg.make_rank2_cone_form(space52)
    assert code.weight_direct(cone52, system52) == q**8 - q**6 == 192
    system72 = hg.build_system(space72)
    cone72 = hg.make_rank2_cone_form(space72)
    w72 = code.weight_direct(cone72, system72)
    assert w72 == q**16 - q**12 == 61440

    cone62 = hg.make_rank2_cone_form(space62)
    assert code.weight_direct(cone62, system62) == q**12 == 4096

    rep = code.spectrum(system62, mode="sample", seed=20240901, samples=100_000)
    assert rep.forms_scanned == 100_000
    assert rep.min_nonzero_weight >= 4032
    print(
        "PASS criterion 4: witnesses 4032 (6,2 permutable), 72 (4,3 permutable), "
        "192 (5,2 rank-2), 61440 (7,2 rank-2), 4096 (6,2 rank-2); "
        f"100000-form sample minimum {rep.min_nonzero_weight} >= 4032"
    )


def _scan_forms(space, system, forms):
    """Cross-check every weight route and collect per-form records."""
    records = []
    values = set(counts.point_weight_values(space.m, space.ctx.q))
    mu = counts.isotropic_point_count(space.m, space.ctx.q)
    conservation_total = (space.ctx.q2 - 1) * mu
    for phi in forms:
        wd = code.weight_direct(phi, system)
        wr = code.weight_recursive(phi, space)
        rep = classify.classify_points(phi, space, system)
        per_point = code.point_weights(phi, space)
        assert wd == wr == rep.weight_from_counts
        assert rep.A + rep.B + rep.C == conservation_total
        assert set(int(x) for x in np.unique(per_point)) <= values
        records.append((phi.rank // 2, wd))
    return records


def _seeded_forms(ctx, m, count, seed):
    rng = np.random.default_rng(seed)
    k = m * (m - 1) // 2
    out = []
    while len(out) < count:
        upper = rng.integers(0, ctx.q2, size=k, dtype=np.uint8)
        if upper.any():
            out.append(code.AlternatingForm.from_upper(ctx, m, upper))
    return out


@pytest.fixture(scope="module")
def scan_records(space42, system42, space52, system52, space62, system62, space53, system53):
    records = {}
    ctx42 = space42.ctx
    nonzero42 = itertools.islice(itertools.product(range(ctx42.q2), repeat=6), 1, None)
    all42 = [code.AlternatingForm.from_upper(ctx42, 4, up) for up in nonzero42]
    records[(4, 2)] = _scan_forms(space42, system42, all42)
    records[(5, 2)] = _scan_forms(space52, system52, _seeded_forms(space52.ctx, 5, 1000, 501))
    records[(6, 2)] = _scan_forms(space62, system62, _seeded_forms(space62.ctx, 6, 1000, 601))
    records[(5, 3)] = _scan_forms(space53, system53, _seeded_forms(space53.ctx, 5, 1000, 531))
    return records


def test_criterion_5_weight_route_equivalence(scan_records):
    assert len(scan_records[(4, 2)]) == 4**6 - 1
    for key in ((5, 2), (6, 2), (5, 3)):
        assert len(scan_records[key]) == 1000
    print(
        "PASS criterion 5: direct = recursive = class-count weights on all 4095 "
        "nonzero (4,2) forms and 1000 seeded forms at each of (5,2), (6,2), (5,3)"
    )


def test_criterion_6_conservation_and_case_values(scan_records):
    total = sum(len(v) for v in scan_records.values())
    print(
        f"PASS criterion 6: class-size conservation and per-point case values "
        f"verified inside criterion 5 scans ({total} forms)"
    )


def test_criterion_7_bound_machinery(scan_records):
    second_expect = {6: 1, 7: 3, 8: 4, 9: 4, 10: 5}
    for q in (2, 3, 4, 5):
        for m in range(4, 21):
            table = counts.bound_table(m, q)
            maxima = table.max_indices()
            if m in (4, 6):
                assert maxima == [m // 2], (m, q, maxima)
            elif m == 5:
                assert sorted(maxima) == [1, 2], (m, q, maxima)
            else:
                assert maxima == [1], (m, q, maxima)
            if m >= 6:
                expect = second_expect.get(m, 2)
                assert table.second_index() == expect, (m, q)
    checked = 0
    for (m, q), records in scan_records.items():
        for i, weight in records:
            assert weight >= counts.stratum_weight_bound(m, i, q)
            checked += 1
    print(
        "PASS criterion 7: bound orderings for m in 4..20, q in {2,3,4,5}; "
        f"per-rank weight bounds hold on {checked} scanned forms"
    )
