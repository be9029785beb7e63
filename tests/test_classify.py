import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import hermgrass as hg
from hermgrass import classify, cli, code, counts, linalg, polar


def _symplectic_block(ctx, m):
    """Block-diagonal standard symplectic matrix; for odd m the first
    coordinate is left out, so the radical is the point e_0."""
    s = np.zeros((m, m), dtype=np.uint8)
    for b in range(m % 2, m, 2):
        s[b, b + 1] = 1
        s[b + 1, b] = ctx.neg[1]
    return code.AlternatingForm(ctx, s)


def _field(q):
    return hg.make_field(*next((p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3) if p**e == q))


def _image(phi, space, x):
    """Normalized polar image of the point [x]; None in the radical."""
    kernel_mask, y, _ = classify._images(phi, space, np.asarray(x, dtype=np.uint8).reshape(1, -1))
    return None if kernel_mask[0] else y[0]


def test_polar_image_kernel_and_symplectic(space42):
    ctx = space42.ctx
    phi = _symplectic_block(ctx, 4)
    e0 = np.array([1, 0, 0, 0], dtype=np.uint8)
    img = _image(phi, space42, e0)
    assert np.array_equal(img, np.array([0, 1, 0, 0], dtype=np.uint8))
    # involution: prime-subfield S with S^2 = -I acts projectively as identity
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.integers(0, 4, size=4, dtype=np.uint8)
        if not x.any():
            continue
        y = _image(phi, space42, x)
        z = _image(phi, space42, y)
        lead = np.nonzero(x)[0][0]
        xn = ctx.mul[ctx.inv[x[lead]], x]
        assert np.array_equal(z, xn)


def test_polar_image_kernel_case(space52):
    phi = hg.make_rank2_cone_form(space52)
    rad = phi.radical
    assert _image(phi, space52, rad[0]) is None


def _composition_image(phi, space, x):
    """Oracle: the pole under the Hermitian form of the polar hyperplane
    of [x] under phi, by an explicit kernel then perp; None in the radical."""
    ctx = space.ctx
    # x^T S, the rows x_i S[i] summed with ctx.add; its kernel is the polar hyperplane
    row = functools.reduce(lambda acc, r: ctx.add[acc, r], ctx.mul[x[:, None], phi.s])
    if not row.any():
        return None
    pole = polar.perp(space, linalg.kernel(ctx, row.reshape(1, -1)))
    assert len(pole) == 1
    lead = np.nonzero(pole[0])[0][0]
    return ctx.mul[ctx.inv[pole[0][lead]], pole[0]]


@pytest.mark.parametrize("m,q", [(5, 2), (4, 3)], ids=["identity-5-2", "identity-4-3"])
def test_polar_image_general_composition_oracle(m, q):
    """The one-expression image must match an explicit perp-then-perp
    composition."""
    space = hg.HermitianSpace(m, hg.make_field(q, 1))
    ctx = space.ctx
    rng = np.random.default_rng(9)
    for _ in range(10):
        up = rng.integers(0, ctx.q2, size=m * (m - 1) // 2, dtype=np.uint8)
        if not up.any():
            continue
        phi = code.AlternatingForm.from_upper(ctx, m, up)
        for x in space.points()[rng.integers(0, space.num_points, size=3)]:
            img = _image(phi, space, x)
            expect = _composition_image(phi, space, x)
            if expect is None:
                assert img is None
            else:
                assert np.array_equal(img, expect)
    # the radical of a rank-2 form is the kernel of the map
    if m >= 5:
        cone = hg.make_rank2_cone_form(space)
        assert _image(cone, space, cone.radical[0]) is None
        assert _composition_image(cone, space, cone.radical[0]) is None


def test_point_classes_and_fixed_points_match_oracle_loop(space52, system52, seeded_forms):
    """On the (5,2) space, the point classes and the fixed point count
    equal a per-point loop of the composition oracle."""
    space = space52
    for phi in seeded_forms(space.ctx, 5, 61, 3):
        labels = []
        for x in space.points():
            y = _composition_image(phi, space, x)
            if y is None or np.array_equal(y, x):
                labels.append(classify.ZERO_CLASS)
            elif space.inner(y, y) == 0:
                labels.append(classify.TANGENT_CLASS)
            else:
                labels.append(classify.SECANT_CLASS)
        assert classify.point_classes(phi, space).tolist() == labels
        fixed = 0
        for x in space.all_points():
            y = _composition_image(phi, space, x)
            fixed += y is not None and np.array_equal(y, x)
        assert classify.classify_points(phi, space, system52).fix_count == fixed


def test_point_classes_match_point_weight_cases(space52, system52):
    ctx = space52.ctx
    zero_v, secant_v, tangent_v = counts.point_weight_values(5, 2)
    rng = np.random.default_rng(20)
    for _ in range(15):
        up = rng.integers(0, 4, size=10, dtype=np.uint8)
        if not up.any():
            continue
        phi = code.AlternatingForm.from_upper(ctx, 5, up)
        labels = classify.point_classes(phi, space52)
        vals = code.point_weights(phi, space52)
        assert np.all(vals[labels == classify.ZERO_CLASS] == zero_v)
        assert np.all(vals[labels == classify.SECANT_CLASS] == secant_v)
        assert np.all(vals[labels == classify.TANGENT_CLASS] == tangent_v)


def test_zero_form_has_no_classification(space42):
    zero = code.AlternatingForm(space42.ctx, np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        classify.point_classes(zero, space42)


def test_classification_reports(space42, system42, space43, system43):
    rep = classify.classify_points(hg.make_permutable_form(space42), space42, system42)
    assert (rep.A, rep.B, rep.C) == (45, 0, 90)
    assert rep.fix_count == 15
    assert rep.rad_dim == 0
    assert rep.weight_from_counts == rep.weight_direct == 12
    assert rep.checks == {"conservation": True, "weight_agreement": True}
    rep3 = classify.classify_points(hg.make_permutable_form(space43), space43, system43)
    assert (rep3.A, rep3.B) == (320, 0)
    assert rep3.weight_direct == 72


def test_weight_from_class_counts(ctx2):
    mu = counts.isotropic_point_count(4, 2)
    total = 3 * mu
    assert counts.weight_from_class_counts(4, 2, total, 0, 0) == 0
    assert counts.weight_from_class_counts(4, 2, 45, 0, 90) == 12
    with pytest.raises(ValueError):
        counts.weight_from_class_counts(4, 2, 1, 2, 3)
    with pytest.raises(ValueError):
        counts.weight_from_class_counts(4, 2, total - 2, 1, 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_zero_class_bound_polynomials(q):
    assert counts.zero_class_bound(4, 1, q) == q**4 + q**3 + q**2 - q - 2
    assert counts.zero_class_bound(4, 2, q) == q**5 + q**4 - q - 1
    x51 = counts.zero_class_bound(5, 1, q)
    assert x51 == q**5 + q**4 + q**2 - q - 2
    assert counts.zero_class_bound(5, 2, q) == x51
    assert counts.zero_class_bound(6, 1, q) == q**7 + q**6 - q**5 + q**3 + q**2 - q - 2
    assert counts.zero_class_bound(6, 2, q) == q**5 + 2 * q**4 - q - 2
    assert counts.zero_class_bound(6, 3, q) == q**7 + q**6 - q - 1


def test_bound_table_orderings_small():
    t4 = counts.bound_table(4, 2)
    assert t4.max_indices() == [2]
    t5 = counts.bound_table(5, 2)
    assert sorted(t5.max_indices()) == [1, 2]
    t6 = counts.bound_table(6, 2)
    assert t6.max_indices() == [3] and t6.second_index() == 1
    t7 = counts.bound_table(7, 2)
    assert t7.max_indices() == [1] and t7.second_index() == 3



def test_expected_bound_maximum_is_where_the_table_peaks():
    # the rule verify checks, stated once next to bound_table
    expected = [counts.bound_table(m, 2).expected_max_indices() for m in range(4, 10)]
    assert expected == [[2], [1, 2], [3], [1], [1], [1]]
    for q in (2, 3, 4, 5):
        for m in range(4, 21):
            table = counts.bound_table(m, q)
            assert table.max_indices() == table.expected_max_indices(), (m, q)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_bound_table_rejects_small_m(m):
    with pytest.raises(ValueError):
        counts.bound_table(m, 2)


def test_stratum_weight_bound_values():
    assert counts.stratum_weight_bound(4, 2, 2) == 12
    assert counts.stratum_weight_bound(4, 1, 2) == Fraction(74, 5)


def test_bounds_csv(tmp_path):
    table = counts.bound_table(6, 2)
    path = tmp_path / "bounds.csv"
    assert cli.run(["bounds", "-m", "6", "-q", "2", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "i,xi,muMax,dLower"
    assert lines[3] == "3,189,0,4032"
    # one row per rank of the bound table, dLower the ceiling of the exact bound
    assert lines[1:] == [
        f"{r.i},{r.xi},{r.mu_max},{math.ceil(r.d_lower)}" for r in table.rows
    ]


def test_rank2_witness_52(space52, system52):
    phi = hg.make_rank2_cone_form(space52)
    assert phi.rank == 2 and phi.rad_dim == 3
    assert polar.radical_profile(space52, phi.radical).label == "[Pi_1]H_2"
    assert code.weight_direct(phi, system52) == 192


def test_rank2_witness_62(space62, system62):
    phi = hg.make_rank2_cone_form(space62)
    prof = polar.radical_profile(space62, phi.radical)
    assert prof.label == "[Pi_2]H_2"
    # the vertex of the cone is totally isotropic
    conj_rows = space62.ctx.frob[phi.radical]
    vertex = linalg.kernel(space62.ctx, linalg.matmul(space62.ctx, conj_rows, phi.radical.T))
    assert len(vertex) == 2
    assert code.weight_direct(phi, system62) == 4096


def test_rank2_witness_rejects_small_m(space42):
    with pytest.raises(ValueError):
        hg.make_rank2_cone_form(space42)


@pytest.mark.parametrize("m,want_t", [(7, 1), (8, 2), (9, 1), (11, 1), (10, 2)])
def test_rank2_witness_profiles_scale_with_m(ctx2, m, want_t):
    # profile certification needs no line enumeration, so large m is cheap
    space = hg.HermitianSpace(m, ctx2)
    phi = hg.make_rank2_cone_form(space)
    assert phi.rank == 2
    prof = polar.radical_profile(space, phi.radical)
    assert prof.t == want_t and prof.dim == m - 2


def test_permutable_witness_62(space62, system62):
    phi = hg.make_permutable_form(space62)
    rep = classify.classify_points(phi, space62, system62)
    assert rep.A == (2**6 - 1) * 3 == 189
    assert rep.B == 0
    assert rep.fix_count == 63
    assert rep.weight_direct == 4032


def test_permutable_rejects_other_m(space52):
    with pytest.raises(ValueError):
        hg.make_permutable_form(space52)


@pytest.mark.parametrize("p,e", [(2, 2), (5, 1)])
def test_weight_routes_and_witness_on_headroom_fields(p, e):
    ctx = hg.make_field(p, e)
    q = ctx.q
    space = hg.HermitianSpace(4, ctx)
    system = hg.build_system(space)
    perm = hg.make_permutable_form(space)
    assert code.weight_direct(perm, system) == q**4 - q**2 == counts.code_params(4, q).d_min
    rng = np.random.default_rng(p * 100 + e)
    for _ in range(5):
        upper = rng.integers(0, ctx.q2, size=6, dtype=np.uint8)
        if not upper.any():
            continue
        phi = code.AlternatingForm.from_upper(ctx, 4, upper)
        wd = code.weight_direct(phi, system)
        assert wd == code.weight_recursive(phi, space)
        assert wd == classify.classify_points(phi, space, system).weight_from_counts


def test_check_min_weight_profile(space42, space52, space62):
    perm = hg.make_permutable_form(space42)
    ok, why = classify.check_min_weight_profile(perm, space42, 12)
    assert ok, why
    cone = hg.make_rank2_cone_form(space52)
    ok, why = classify.check_min_weight_profile(cone, space52, 192)
    assert ok, why
    cone62 = hg.make_rank2_cone_form(space62)
    with pytest.raises(ValueError):
        classify.check_min_weight_profile(cone62, space62, 4096)


def test_min_profile_accepts_rank4_minimum_words_at_52(space52, system52):
    # at (5, 2) minimum words exist with a 1-dimensional radical too
    ctx = space52.ctx
    rng = np.random.default_rng(77)
    found = 0
    for _ in range(3000):
        up = rng.integers(0, 4, size=10, dtype=np.uint8)
        if not up.any():
            continue
        phi = code.AlternatingForm.from_upper(ctx, 5, up)
        if code.weight_direct(phi, system52) != 192 or phi.rad_dim != 1:
            continue
        ok, why = classify.check_min_weight_profile(phi, space52, 192)
        assert ok, why
        found += 1
        if found >= 3:
            break
    assert found >= 3


@pytest.mark.parametrize("q,d_min", [(2, 192), (3, 5832), (4, 61440), (5, 375000)])
def test_rank4_e0_radical_form_is_a_minimum_word_at_m5(q, d_min):
    # the second m = 5 shape: radical the non-isotropic point e_0 and a
    # permutable form on its perp
    space = hg.HermitianSpace(5, _field(q))
    phi = _symplectic_block(space.ctx, 5)
    assert phi.rank == 4
    assert code.weight_direct(phi, hg.build_system(space)) == d_min
    ok, why = classify.check_min_weight_profile(phi, space, d_min)
    assert ok, why


def test_rank4_form_with_isotropic_radical_is_rejected_at_52(space52):
    # a^b + c^d for a basis a, b, c, d of the annihilator of the isotropic
    # point (1, x0, 0, 0, 0): rank 4, the radical that point
    ctx = space52.ctx
    point = np.array([[1, classify._norm_minus_one_element(ctx), 0, 0, 0]], dtype=np.uint8)
    a, b, c, d = linalg.kernel(ctx, point)
    s = ctx.add[classify._outer_antisym(ctx, a, b), classify._outer_antisym(ctx, c, d)]
    phi = code.AlternatingForm(ctx, s)
    assert phi.rank == 4 and polar.radical_profile(space52, phi.radical).t == 1
    ok, why = classify.check_min_weight_profile(phi, space52, 192)
    assert not ok, why


def test_rank4_e0_radical_form_is_rejected_at_72(space72):
    # the m = 5 construction is no minimum word beyond m = 6
    phi = _symplectic_block(space72.ctx, 7)
    assert classify._is_permutable(phi, space72)[0]
    ok, why = classify.check_min_weight_profile(phi, space72, 61440)
    assert not ok, why


def _scanned_min_words(system):
    """Minimum words among the forms an exhaustive scan visits, from the
    counter indices in its report."""
    rep = code.spectrum(system, mode="exhaustive", jobs=1)
    assert rep.min_word_class_sizes.sum() == rep.histogram[rep.min_nonzero_weight]
    ctx, m = system.ctx, system.space.m
    digits = linalg._digits(rep.min_word_indices, ctx.q2, m * (m - 1) // 2).astype(np.uint8)
    return [code.AlternatingForm.from_upper(ctx, m, d) for d in digits]


MIN_WORD_SIZES = [(4, 2), (4, 3), (5, 2), (4, 4), (4, 5), (6, 2), (5, 3)]


@pytest.mark.parametrize("m,q", MIN_WORD_SIZES, ids=[f"{m}-{q}" for m, q in MIN_WORD_SIZES])
def test_every_scanned_minimum_word_has_the_profile(m, q):
    space = hg.HermitianSpace(m, _field(q))
    system = hg.build_system(space)
    d_min = counts.code_params(m, q).d_min
    words = _scanned_min_words(system)
    assert words
    for phi in words:
        assert code.weight_direct(phi, system) == d_min
        ok, why = classify.check_min_weight_profile(phi, space, d_min)
        assert ok, (phi.upper().tolist(), why)


def test_fixed_point_lemma_rank4_at_52(space52, system52):
    """Rank-4 forms on V(5): the fixed set of the composed polarity is
    either a full subplane-geometry, q^3 + q^2 + q + 1 points, or has
    at most q^2 + q + 2 points."""
    ctx = space52.ctx
    q = ctx.q
    rng = np.random.default_rng(33)
    full = (q**4 - 1) // (q - 1)
    seen = 0
    for _ in range(200):
        up = rng.integers(0, 4, size=10, dtype=np.uint8)
        if not up.any():
            continue
        phi = code.AlternatingForm.from_upper(ctx, 5, up)
        if phi.rank != 4:
            continue
        seen += 1
        fc = classify.classify_points(phi, space52, system52).fix_count
        assert fc == full or fc <= q * q + q + 2
    assert seen > 50


LEMMA_SIZES = [(5, 2), (4, 3), (5, 3), (4, 4), (6, 2)]


@pytest.mark.parametrize("m,q", LEMMA_SIZES, ids=[f"{m}-{q}" for m, q in LEMMA_SIZES])
def test_classify_points_matches_separate_passes(m, q, seeded_forms):
    # classify_points takes the class sizes and the fixed points from the
    # form's ranks; they must equal the labels of the reference pass over
    # the isotropic points and a separate pass of polar images over the
    # whole projective space, which marks only isotropic rows fixed
    space = hg.HermitianSpace(m, _field(q))
    system = hg.build_system(space)
    allp = space.all_points()
    anisotropic = space.inner_diag(allp) != 0
    total = 0
    for phi in seeded_forms(space.ctx, m, 41, 9):
        rep = classify.classify_points(phi, space, system)
        labels = classify.point_classes(phi, space)
        sizes = [int((labels == c).sum()) * (space.ctx.q2 - 1) for c in range(3)]
        assert [rep.A, rep.B, rep.C] == sizes
        fixed = classify._images(phi, space, allp)[2]
        assert not (fixed & anisotropic).any()
        assert rep.fix_count == fixed.sum()
        total += rep.fix_count
    assert total > 0


# the sizes whose generators test_code pins; q = 2, 3, 4, 5, 7 and 8
RANK_COUNT_SIZES = [(4, 2), (4, 4), (4, 5), (4, 7), (4, 8), (5, 3), (6, 2), (7, 2), (8, 2), (5, 4)]


@pytest.mark.parametrize("m,q", RANK_COUNT_SIZES, ids=[f"{m}-{q}" for m, q in RANK_COUNT_SIZES])
def test_rank_counts_equal_the_point_pass(m, q, seeded_forms):
    # (A, B, C, fix_count) from the q + 1 ranks against the reference pass
    # over the isotropic points, on random, rank-2 and sparse forms and on
    # both witness kinds; neither needs the lines
    ctx = _field(q)
    space = hg.HermitianSpace(m, ctx)
    k, rng = m * (m - 1) // 2, np.random.default_rng([m, q])
    sparse = [rng.integers(0, ctx.q2, size=k, dtype=np.uint8) * (rng.random(k) < 0.25) for _ in range(8)]
    forms = [*seeded_forms(ctx, m, 36, 12, 3)]
    forms += [code.AlternatingForm.from_upper(ctx, m, up.astype(np.uint8)) for up in sparse if up.any()]
    forms += [hg.make_permutable_form(space)] if m in (4, 6) else [_symplectic_block(ctx, m)]
    forms += [hg.make_rank2_cone_form(space)] if m >= 5 else []
    for phi in forms:
        assert classify._class_counts(phi, space) == classify._point_counts(phi, space), phi.ranks


@pytest.mark.parametrize(
    "ranks", [(4, 4), (4, 4, 0, 0), (3, 3, 0), (0, 0, 4), (6, 4, 0), (4, 5, 0), (4, 4, -1), (4, 3, 0), (2, 3, 0), (2, 0, 0)]
)
def test_invalid_rank_lists_give_no_counts(ranks):
    # the wrong length, an odd, zero or oversized rank S, a rank beyond m
    # or negative, a vertex of -1 or beyond the radical, a negative class
    with pytest.raises(ValueError):
        counts.class_counts_from_ranks(4, 2, ranks)


def test_rank_counts_are_integers_for_every_rank_list():
    # every in-range list gives whole counts that add up to the isotropic
    # vectors, or a ValueError; none gives a fraction or a traceback
    for m, q in [(4, 2), (4, 3), (5, 2), (6, 2)]:
        mu = counts.isotropic_point_count(m, q)
        for ranks in itertools.product(range(m + 1), repeat=q + 1):
            try:
                got = counts.class_counts_from_ranks(m, q, ranks)
            except ValueError:
                continue
            assert all(type(n) is int and n >= 0 for n in got) and sum(got[:3]) == (q * q - 1) * mu


@pytest.mark.parametrize("size", ["42", "52", "62", "43", "53"])
def test_tampered_ranks_fail_a_check(request, size, seeded_forms):
    # every change of one rank of a form's list, or of its length, gives a
    # report with a failed check, never a silent pass or a traceback
    space, system = (request.getfixturevalue(f"{k}{size}") for k in ("space", "system"))
    m, q = space.m, space.ctx.q
    witness = [hg.make_permutable_form(space)] if m == 4 else []
    for phi in [*seeded_forms(space.ctx, m, 5, 4, 2), *witness]:
        ranks = phi.ranks
        tampered = [ranks[:-1], (*ranks, m)]
        tampered += [(*ranks[:j], r + d, *ranks[j + 1 :]) for j, r in enumerate(ranks) for d in (-2, -1, 1, 2)]
        for bad in tampered:
            form = code.AlternatingForm(space.ctx, phi.s)
            form.__dict__["ranks"] = bad  # what the cached property would hold
            rep = classify.classify_points(form, space, system)
            if all(rep.checks.values()):  # only a change the counts cannot see
                assert classify._class_counts(form, space) == classify._point_counts(phi, space), (ranks, bad)


@pytest.mark.parametrize("size", ["52", "62"])
def test_classification_is_one_rank_stack_call(request, size, seeded_forms, monkeypatch):
    # classify_points reads no point of the space: a fresh form costs one
    # rank_stack call on the q + 1 matrices S and conj(S) S - lambda I,
    # whose ranks give the class sizes, the fixed points and the radical's
    # dimension and profile without its basis, and no _echelon
    space, system = (request.getfixturevalue(f"{k}{size}") for k in ("space", "system"))

    def refuse():
        raise AssertionError("a point table was read")

    calls = {"stack": [], "echelon": 0}
    echelon, rank_stack = linalg._echelon, linalg.rank_stack

    def counted_echelon(*args):
        calls["echelon"] += 1
        return echelon(*args)

    def counted_stack(ctx, mats):
        calls["stack"].append(np.shape(mats))
        return rank_stack(ctx, mats)

    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(linalg, "rank_stack", counted_stack)
    for phi in seeded_forms(space.ctx, space.m, 7, 3):
        calls["stack"].clear()
        calls["echelon"] = 0
        with monkeypatch.context() as patch:
            patch.setattr(space, "points", refuse)
            patch.setattr(space, "all_points", refuse)
            classify.classify_points(phi, space, system)
        assert calls["stack"] == [(space.ctx.q + 1, space.m, space.m)] and calls["echelon"] == 0
        assert not phi.radical.flags.writeable
        classify.point_classes(phi, space)


WITNESS_SIZES = [(4, q) for q in hg.SUPPORTED_Q] + [(5, 2), (5, 3), (5, 4), (6, 2), (7, 2)]


@pytest.mark.parametrize("m,q", WITNESS_SIZES, ids=[f"{m}-{q}" for m, q in WITNESS_SIZES])
def test_witness_construction_is_certified(m, q):
    # each construction returns its one deterministic candidate; the
    # caller checks its weight
    ctx = _field(q)
    space = hg.HermitianSpace(m, ctx)
    system = hg.build_system(space)
    if m in (4, 6):
        perm = hg.make_permutable_form(space)
        assert perm == _symplectic_block(ctx, m)
        assert code.weight_direct(perm, system) == counts.code_params(m, q).d_min
    if m >= 5:
        cone = hg.make_rank2_cone_form(space)
        want = counts.rank2_cone_weight(m, q) if m == 6 else counts.code_params(m, q).d_min
        assert code.weight_direct(cone, system) == want
