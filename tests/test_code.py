import dataclasses
import gc
import hashlib
import itertools
import pickle
import types
import weakref
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermgrass as hg
from hermgrass import code, counts, linalg, polar


def test_params_table():
    cases = {
        (4, 2): (27, 6, 12),
        (5, 2): (297, 10, 192),
        (6, 2): (6237, 15, 4032),
        (7, 2): (89397, 21, 61440),
        (8, 2): (1519749, 28, 1048576),
        (4, 3): (112, 6, 72),
        (5, 3): (6832, 10, 5832),
    }
    for (m, q), (n, k, d) in cases.items():
        cp = counts.code_params(m, q)
        assert (cp.n, cp.k, cp.d_min) == (n, k, d)
    with pytest.raises(ValueError):
        counts.code_params(3, 2)


def test_alternating_form_validation(ctx3):
    s = np.zeros((3, 3), dtype=np.uint8)
    s[0, 0] = 1
    with pytest.raises(ValueError):
        code.AlternatingForm(ctx3, s)
    s = np.zeros((3, 3), dtype=np.uint8)
    s[0, 1] = 1
    s[1, 0] = 1  # should be -1 = 2 over GF(9)
    with pytest.raises(ValueError):
        code.AlternatingForm(ctx3, s)
    s[1, 0] = ctx3.neg[1]
    phi = code.AlternatingForm(ctx3, s)
    assert phi.rank == 2 and phi.rad_dim == 1


def test_upper_round_trip(ctx2):
    rng = np.random.default_rng(1)
    for _ in range(20):
        up = rng.integers(0, 4, size=10, dtype=np.uint8)
        phi = code.AlternatingForm.from_upper(ctx2, 5, up)
        assert np.array_equal(phi.upper(), up)
    assert code.AlternatingForm.from_upper(ctx2, 5, np.zeros(10, dtype=np.uint8)).rank == 0


def test_equal_forms_hash_equal(ctx2, ctx3):
    up = np.arange(10, dtype=np.uint8) % 4
    phi = code.AlternatingForm.from_upper(ctx2, 5, up)
    twin = code.AlternatingForm(ctx2, phi.s.copy())
    assert twin == phi and hash(twin) == hash(phi) and len({phi, twin}) == 1
    other_upper = code.AlternatingForm.from_upper(ctx2, 5, (up + 1) % 4)
    other_field = code.AlternatingForm.from_upper(ctx3, 5, up)
    assert len({phi, other_upper, other_field}) == 3


def test_evaluate_equals_pluecker_pairing(space52, system52):
    ctx = space52.ctx
    rng = np.random.default_rng(3)
    pts = space52.points()
    a, b = (pts[i] for i in space52.line_pair_indices())
    for _ in range(20):
        up = rng.integers(0, 4, size=10, dtype=np.uint8)
        phi = code.AlternatingForm.from_upper(ctx, 5, up)
        j = int(rng.integers(0, len(a)))
        val = code.evaluate(phi, np.stack([a[j], b[j]]))
        col = system52.matrix[:, j]
        acc = 0
        for k in range(10):
            acc = ctx.add[acc, ctx.mul[up[k], col[k]]]
        assert val == acc


def test_evaluate_zero_form_and_scaled_basis(space42):
    ctx = space42.ctx
    zero = code.AlternatingForm(ctx, np.zeros((4, 4), dtype=np.uint8))
    pts = space42.points()
    a, b = (pts[i] for i in space42.line_pair_indices())
    assert all(code.evaluate(zero, np.stack([a[i], b[i]])) == 0 for i in range(5))
    up = np.array([1, 2, 0, 3, 0, 1], dtype=np.uint8)
    phi = code.AlternatingForm.from_upper(ctx, 4, up)
    basis = np.stack([a[0], b[0]])
    scaled = np.stack([ctx.mul[3, a[0]], b[0]])
    assert code.evaluate(phi, scaled) == ctx.mul[3, code.evaluate(phi, basis)]


def test_rank2_form_vanishes_exactly_on_lines_meeting_radical(space52, system52):
    ctx = space52.ctx
    phi = hg.make_rank2_cone_form(space52)
    rad = phi.radical
    pts = space52.points()
    a, b = (pts[i] for i in space52.line_pair_indices())
    for j in range(system52.n):
        stacked = np.vstack([np.stack([a[j], b[j]]), rad])
        meets = linalg.rank(ctx, stacked) < 2 + rad.shape[0]
        val = code.evaluate(phi, np.stack([a[j], b[j]]))
        assert (val == 0) == meets


def test_codeword_zero_iff_zero_form(space42, system42):
    ctx = space42.ctx
    zero = code.AlternatingForm(ctx, np.zeros((4, 4), dtype=np.uint8))
    assert not code.codeword(zero, system42).any()
    assert code.weight_direct(zero, system42) == 0
    rng = np.random.default_rng(8)
    for _ in range(30):
        up = rng.integers(0, 4, size=6, dtype=np.uint8)
        if not up.any():
            continue
        assert code.weight_direct(code.AlternatingForm.from_upper(ctx, 4, up), system42) > 0


CTX42 = hg.make_field(2, 1)
SPACE42 = hg.HermitianSpace(4, CTX42)
SYSTEM42 = hg.build_system(SPACE42)

uppers = st.lists(st.integers(0, 3), min_size=6, max_size=6)


@settings(deadline=None, max_examples=60)
@given(uppers, uppers, st.integers(1, 3))
def test_codeword_is_linear(u1, u2, alpha):
    ctx = CTX42
    f1 = code.AlternatingForm.from_upper(ctx, 4, u1)
    f2 = code.AlternatingForm.from_upper(ctx, 4, u2)
    s_sum = linalg.fadd(ctx, f1.s, f2.s)
    c1 = code.codeword(f1, SYSTEM42)
    c2 = code.codeword(f2, SYSTEM42)
    csum = code.codeword(code.AlternatingForm(ctx, s_sum), SYSTEM42)
    assert np.array_equal(csum, linalg.fadd(ctx, c1, c2))
    cs = code.codeword(code.AlternatingForm(ctx, ctx.mul[alpha, f1.s]), SYSTEM42)
    assert np.array_equal(cs, ctx.mul[alpha, c1])


def test_weight_scaling_invariance(space42, system42):
    ctx = space42.ctx
    up = np.array([1, 0, 2, 3, 0, 1], dtype=np.uint8)
    phi = code.AlternatingForm.from_upper(ctx, 4, up)
    w = code.weight_direct(phi, system42)
    for alpha in (2, 3):
        scaled = code.AlternatingForm(ctx, ctx.mul[alpha, phi.s])
        assert code.weight_direct(scaled, system42) == w


def test_weight_direct_against_per_line_loop(space42, system42):
    ctx, pts = space42.ctx, space42.points()
    lines = [pts[[a, b]] for a, b in zip(*space42.line_pair_indices())]
    rng = np.random.default_rng(4)
    for _ in range(15):
        up = rng.integers(0, 4, size=6, dtype=np.uint8)
        phi = code.AlternatingForm.from_upper(ctx, 4, up)
        naive = sum(1 for ln in lines if code.evaluate(phi, ln) != 0)
        assert code.weight_direct(phi, system42) == naive


# The sizes of the pinned generators (test_pluecker), q in {2, 3, 4, 5, 7, 8}
PINNED_SIZES = [(4, 2, 1), (4, 2, 2), (4, 5, 1), (4, 7, 1), (4, 2, 3), (5, 3, 1), (6, 2, 1), (7, 2, 1), (8, 2, 1), (5, 2, 2)]


@pytest.mark.parametrize("m,p,e", PINNED_SIZES, ids=lambda v: str(v))
def test_direct_weight_counts_the_codeword(m, p, e, seeded_forms):
    # the direct pass on the generator's digits (bit planes at p = 2,
    # nibble gathers at odd p) against the nonzero entries of the matmul
    # codeword; (5,3) sums 10 terms, past the 7 a nibble holds at p = 3,
    # and (4,7) 6, past the 2 at p = 7, when no coefficient is zero
    ctx = hg.make_field(p, e)
    system = hg.build_system(hg.HermitianSpace(m, ctx))
    k, rng = system.k, np.random.default_rng([m, p, e])
    sparse = rng.integers(0, ctx.q2, size=k, dtype=np.uint8) * (rng.random(k) < 0.4)
    uppers = [np.zeros(k, dtype=np.uint8), sparse, rng.integers(1, ctx.q2, size=k, dtype=np.uint8)]
    forms = [code.AlternatingForm.from_upper(ctx, m, u) for u in uppers] + seeded_forms(ctx, m, 5, 8, 4)
    weights = [code.weight_direct(phi, system) for phi in forms]
    assert weights == [int(np.count_nonzero(code.codeword(phi, system))) for phi in forms]
    assert weights[0] == 0 and min(weights[1:]) >= counts.code_params(m, ctx.q).d_min
    # the refusals of a form of another size or field
    other = code.AlternatingForm.from_upper(ctx, m + 1, np.ones((m + 1) * m // 2, dtype=np.uint8))
    with pytest.raises(ValueError, match="form does not match the system"):
        code.weight_direct(other, system)
    if ctx.q2 > 4:
        with pytest.raises(ValueError, match="form does not match the system"):
            code.weight_direct(code.AlternatingForm.from_upper(hg.make_field(2, 1), m, np.ones(k)), system)


@pytest.mark.parametrize("m,p,e", PINNED_SIZES, ids=lambda v: str(v))
def test_form_ranks_of_a_stack_equal_each_form(m, p, e, seeded_forms):
    # the (F, q + 1) ranks of a stack, the zero form among them, against
    # each form's own ranks and separate eliminations of S and of
    # conj(S) S - lambda I for each lambda of GF(q)
    ctx = hg.make_field(p, e)
    forms = [code.AlternatingForm(ctx, np.zeros((m, m), dtype=np.uint8)), *seeded_forms(ctx, m, 8, 12, 3)]
    stack = code._form_ranks(ctx, np.stack([phi.s for phi in forms]))
    assert stack.shape == (len(forms), ctx.q + 1)
    eye = np.eye(m, dtype=np.uint8)
    for row, phi in zip(stack.tolist(), forms):
        t = linalg.matmul(ctx, ctx.frob[phi.s], phi.s)
        want = [linalg.rank(ctx, phi.s)] + [linalg.rank(ctx, linalg.fsub(ctx, t, eye * lam)) for lam in ctx.subfield]
        assert tuple(row) == phi.ranks == tuple(want)


@pytest.mark.parametrize("m,p,e", PINNED_SIZES, ids=lambda v: str(v))
def test_rank_and_radical_profile_from_two_ranks(m, p, e, seeded_forms):
    # the rank is one elimination and the radical's profile two ranks,
    # t = rank S - rank(conj(S) S); both against the radical's basis
    from hermgrass import classify

    ctx = hg.make_field(p, e)
    space = hg.HermitianSpace(m, ctx)
    zero = code.AlternatingForm(ctx, np.zeros((m, m), dtype=np.uint8))
    for phi in [zero, *seeded_forms(ctx, m, 6, 24, 4)]:
        assert phi.rank == m - len(phi.radical) and phi.rad_dim == len(phi.radical)
        assert classify._radical_profile(phi) == polar.radical_profile(space, phi.radical)


def test_point_weight_cases(space52, system52):
    space = space52
    phi = hg.make_rank2_cone_form(space)
    assert code.weight_direct(phi, system52) == 192
    vals = code.point_weights(phi, space)
    assert set(int(v) for v in np.unique(vals)) == {0, 6, 8}
    assert counts.point_weight_values(5, 2) == (0, 6, 8)
    # vectors of the radical meeting the variety sit in the zero class
    pts = space.points()
    rad = phi.radical
    for row in rad:
        if space.inner(row, row) == 0:
            (idx,) = np.flatnonzero((pts == row).all(axis=1))
            assert vals[idx] == 0


def test_point_weight_matches_vector_version(space52, pair_oracle):
    rng = np.random.default_rng(12)
    ctx = space52.ctx
    up = rng.integers(0, 4, size=10, dtype=np.uint8)
    phi = code.AlternatingForm.from_upper(ctx, 5, up)
    assert np.array_equal(code.point_weights(phi, space52), pair_oracle.point_weights(phi, space52))


@pytest.mark.parametrize("seed,count", [(101, 60)])
def test_weight_recursive_agrees_with_direct(space52, system52, seed, count):
    ctx = space52.ctx
    rng = np.random.default_rng(seed)
    for _ in range(count):
        up = rng.integers(0, 4, size=10, dtype=np.uint8)
        phi = code.AlternatingForm.from_upper(ctx, 5, up)
        assert code.weight_recursive(phi, space52) == code.weight_direct(phi, system52)


def test_each_route_runs_once_per_form_and_input(space52, system52, seeded_forms, monkeypatch):
    # a form keeps its direct weight with the system object and its
    # per-point counts with the space object: one direct pass and one
    # per-point pass (one section_table() call) per form and input
    from hermgrass import classify

    calls = {"direct": 0, "per_point": 0}
    direct_count = code._direct_count

    def counted_direct(phi, system):
        calls["direct"] += 1
        return direct_count(phi, system)

    monkeypatch.setattr(code, "_direct_count", counted_direct)
    other_space = hg.HermitianSpace(5, space52.ctx)
    for space in (space52, other_space):

        def counted_sections(table=space.section_table):
            calls["per_point"] += 1
            return table()

        monkeypatch.setattr(space, "section_table", counted_sections)
    phi = seeded_forms(space52.ctx, 5, 7, 1)[0]
    wd = code.weight_direct(phi, system52)
    assert classify.classify_points(phi, space52, system52).weight_direct == wd
    assert calls["direct"] == 1
    assert code.weight_recursive(phi, space52) == wd
    kept = code.point_weights(phi, space52)
    assert calls["per_point"] == 1 and code.weight_recursive(phi, space52) == wd
    assert calls["per_point"] == 1 and not kept.flags.writeable
    with pytest.raises(ValueError):
        kept[0] = 0
    # another object recounts, even an equal space, and replaces the kept
    # result: one result per route
    permuted = type(system52)(space52, system52.matrix[::-1])
    code.weight_direct(phi, permuted)
    assert calls["direct"] == 2
    assert code.weight_direct(phi, system52) == wd and calls["direct"] == 3
    assert np.array_equal(code.point_weights(phi, other_space), kept)
    assert calls["per_point"] == 2
    code.point_weights(phi, space52)
    assert calls["per_point"] == 3
    # a fresh form, equal to phi, keeps nothing of phi's
    twin = code.AlternatingForm(phi.ctx, phi.s)
    assert twin == phi and code.weight_direct(twin, system52) == wd
    assert calls["direct"] == 4


def test_kept_route_results_do_not_keep_their_space_alive(space52):
    # the form refers to the system and space it was counted on weakly,
    # so dropping them frees their tables while the form lives on
    space = hg.HermitianSpace(5, space52.ctx)
    system = hg.build_system(space)
    phi = code.AlternatingForm.from_upper(space.ctx, 5, np.arange(10) % 4)
    wd = code.weight_direct(phi, system)
    assert code.weight_recursive(phi, space) == wd
    refs = weakref.ref(space), weakref.ref(system)
    del space, system
    gc.collect()
    assert refs[0]() is None and refs[1]() is None
    assert code.weight_direct(phi, hg.build_system(space52)) == wd
    # a pickled copy leaves the weak references behind and counts afresh
    twin = pickle.loads(pickle.dumps(phi))
    assert twin == phi and twin._direct[0]() is None
    assert code.weight_recursive(twin, space52) == wd


def test_weight_recursive_zero_form(space52):
    zero = code.AlternatingForm(space52.ctx, np.zeros((5, 5), dtype=np.uint8))
    assert code.weight_recursive(zero, space52) == 0


def test_point_weights_streaming_branch_matches_pairs(ctx2, monkeypatch):
    # a fresh space whose section table does not fit in memory must
    # stream and agree
    paired = hg.HermitianSpace(5, ctx2)
    assert paired.section_table() is not None
    streamed = hg.HermitianSpace(5, ctx2)
    streamed.points()
    monkeypatch.setattr(polar, "_available_memory", lambda: 1)
    assert streamed.section_table() is None
    rng = np.random.default_rng(55)
    for _ in range(5):
        up = rng.integers(0, 4, size=10, dtype=np.uint8)
        phi = code.AlternatingForm.from_upper(ctx2, 5, up)
        assert np.array_equal(
            code.point_weights(phi, paired), code.point_weights(phi, streamed)
        )


@pytest.mark.parametrize(
    "make_space",
    [
        lambda: hg.HermitianSpace(6, hg.make_field(2, 1)),
        lambda: hg.HermitianSpace(5, hg.make_field(3, 1)),
        lambda: hg.HermitianSpace(4, hg.make_field(3, 1)),
        # 3276 points: a streamed chunk is 20 rows, fewer than Q = 25
        lambda: hg.HermitianSpace(4, hg.make_field(5, 1)),
    ],
    ids=["6-2", "5-3", "4-3", "4-5"],
)
def test_point_weights_table_matches_streaming(make_space, seeded_forms, monkeypatch):
    # memory for the section table but not for the perp rows held with it
    # streams; every other form has rank 2, with many points u whose row
    # u^T S is zero
    table_space, streamed = make_space(), make_space()
    table, held = table_space.section_table(), table_space.perp_sections()
    assert table is not None
    streamed.points()
    monkeypatch.setattr(polar, "_available_memory", lambda: table.nbytes + held.nbytes - 1)
    assert streamed.section_table() is None
    silent = 0
    for phi in seeded_forms(table_space.ctx, table_space.m, 23, 4, rank2_every=2):
        assert np.array_equal(code.point_weights(phi, table_space), code.point_weights(phi, streamed))
        silent += int((~linalg.matmul(phi.ctx, table_space.points(), phi.s).any(axis=1)).sum())
    assert silent > 0


def test_form_index_round_trip(ctx3):
    # the scan counter: index n has the upper triangle of base-9 digits of
    # n, most significant first, the order of itertools.product
    powers = 9 ** np.arange(5, -1, -1)
    for n in (0, 1, 500, 9**6 - 1):
        digits = linalg._digits(np.array([n]), 9, 6)[0]
        phi = code.AlternatingForm.from_upper(ctx3, 4, digits)
        assert int(phi.upper().astype(np.int64) @ powers) == n
    assert [tuple(d) for d in linalg._digits(np.arange(200), 9, 6).tolist()] == list(
        itertools.islice(itertools.product(range(9), repeat=6), 200)
    )
    with pytest.raises(ValueError):
        code.AlternatingForm.from_upper(ctx3, 4, np.zeros(7, dtype=np.uint8))


FROZEN_42_HISTOGRAM = {0: 1, 12: 108, 16: 81, 18: 720, 20: 1620, 22: 1296, 24: 270}


def test_exhaustive_spectrum_42(system42):
    rep = code.spectrum(system42, mode="exhaustive")
    assert rep.histogram == FROZEN_42_HISTOGRAM
    assert rep.forms_scanned == 4**6
    assert rep.min_nonzero_weight == 12
    assert sum(rep.histogram.values()) == 4**6
    assert rep.histogram[0] == 1


def test_exhaustive_spectrum_43_pins(system43):
    rep = code.spectrum(system43, mode="exhaustive")
    assert rep.histogram == {
        0: 1, 72: 2016, 81: 896, 96: 136080, 99: 161280, 102: 217728, 108: 13440,
    }
    assert rep.min_weight_example == [0, 0, 1, 1, 0, 0]
    assert list(rep.min_weight_radical_dims.items()) == [(0, 2016)]
    # the scanned minimum words: the example first, ascending, class sizes
    # summing to the 2016 minimum words
    idx, sizes = rep.min_word_indices, rep.min_word_class_sizes
    assert linalg._digits(idx[:1], 9, 6)[0].tolist() == rep.min_weight_example
    assert np.all(np.diff(idx) > 0) and len(sizes) == len(idx) and sizes.sum() == 2016


@pytest.mark.parametrize("m,p,e", [(4, 2, 1), (4, 3, 1), (5, 2, 1), (4, 5, 1), (5, 3, 1)])
def test_first_row_classes_are_orbits(m, p, e):
    # Orbits of the first rows under the generators themselves: adjacent
    # transpositions, one entry times a norm-1 element, every entry times
    # a scalar.  Each orbit's label falls to its smallest counter index.
    ctx = hg.make_field(p, e)
    q2, width = ctx.q2, m - 1
    rows = linalg._digits(np.arange(q2**width), q2, width)
    powers = q2 ** np.arange(width - 1, -1, -1)
    maps = [rows[:, np.r_[:j, j + 1, j, j + 2 : width]] for j in range(width - 1)]
    for u in np.flatnonzero(ctx.norm == 1):
        scaled = rows.copy()
        scaled[:, 0] = ctx.mul[u, rows[:, 0]]
        maps.append(scaled)
    maps += [ctx.mul[c, rows] for c in range(1, q2)]
    images = [image @ powers for image in maps]
    label = np.arange(len(rows))
    while True:
        before = label.copy()
        for image in images:
            np.minimum.at(label, image, label)
            label = np.minimum(label, label[image])
        if np.array_equal(label, before):
            break
    reps, sizes = np.unique(label, return_counts=True)
    got_reps, got_sizes = code._first_row_classes(ctx, m)
    assert got_reps.tolist() == reps.tolist()
    assert got_sizes.tolist() == sizes.tolist()
    assert int(got_sizes.sum()) == q2**width
    assert len(reps) >= m  # the zero count of a first row is kept


@pytest.mark.parametrize("m,p,e", [(4, 2, 1), (4, 3, 1), (5, 2, 1), (4, 5, 1), (5, 3, 1)])
def test_two_row_orbits_are_brute_force_orbits(m, p, e):
    # For each first-row class representative r, every map (pi, d, lambda)
    # that fixes r and coordinate 1: pi a permutation of 2..m-1 among equal
    # entries of r, d a norm-1 diagonal map and lambda a scalar with
    # lambda d_0 d_j = 1 on the support of r.  It takes S_1j to lambda d_1
    # d_j S_1(pi j); the set of maps is a group, so the smallest image of a
    # second row over all of them labels its orbit.
    ctx = hg.make_field(p, e)
    q2, width = ctx.q2, m - 2
    rows = linalg._digits(np.arange(q2**width), q2, width)
    powers = q2 ** np.arange(width - 1, -1, -1)
    diag = np.array(list(itertools.product(np.flatnonzero(ctx.norm == 1), repeat=m)))
    reps, sizes = code._first_row_classes(ctx, m)
    want_prefixes, want_sizes = [], []
    for rep, size in zip(reps, sizes):
        r = linalg._digits(np.array([rep]), q2, m - 1)[0]  # r[j - 1] is S_0j
        factors = []
        for lam in range(1, q2):
            ld0 = ctx.mul[lam, diag[:, 0]]
            fixed = (ctx.mul[ld0[:, None], diag[:, 1:][:, r != 0]] == 1).all(axis=1)
            factors.append(ctx.mul[ctx.mul[lam, diag[fixed, 1]][:, None], diag[fixed, 2:]])
        factors = np.unique(np.concatenate(factors), axis=0)
        perms = [list(pi) for pi in itertools.permutations(range(width)) if (r[1:][list(pi)] == r[1:]).all()]
        label = np.minimum.reduce([ctx.mul[c, rows[:, pi]] @ powers for c in factors for pi in perms])
        orbits, counts_ = np.unique(label, return_counts=True)
        assert (label[orbits] == orbits).all()  # each representative is its orbit's smallest index
        want_prefixes += (rep * q2**width + orbits).tolist()
        want_sizes += (size * counts_).tolist()
    prefixes, got_sizes = code._two_row_orbits(ctx, m)
    assert prefixes.tolist() == want_prefixes and got_sizes.tolist() == want_sizes
    assert int(got_sizes.sum()) == q2 ** (2 * m - 3)
    # the budget counts the scanned forms, prefixes x Q^C(m-2,2)
    scanned = len(prefixes) * q2 ** ((m - 2) * (m - 3) // 2)
    assert code._scan_prefixes(ctx, m, budget=scanned)[0] is prefixes
    with pytest.raises(ValueError, match=f"exceeds budget {scanned - 1} or the available memory"):
        code._scan_prefixes(ctx, m, budget=scanned - 1)


# (m, p, e, prefixes, sha256 of the prefixes and then the sizes as
# little-endian int64), recorded from the min-label propagation these
# orbits were first computed by, at sizes the brute-force test above does
# not reach
TWO_ROW_ORBIT_PINS = [
    (4, 2, 2, 284, "3f24769ae3d3670a508512675032bee9d73eb26ff5590ef19ae58f28a9e930b1"),
    (4, 7, 1, 3981, "3f2f09a8627482b3c4e34e60368edac933a155cac494e3797b7436a5d04df00e"),
    (4, 2, 3, 6918, "aee25a740a92d45c33fb35d27852aa4ab2ca39244051c18f0f6f292946ed92c9"),
    (5, 2, 2, 4516, "009d246fbf3710c13648a68d826a42bec79d287c622e368eae710961cb30866c"),
    (7, 2, 1, 122, "092d2c6955e2eec2f16412028dc1ec007d28f9306ed214b642ad0c7ef0daf837"),
]


@pytest.mark.parametrize("m,p,e,count,digest", TWO_ROW_ORBIT_PINS, ids=["4-4", "4-7", "4-8", "5-4", "7-2"])
def test_two_row_orbits_pins(m, p, e, count, digest):
    ctx = hg.make_field(p, e)
    prefixes, sizes = code._two_row_orbits(ctx, m)
    assert len(prefixes) == count and int(sizes.sum()) == ctx.q2 ** (2 * m - 3)
    assert hashlib.sha256(prefixes.astype("<i8").tobytes() + sizes.astype("<i8").tobytes()).hexdigest() == digest


def test_orbit_labelling_stays_within_its_memory_check():
    # the traced peak of labelling the 7^6 first rows of (4,7) is at most
    # what _orbits checks, 2 bytes a digit and 48 a row
    import tracemalloc

    ctx, n = hg.make_field(7, 1), 49**3
    tracemalloc.start()
    try:
        reps, _ = code._orbits(ctx, np.zeros(3, dtype=np.int64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reps) == 16 and peak <= n * (2 * 3 + 48)


def test_orbit_labelling_beyond_available_memory_is_refused(monkeypatch):
    # (4,5): the 25^3 first rows need 25^3 (2 * 3 + 48) bytes to label,
    # then each class's 25^2 second rows far fewer
    ctx, need = hg.make_field(5, 1), 25**3 * (2 * 3 + 48)
    system = hg.build_system(hg.HermitianSpace(4, ctx))
    code._first_row_classes.cache_clear()
    code._two_row_orbits.cache_clear()
    monkeypatch.setattr(polar, "_available_memory", lambda: need - 1)
    with pytest.raises(ValueError, match="the orbit labelling of 15625 rows needs 843750 bytes"):
        code._first_row_classes(ctx, 4)
    with pytest.raises(ValueError, match="exceeds budget 16777216 or the available memory"):
        code._scan_prefixes(ctx, 4, 1 << 24)
    with pytest.raises(ValueError, match="exceeds budget 16777216 or the available memory"):
        code.spectrum(system, mode="exhaustive")
    monkeypatch.setattr(polar, "_available_memory", lambda: need)
    prefixes, _ = code._scan_prefixes(ctx, 4, 1 << 24)
    assert len(prefixes) == 774


def test_scan_floor_refuses_without_labelling(monkeypatch):
    # (5,8): at least 64^10 / (5! 9^5 63) = 2.6e9 forms, one per orbit of
    # the maps the scan compresses by, so no row is labelled to refuse it
    monkeypatch.setattr(code, "_orbits", mock.Mock(side_effect=AssertionError("a row was labelled")))
    ctx = hg.make_field(2, 3)
    with pytest.raises(ValueError, match="at m = 5, q = 8 exceeds budget 16777216 or the available memory"):
        code._scan_prefixes(ctx, 5, 1 << 24)
    floor = 64**10 // (120 * 9**5 * 63)
    counts._check_scan_budget(5, 8, floor + 1)
    with pytest.raises(ValueError):
        counts._check_scan_budget(5, 8, floor)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_scan_prefixes_answer_below_m4(m, p):
    # the empty row is one orbit of size 1, so m = 1 (no row) and m = 2 (an
    # empty second row) get prefixes standing for all Q^C(m,2) forms, as
    # m = 3 does, and not the refusal
    ctx = hg.make_field(p, 1)
    prefixes, sizes = code._scan_prefixes(ctx, m, 1 << 24)
    assert int(sizes.sum()) == ctx.q2 ** (m * (m - 1) // 2)
    assert prefixes.dtype.kind == "i" and np.all(np.diff(prefixes) > 0)
    reps, one = code._orbits(ctx, np.zeros(0, dtype=np.int64))
    assert reps.tolist() == [0] and one.tolist() == [1]


def test_exhaustive_enumerator_62(system62):
    # The whole (6,2) weight enumerator: 4^15 forms from 67 two-row
    # prefixes of 4^6 scanned forms each.
    rep = code.spectrum(system62, mode="exhaustive")
    hist, n, q2 = rep.histogram, system62.n, 4
    assert rep.forms_scanned == sum(hist.values()) == q2**15
    assert (rep.min_nonzero_weight, hist[4032]) == (4032, 57024)
    assert len(hist) == 12 and hist[0] == 1  # the zero form and 11 nonzero weights
    assert sum(rep.min_weight_radical_dims.values()) == 57024
    code._check_macwilliams(hist, 6, 2)
    # B_3 by its own Krawtchouk sum
    krawtchouk3 = sum(
        a * sum((-1) ** i * (q2 - 1) ** (3 - i) * comb(w, i) * comb(n - w, 3 - i) for i in range(4))
        for w, a in hist.items()
    )
    assert krawtchouk3 == 1_060_290 * q2**15
    witness = code.AlternatingForm.from_upper(system62.ctx, 6, rep.min_weight_example)
    assert code.weight_direct(witness, system62) == 4032
    with pytest.raises(ValueError, match="budget"):
        code.spectrum(system62, mode="exhaustive", budget=67 * q2**6 - 1)


@pytest.fixture(scope="module")
def spectrum53(system53):
    return code.spectrum(system53, mode="exhaustive", jobs=1)


def test_exhaustive_enumerator_53(spectrum53):
    # The whole (5,3) weight enumerator, 9^10 forms from 521 two-row
    # prefixes of 9^3 scanned forms each, as the one-row scan gave it.
    rep = spectrum53
    assert rep.histogram == {
        0: 1, 5832: 11190816, 6048: 1248689520, 6075: 1151055360, 6102: 1075794048, 6561: 54656,
    }
    assert rep.forms_scanned == 9**10
    assert rep.min_weight_example == [0, 0, 0, 0, 0, 0, 0, 0, 1, 3]
    assert list(rep.min_weight_radical_dims.items()) == [(3, 1229760), (1, 9961056)]
    assert rep.min_word_class_sizes.sum() == 11190816 and np.all(np.diff(rep.min_word_indices) > 0)


def test_exhaustive_enumerator_45():
    # odd p with several norms per first row: 774 two-row prefixes of 25
    # forms cover the 25^6 forms, within a budget of exactly that many
    ctx = hg.make_field(5, 1)
    system = hg.build_system(hg.HermitianSpace(4, ctx))
    rep = code.spectrum(system, mode="exhaustive", budget=774 * 25)
    assert rep.histogram == {
        0: 1, 600: 75600, 625: 18144, 720: 81900000, 725: 47174400, 730: 113400000, 750: 1572480,
    }
    assert rep.forms_scanned == 25**6
    assert rep.min_nonzero_weight == counts.code_params(4, 5).d_min == 600
    assert rep.min_weight_example == [0, 0, 1, 1, 0, 0]
    assert rep.min_weight_radical_dims == {0: 75600}


def test_exhaustive_codewords_all_distinct(system42):
    ctx = system42.ctx
    seen = {
        code.codeword(code.AlternatingForm.from_upper(ctx, 4, up), system42).tobytes()
        for up in itertools.product(range(ctx.q2), repeat=6)
    }
    assert len(seen) == 4**6


def test_exhaustive_spectrum_respects_budget(system62):
    with pytest.raises(ValueError):
        code.spectrum(system62, mode="exhaustive", budget=1 << 18)


def _same_report(r1, r2):
    assert dataclasses.replace(r1, wall_time_s=0) == dataclasses.replace(r2, wall_time_s=0)
    assert list(r1.min_weight_radical_dims or {}) == list(r2.min_weight_radical_dims or {})
    assert np.array_equal(r1.min_word_indices, r2.min_word_indices)
    assert np.array_equal(r1.min_word_class_sizes, r2.min_word_class_sizes)


def test_worker_partition_merges_identically(monkeypatch, system42):
    monkeypatch.setattr(code.os, "cpu_count", lambda: 2)  # run the pool even on one CPU
    monkeypatch.setattr(code, "_POOL_FORMS", 1)  # and for the 4096 forms of (4,2)
    r1 = code.spectrum(system42, mode="exhaustive", jobs=1)
    r2 = code.spectrum(system42, mode="exhaustive", jobs=2)
    _same_report(r1, r2)


def test_worker_partition_odd_characteristic(monkeypatch, system43):
    # odd p goes through the add-table path inside the workers
    monkeypatch.setattr(code.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(code, "_POOL_FORMS", 1)
    r1 = code.spectrum(system43, mode="exhaustive", jobs=2)
    assert r1.min_nonzero_weight == 72
    assert sum(r1.histogram.values()) == 9**6
    assert list(r1.min_weight_radical_dims.items()) == [(0, 2016)]
    _same_report(r1, code.spectrum(system43, mode="exhaustive", jobs=1))


def test_worker_partition_53(monkeypatch, system53, spectrum53):
    # (5,3) scans 379 809 forms, fewer than _POOL_FORMS: through the pool
    # only with it patched, then each worker walks the parts of 521 prefixes
    monkeypatch.setattr(code.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(code, "_POOL_FORMS", 1)
    _same_report(code.spectrum(system53, mode="exhaustive", jobs=2), spectrum53)


def test_exhaustive_spectrum_matches_per_form_oracle(system42):
    # Every one of the 4096 forms, one at a time: direct weight and rank.
    ctx = system42.ctx
    hist, split, example = {}, {}, None
    forms = [
        code.AlternatingForm.from_upper(ctx, 4, up)
        for up in itertools.product(range(ctx.q2), repeat=6)
    ]
    weights = [code.weight_direct(phi, system42) for phi in forms]
    d = min(w for w in weights if w)
    for phi, w in zip(forms, weights):
        hist[w] = hist.get(w, 0) + 1
        if w == d:
            example = example or [int(x) for x in phi.upper()]
            split[phi.rad_dim] = split.get(phi.rad_dim, 0) + 1
    rep = code.spectrum(system42, mode="exhaustive")
    assert rep.histogram == hist
    assert rep.min_nonzero_weight == d
    assert rep.min_weight_example == example
    assert list(rep.min_weight_radical_dims.items()) == list(split.items())


def _kernel_codes(kernel, c):
    """Element codes of kernel codeword rows: the planes reassembled in
    characteristic 2; for odd p each nibble reduced mod p, then d0 + p d1."""
    if not kernel.planes:
        p = kernel.ctx.p
        return (c & 15) % p + p * ((c >> 4) % p)
    bits = np.unpackbits(c.reshape(len(c), kernel.planes, kernel.plane), axis=-1)[..., : kernel.n]
    return (bits << np.arange(kernel.planes, dtype=np.uint8)[None, :, None]).sum(axis=1)


def _check_walk(kernel, matrix, starts, size):
    """The chunks of the walk over the aligned blocks [s, s + size), s in
    starts, checked: each is whole segments of min(size, Q^g) indices, no
    more than _BLOCK_BYTES of codewords hold unless it is one segment;
    together they hold the indices of the blocks in order; and the masks
    are those of the products with the padding bits clear."""
    ctx, (k, n) = kernel.ctx, matrix.shape
    seg = min(size, ctx.q2**kernel.g)
    blocks = list(kernel.nonzero_masks(starts, size))
    assert all(len(b) % seg == 0 and seg <= len(b) <= max(seg, linalg._BLOCK_BYTES // kernel.width) for b in blocks)
    idx = np.concatenate([np.arange(s, s + size) for s in starts])
    bits = np.unpackbits(np.concatenate(blocks), axis=1)
    assert len(bits) == len(idx) and not bits[:, n:].any()
    assert np.array_equal(bits[:, :n], linalg.matmul(ctx, linalg._digits(idx, ctx.q2, k), matrix) != 0)
    return blocks


@pytest.mark.parametrize(
    "m,q", [(4, q) for q in hg.SUPPORTED_Q] + [(5, 2)], ids=lambda v: str(v)
)
def test_scan_kernel_matches_codeword_oracle(m, q):
    # Characteristic 2 runs the packed bit-plane path (GF(4), GF(16),
    # GF(64)), odd p the nibble path (GF(9), GF(25), GF(49)); (4,5) and
    # (4,7) sum 6 rows, past the 3 and 2 unreduced terms of p = 5 and 7.
    p = next(d for d in range(2, q + 1) if q % d == 0)
    ctx = hg.make_field(p, round(np.log(q) / np.log(p)))
    assert ctx.q == q
    system = hg.build_system(hg.HermitianSpace(m, ctx))
    kernel = linalg._ScanKernel(ctx, system.matrix)
    q2, k = ctx.q2, system.k
    assert [b - a for a, b in kernel.bounds][1:] == [kernel.g] * (len(kernel.bounds) - 1)
    assert q2**kernel.g <= linalg._GROUP_ROWS < q2 ** (kernel.g + 1)
    rng = np.random.default_rng(q2 + m)
    single = np.zeros((k, k), dtype=np.uint8)
    single[np.arange(k), np.arange(k)] = rng.integers(1, q2, size=k)
    last = np.zeros((6, k), dtype=np.uint8)
    last[:, kernel.bounds[-1][0] :] = rng.integers(1, q2, size=(6, k - kernel.bounds[-1][0]))
    digits = np.vstack([rng.integers(0, q2, size=(30, k), dtype=np.uint8), single, last])

    c = kernel.codewords(digits)
    assert c.shape == (len(digits), kernel.width)
    phis = [code.AlternatingForm.from_upper(ctx, m, r) for r in digits]
    weights = kernel.weights(digits, kernel.buffers(len(digits)))
    assert weights.tolist() == [code.weight_direct(f, system) for f in phis]
    assert np.array_equal(_kernel_codes(kernel, c), np.array([code.codeword(f, system) for f in phis]))
    # the walk shared by the exhaustive scan and the section table, on
    # blocks of a whole prefix and of a slice of the last table, at the
    # start, in the middle and at the end, found by arithmetic ((4,8) has
    # 64^6 indices)
    total = q2**k
    for size in (q2 ** (kernel.g - 1), q2**kernel.g):
        _check_walk(kernel, system.matrix, [0, total // size // 2 * size, total - size], size)


def test_scan_kernel_reduces_long_nibble_sums():
    # GF(9) with K = 16 gives 8 groups of 2 digits: a codeword sums 8
    # rows, one more than the 7 unreduced terms a nibble holds at p = 3
    ctx = hg.make_field(3, 1)
    rng = np.random.default_rng(16)
    n = 203
    matrix = rng.integers(0, ctx.q2, size=(16, n), dtype=np.uint8)
    kernel = linalg._ScanKernel(ctx, matrix)
    assert len(kernel.bounds) == 8 and kernel.g == 2
    digits = np.vstack(
        [
            rng.integers(0, ctx.q2, size=(40, 16), dtype=np.uint8),
            np.full((1, 16), ctx.q2 - 1, dtype=np.uint8),
            rng.integers(1, ctx.q2, size=(8, 16), dtype=np.uint8),
        ]
    )
    want = linalg.matmul(ctx, digits, matrix)
    assert np.array_equal(_kernel_codes(kernel, kernel.codewords(digits)), want)
    assert kernel.weights(digits, kernel.buffers(len(digits))).tolist() == (want != 0).sum(axis=1).tolist()
    # the walk, whose prefix codewords sum 7 rows, on the first, a middle
    # and the last prefix
    rows, total = ctx.q2**kernel.g, ctx.q2**16
    _check_walk(kernel, matrix, [0, total // rows // 2 * rows, total - rows], rows)
    # the two digits of a nibble byte are those of q = p only
    with pytest.raises(ValueError, match="q = p"):
        linalg._ScanKernel(types.SimpleNamespace(p=3, e=2, q=9), matrix)


@pytest.mark.parametrize("segments", [1, 3], ids=["one-prefix-blocks", "three-prefix-blocks"])
@pytest.mark.parametrize("p,e,k", [(2, 1, 6), (2, 2, 4), (3, 1, 4), (7, 1, 3)], ids=["GF4", "GF16", "GF9", "GF49"])
def test_scan_kernel_walks_counter_ranges(p, e, k, segments, monkeypatch):
    # Aligned blocks of Q^0 to Q^(g+1) indices, slices of the last table
    # up to Q^g and whole prefixes beyond, at the first, a middle and the
    # last start, with _BLOCK_BYTES holding one or three segments, a slice
    # or a prefix each, a chunk of the walk.
    ctx = hg.make_field(p, e)
    matrix = np.random.default_rng(ctx.q2).integers(0, ctx.q2, size=(k, 77), dtype=np.uint8)
    kernel = linalg._ScanKernel(ctx, matrix)
    total = ctx.q2**k
    assert kernel.g + 1 < k  # the indices have prefixes, and the starts differ
    for j in range(kernel.g + 2):
        size, seg = ctx.q2**j, ctx.q2 ** min(j, kernel.g)
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", segments * seg * kernel.width)
        blocks = _check_walk(kernel, matrix, [0, total // size // 2 * size, total - size], size)
        full, rest = divmod(3 * size, segments * seg)
        assert [len(b) for b in blocks] == [segments * seg] * full + [rest] * (rest > 0)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_scan_kernel_weights_across_blocks(q):
    # weights sums each block into the buffers a scan allocates once and
    # passes in, the last, shorter block into their first rows: row counts one short
    # of a block, one block, one over and two blocks and three rows.  With
    # K = 16 every odd p sums more rows than a nibble holds unreduced.
    ctx = hg.make_field(q, 1)
    rng = np.random.default_rng(q)
    matrix = rng.integers(0, ctx.q2, size=(16, 203), dtype=np.uint8)
    kernel = linalg._ScanKernel(ctx, matrix)
    step = linalg._BLOCK_BYTES // kernel.width
    for rows in (step - 1, step, step + 1, 2 * step + 3):
        digits = rng.integers(0, ctx.q2, size=(rows, 16), dtype=np.uint8)
        want = (linalg.matmul(ctx, digits, matrix) != 0).sum(axis=1)
        assert kernel.weights(digits, kernel.buffers(len(digits))).tolist() == want.tolist()


def test_spectrum_builds_one_kernel_per_system(ctx2, monkeypatch):
    # the system holds its kernel: two sample scans and an exhaustive one
    # build it once, and a system of permuted columns builds its own
    space = hg.HermitianSpace(4, ctx2)
    system = hg.build_system(space)
    built = []
    init = linalg._ScanKernel.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(linalg._ScanKernel, "__init__", counted_init)
    first = code.spectrum(system, mode="sample", seed=4, samples=500)
    again = code.spectrum(system, mode="sample", seed=4, samples=500)
    code.spectrum(system, mode="exhaustive", jobs=1)
    assert built == [system.scan_kernel]
    assert again.histogram == first.histogram
    perm = np.random.default_rng(4).permutation(system.n)
    foreign = hg.ProjectiveSystem(space, system.matrix[:, perm])
    permuted = code.spectrum(foreign, mode="sample", seed=4, samples=500)
    assert built == [system.scan_kernel, foreign.scan_kernel]
    assert permuted.histogram == first.histogram


def test_sample_spectrum_matches_per_form_oracle(system43):
    # the seeded draws of sample mode: chunks of 4096 rows, all-zero rows
    # redrawn until none is left
    ctx, k = system43.ctx, system43.k
    rng = np.random.default_rng(6)
    digits = rng.integers(0, ctx.q2, size=(300, k), dtype=np.uint8)
    zero = ~digits.any(axis=1)
    while zero.any():
        digits[zero] = rng.integers(0, ctx.q2, size=(int(zero.sum()), k), dtype=np.uint8)
        zero = ~digits.any(axis=1)
    weights = [
        code.weight_direct(code.AlternatingForm.from_upper(ctx, 4, d), system43) for d in digits
    ]
    rep = code.spectrum(system43, mode="sample", seed=6, samples=300)
    assert rep.histogram == {w: weights.count(w) for w in set(weights)}
    assert rep.min_nonzero_weight == min(weights)
    assert rep.min_weight_example == digits[int(np.argmin(weights))].tolist()
    assert rep.min_word_indices is None and rep.min_word_class_sizes is None


GOLDEN_52_HISTOGRAM = {0: 1, 192: 24948, 216: 295680, 224: 498960, 232: 228096, 256: 891}


def test_macwilliams_gate_rejects_tampered_histogram():
    code._check_macwilliams(FROZEN_42_HISTOGRAM, 4, 2)
    code._check_macwilliams(GOLDEN_52_HISTOGRAM, 5, 2)
    moved = dict(FROZEN_42_HISTOGRAM)
    moved[12] -= 1
    moved[16] += 1  # same total, wrong first moment
    with pytest.raises(RuntimeError, match="B_1"):
        code._check_macwilliams(moved, 4, 2)
    short = dict(FROZEN_42_HISTOGRAM)
    short[24] -= 1
    with pytest.raises(RuntimeError, match="B_0"):
        code._check_macwilliams(short, 4, 2)
    # two moves that keep the total and the first moment
    swapped = dict(FROZEN_42_HISTOGRAM)
    swapped[16] -= 2
    swapped[12] += 1
    swapped[20] += 1
    with pytest.raises(RuntimeError, match="B_2"):
        code._check_macwilliams(swapped, 4, 2)
    # 3 (1, -10, 15, -6) keeps the total and both Pless power moments but
    # moves B_3 from 5940 to 5940.94
    pless = dict(GOLDEN_52_HISTOGRAM)
    for w, d in zip((192, 216, 224, 232), (3, -30, 45, -18)):
        pless[w] += d
    for e in range(3):
        assert sum(w**e * a for w, a in pless.items()) == sum(
            w**e * a for w, a in GOLDEN_52_HISTOGRAM.items()
        )
    with pytest.raises(RuntimeError, match="B_3 = 5940.94"):
        code._check_macwilliams(pless, 5, 2)


@pytest.mark.parametrize(
    "mode, row, match",
    [
        ("sample", 0, "weight 0"),
        ("sample", 3, "weight 0"),
        # exhaustive mode scans the space's own generator only, so it
        # refuses the matrix before the class compression could hide the
        # weight-0 forms of S_01 behind the representative S_03
        ("exhaustive", 3, "build_system"),
        ("exhaustive", 0, "build_system"),
    ],
)
def test_spectrum_rejects_rank_deficient_system(space42, system42, mode, row, match):
    matrix = system42.matrix.copy()
    matrix[row] = 0  # every form with only S_ij (row (i, j)) nonzero has weight 0
    deficient = hg.ProjectiveSystem(space42, matrix)
    with pytest.raises(ValueError if mode == "exhaustive" else RuntimeError, match=match):
        code.spectrum(deficient, mode=mode, seed=1, samples=20_000)


def test_exhaustive_spectrum_refuses_a_foreign_system(space42, system42):
    # the generator's rows permuted span the same code, so the dual counts
    # B_0 .. B_3 hold, but its first rows are not the counter's first
    # digits, so the class compression does not apply
    foreign = hg.ProjectiveSystem(space42, system42.matrix[::-1])
    with pytest.raises(ValueError, match="build_system"):
        code.spectrum(foreign, mode="exhaustive")
    rep = code.spectrum(foreign, mode="sample", seed=1, samples=2000)
    assert sum(rep.histogram.values()) == 2000
    assert set(rep.histogram) <= set(code.spectrum(system42).histogram) - {0}


def test_sample_spectrum_reproducible(system42):
    r1 = code.spectrum(system42, mode="sample", seed=42, samples=500)
    r2 = code.spectrum(system42, mode="sample", seed=42, samples=500)
    assert r1.histogram == r2.histogram
    assert r1.forms_scanned == 500
    assert 0 not in r1.histogram
    assert r1.seed == 42


def test_min_distance_exhaustive(system42):
    d, cert = code.min_distance(system42, strategy="exhaustive")
    assert d == 12
    assert cert["strategy"] == "exhaustive"
    witness = code.AlternatingForm.from_upper(system42.ctx, 4, cert["witness_upper"])
    assert code.weight_direct(witness, system42) == 12


def test_min_distance_constructed(system62):
    d, cert = code.min_distance(system62, strategy="construct+sample", seed=5, samples=3000)
    assert d == 4032
    assert cert["witness_kind"] == "permutable"
    assert cert["weight"] == 4032
    assert cert["sample_min_weight"] >= 4032
    with pytest.raises(ValueError):
        code.min_distance(system62, strategy="guess")


def test_small_exhaustive_scan_forks_no_pool(monkeypatch, system52, system42):
    # the 2176 forms scanned at (5,2) repay no fork, whatever jobs asks for
    monkeypatch.setattr(code.os, "cpu_count", lambda: 8)
    with mock.patch("multiprocessing.get_context", side_effect=AssertionError("a pool was started")):
        rep = code.spectrum(system52, mode="exhaustive", jobs=8)
    assert rep.min_nonzero_weight == 192
    # (4,2) scans 60 forms: a pool when _POOL_FORMS is 60, none at 61
    import multiprocessing

    calls, real = [], multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda *a: calls.append(a) or real(*a))
    for forms in (61, 60):
        monkeypatch.setattr(code, "_POOL_FORMS", forms)
        code.spectrum(system42, mode="exhaustive", jobs=2)
    assert calls == [("fork",)]


def test_refusals(ctx2, space42, system42, space52):
    with pytest.raises(ValueError, match="must be square"):
        code.AlternatingForm(ctx2, np.zeros((2, 3), dtype=np.uint8))
    phi4 = code.AlternatingForm.from_upper(ctx2, 4, [1, 0, 0, 0, 0, 0])
    phi5 = code.AlternatingForm.from_upper(ctx2, 5, [1] + [0] * 9)
    with pytest.raises(ValueError, match="line basis must be 2 x m"):
        code.evaluate(phi4, np.eye(3, 4, dtype=np.uint8))
    with pytest.raises(ValueError, match="line basis must be 2 x m"):
        code.evaluate(phi4, np.eye(2, 5, dtype=np.uint8))
    with pytest.raises(ValueError, match="form does not match the system"):
        code.codeword(phi5, system42)
    with pytest.raises(ValueError, match="form does not match the space"):
        code.point_weights(phi4, space52)
    with pytest.raises(ValueError, match="positive sample count"):
        code.spectrum(system42, mode="sample", samples=0)
    with pytest.raises(ValueError, match="unknown mode 'guess'"):
        code.spectrum(system42, mode="guess")


def test_pool_size_is_capped(monkeypatch):
    monkeypatch.setattr(code.os, "cpu_count", lambda: 4)
    assert code._pool_size(1000, 16) == 4
    assert code._pool_size(2, 16) == 2
    assert code._pool_size(8, 3) == 3
    assert code._pool_size(8, 0) == 1
    monkeypatch.setattr(code.os, "cpu_count", lambda: None)
    assert code._pool_size(8, 16) == 1


def test_pool_size_never_exceeds_the_prefixes(monkeypatch):
    # each worker scans a run of at least one prefix
    monkeypatch.setattr(code.os, "cpu_count", lambda: 64)
    for prefixes in range(1, 20):
        for jobs in range(1, 70):
            assert 1 <= code._pool_size(jobs, prefixes) <= min(jobs, prefixes)
