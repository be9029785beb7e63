import functools
import hashlib
import io
import os

import numpy as np
import pytest

import hermgrass as hg
from hermgrass import code, counts, linalg, polar


def test_point_count_closed_form_values():
    assert counts.isotropic_point_count(0, 2) == 0
    assert counts.isotropic_point_count(1, 2) == 0
    assert counts.isotropic_point_count(2, 2) == 3
    assert counts.isotropic_point_count(3, 2) == 9
    assert counts.isotropic_point_count(4, 2) == 45
    assert counts.isotropic_point_count(5, 2) == 165
    assert counts.isotropic_point_count(6, 2) == 693
    assert counts.isotropic_point_count(4, 3) == 280
    assert counts.isotropic_point_count(5, 3) == 2440


def test_line_count_closed_form_values():
    assert counts.line_count(4, 2) == 27
    assert counts.line_count(5, 2) == 297
    assert counts.line_count(6, 2) == 6237
    assert counts.line_count(7, 2) == 89397
    assert counts.line_count(8, 2) == 1519749
    assert counts.line_count(4, 3) == 112
    assert counts.line_count(5, 3) == 6832


def test_cone_point_count_values():
    # empty vertex reduces to the nondegenerate section count
    assert counts.cone_point_count(5, 1, 0, 2) == counts.isotropic_point_count(3, 2)
    assert counts.cone_point_count(5, 1, 1, 2) == 13
    assert counts.cone_point_count(6, 1, 2, 2) == 53
    with pytest.raises(ValueError):
        counts.cone_point_count(5, 1, 4, 2)
    with pytest.raises(ValueError):
        counts.cone_point_count(5, 3, 0, 2)


@pytest.mark.parametrize("m,q", [(2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (4, 3), (5, 3)])
def test_point_enumeration_matches_count(m, q):
    ctx = hg.make_field(q, 1)
    space = hg.HermitianSpace(m, ctx)
    assert space.num_points == counts.isotropic_point_count(m, q)


@pytest.mark.parametrize("p,e", [(2, 2), (5, 1), (7, 1), (2, 3)])
def test_point_enumeration_headroom_fields(p, e):
    ctx = hg.make_field(p, e)
    space = hg.HermitianSpace(4, ctx)
    assert space.num_points == counts.isotropic_point_count(4, ctx.q)


@pytest.mark.parametrize("p,e,n", [(2, 2, 325), (5, 1, 756)])
def test_line_enumeration_headroom_fields(p, e, n):
    ctx = hg.make_field(p, e)
    space = hg.HermitianSpace(4, ctx)
    assert space.num_lines == counts.line_count(4, ctx.q) == n


def test_points_are_normalized_isotropic_and_lex_sorted(space52):
    pts = space52.points()
    leads = (pts != 0).argmax(axis=1)
    assert np.all(pts[np.arange(len(pts)), leads] == 1)
    tuples = [tuple(int(x) for x in row) for row in pts]
    assert tuples == sorted(tuples)
    assert len(set(tuples)) == len(tuples)
    for row in pts[::17]:
        assert space52.inner(row, row) == 0


def test_inner_sesquilinear(space42):
    ctx = space42.ctx
    rng = np.random.default_rng(9)
    for _ in range(25):
        x = rng.integers(0, 4, size=4, dtype=np.uint8)
        y = rng.integers(0, 4, size=4, dtype=np.uint8)
        alpha = int(rng.integers(1, 4))
        ax = ctx.mul[alpha, x]
        ay = ctx.mul[alpha, y]
        v = space42.inner(x, y)
        assert space42.inner(ax, y) == ctx.mul[ctx.frob[alpha], v]
        assert space42.inner(x, ay) == ctx.mul[alpha, v]
        assert space42.inner(y, x) == ctx.frob[v]


def test_isotropic_vector_with_unit_coordinates(ctx2):
    # (1, g, 0, 0) with g any nonzero element of GF(4) has zero norm sum
    space = hg.HermitianSpace(4, ctx2)
    x = np.array([1, 2, 0, 0], dtype=np.uint8)
    assert space.inner(x, x) == 0


def _naive_line_bases(space):
    """Oracle: scan ordered point pairs, canonicalize by RREF, dedup.

    Orthogonality comes from one Gram product of all points, and each
    pair (u, v) of normalized points is brought to RREF at once: the row
    of smaller lead first, less the other row when the leads are equal,
    the second row scaled to a unit pivot and cleared from the first.
    So the scan shares no code with the lead-block search it checks.
    Returns the distinct flattened bases in ascending order.
    """
    ctx = space.ctx
    pts = space.points()
    gram = linalg.matmul(ctx, ctx.frob[pts], pts.T)
    assert not np.diagonal(gram).any()
    i, j = np.nonzero(gram == 0)
    u, v = pts[i[i < j]], pts[j[i < j]]
    lead_u, lead_v = (u != 0).argmax(axis=1), (v != 0).argmax(axis=1)
    swap = (lead_v < lead_u)[:, None]
    r1, r2 = np.where(swap, v, u), np.where(swap, u, v)
    r2 = np.where((lead_u == lead_v)[:, None], linalg.fsub(ctx, r2, r1), r2)
    assert r2.any(axis=1).all()
    rows = np.arange(len(r2))
    pivot = (r2 != 0).argmax(axis=1)
    r2 = ctx.mul[ctx.inv[r2[rows, pivot]][:, None], r2]
    r1 = linalg.fsub(ctx, r1, ctx.mul[r1[rows, pivot][:, None], r2])
    return np.unique(np.hstack([r1, r2]), axis=0)


@pytest.mark.parametrize(
    "m,p,e",
    [(4, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2, 1), (5, 3, 1)],
    ids=["4-2", "4-3", "4-4", "5-2", "5-3"],
)
def test_line_enumeration_against_scan_and_dedup_oracle(m, p, e):
    # at m = 5 one a pairs with b of up to three leads, so a wrong merge
    # of the lead blocks shows here
    space = hg.HermitianSpace(m, hg.make_field(p, e))
    pts = space.points()
    a, b = space.line_pair_indices()
    assert len(a) == counts.line_count(m, space.ctx.q)
    assert np.array_equal(np.hstack([pts[a], pts[b]]), _naive_line_bases(space))


# sha256 of the stacked int64 (a_idx, b_idx) pairs, recorded from the
# earlier per-point enumeration (the (7, 2) entry from the keyed search
# with one sort that came after it), so a change of line order shows here.
LINE_PAIR_SHA256 = {
    (7, 2, 1): "bd0dc1c122e43eb3dcfedbd0e5bfde93d9b1d5a69545e29e8c48143273bc91ce",
    (6, 2, 1): "b7972dac2ec34020b93d2ff5b659e6ec3e44bcb834b88bb0ffbde39bab1a7b4d",
    (5, 3, 1): "33db03b267d0b63d83174506773fc2610c8730e4abe2c9b1801e1bc2e69836b0",
    (4, 5, 1): "1f73ad3711e9303ace7d94f48dacca9fe1a14bd55376171d95ee80da40370234",
    (4, 2, 2): "7f1dc8e41a9b2ae7227f1467bc4fb3efe4b4554a03ca4413b1829a89a30cbc20",
    (4, 7, 1): "f627d90254a20538b0655d3180c377f5bcd8900c6890979ca8aa1e0aa13a50da",
    (4, 2, 3): "981be7fd49d0e7ab611fc95e5d6ec236bfd3e911339cc3663c0236d01769617d",
}


@pytest.mark.parametrize("m,p,e", sorted(LINE_PAIR_SHA256))
def test_line_pair_indices_pinned(m, p, e):
    space = hg.HermitianSpace(m, hg.make_field(p, e))
    a, b = space.line_pair_indices()
    assert a.dtype == b.dtype == np.uint16
    got = hashlib.sha256(np.stack([a, b]).astype(np.int64).tobytes()).hexdigest()
    assert got == LINE_PAIR_SHA256[(m, p, e)]


def test_line_pairs_of_more_points_than_uint16_holds_are_int32(monkeypatch):
    # (4,2,2) has 1105 points; with a lower bound its pairs take int32
    monkeypatch.setattr(polar, "_UINT16_POINTS", 1104)
    a, b = hg.HermitianSpace(4, hg.make_field(2, 2)).line_pair_indices()
    assert a.dtype == b.dtype == np.int32
    got = hashlib.sha256(np.stack([a, b]).astype(np.int64).tobytes()).hexdigest()
    assert got == LINE_PAIR_SHA256[(4, 2, 2)]


# sha256 of the stacked int64 (ui, xi) orthogonal point pairs, recorded
# from the earlier per-point loop; the pairs come from the test-side
# oracle conftest.PairOracle.
ORTH_PAIR_SHA256 = {
    "6-2": "38848d120e168227bcc15942ba5bc1964ff175e6b0051675b663560fafc93b60",
    "5-3": "e1adec48ddc443605a8869838afabcf24464676dd2310355084b53a74aaa9be7",
    "4-3": "82f74313300eaf3ecf0bdad83988a2c2e13c3548c1db6c43da17c0b46d641430",
}


@functools.cache
def _orth_space(tag):
    m, q = (int(x) for x in tag.split("-"))
    return hg.HermitianSpace(m, hg.make_field(q, 1))


@pytest.mark.parametrize("tag", sorted(ORTH_PAIR_SHA256))
def test_orthogonal_point_pairs_pinned(tag, pair_oracle):
    space = _orth_space(tag)
    ui, xi = pair_oracle.pairs(space)
    assert ui.dtype == xi.dtype == np.int32
    q = space.ctx.q
    assert len(ui) == space.num_points * (1 + q * q * counts.isotropic_point_count(space.m - 2, q))
    got = hashlib.sha256(np.stack([ui, xi]).astype(np.int64).tobytes()).hexdigest()
    assert got == ORTH_PAIR_SHA256[tag]


@pytest.mark.parametrize("tag", sorted(ORTH_PAIR_SHA256))
def test_point_weights_match_pair_oracle(tag, pair_oracle, seeded_forms):
    space = _orth_space(tag)
    for phi in seeded_forms(space.ctx, space.m, 17, 6):
        assert np.array_equal(code.point_weights(phi, space), pair_oracle.point_weights(phi, space))


@pytest.mark.parametrize("m,p,e", [(4, 2, 1), (5, 3, 1), (4, 5, 1), (3, 7, 1)])
def test_point_index_inverts_all_points(m, p, e):
    space = hg.HermitianSpace(m, hg.make_field(p, e))
    allp = space.all_points()
    assert np.array_equal(space.point_index(allp), np.arange(len(allp)))
    # every nonzero multiple of a row names the same point; zero rows get -1
    ctx = space.ctx
    rng = np.random.default_rng(3)
    rows = rng.integers(0, len(allp), size=200)
    scale = rng.integers(1, ctx.q2, size=200)
    assert np.array_equal(space.point_index(ctx.mul[scale[:, None], allp[rows]]), rows)
    assert space.point_index(np.zeros((2, m), dtype=np.uint8)).tolist() == [-1, -1]
    # the isotropic rows kept by points() are those point_index names
    assert np.array_equal(space.point_index(space.points()), np.flatnonzero(space.inner_diag(allp) == 0))


@pytest.mark.parametrize("block", [None, 1], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("m,p,e", [(4, 2, 1), (4, 3, 1), (5, 2, 1), (4, 2, 2)])
def test_section_table_matches_brute_force(m, p, e, block, monkeypatch):
    # (4, 2, 2) is GF(16): 4 bit-planes and 1105 points, a partial last byte
    if block is not None:
        # one segment per chunk of the kernel walk, so the leads with
        # several prefixes span several chunks
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", block)
    space = hg.HermitianSpace(m, hg.make_field(p, e))
    table = space.section_table()
    zero = linalg.matmul(space.ctx, space.all_points(), space.points().T) == 0
    used = -(-space.num_points // 8)
    # rows are padded with zero bytes to whole 8-byte words
    assert table.shape == (len(zero), -(-used // 8) * 8)
    assert np.array_equal(table[:, :used], np.packbits(zero, axis=1))
    assert not table[:, used:].any()
    # the perp of every isotropic point holds perp_size isotropic points
    assert (zero[space.perp_index()].sum(axis=1) == space.perp_size).all()


def test_section_table_over_available_memory_is_none(monkeypatch):
    ctx = hg.make_field(2, 1)
    short, fits = hg.HermitianSpace(4, ctx), hg.HermitianSpace(4, ctx)
    short.points()
    fits.points()
    # (4^4 - 1)/3 rows of ceil(45/8) = 6 bytes, padded to 8, and the 45
    # held perp rows in the same allocation: the table alone fitting is
    # not enough
    monkeypatch.setattr(polar, "_available_memory", lambda: (85 + 45) * 8 - 1)
    assert short.section_table() is None and short.perp_sections() is None
    monkeypatch.setattr(polar, "_available_memory", lambda: (85 + 45) * 8)
    table, held = fits.section_table(), fits.perp_sections()
    assert table.nbytes == 85 * 8 and held.nbytes == 45 * 8
    assert np.array_equal(held, table[fits.perp_index()])
    assert not table.flags.writeable and not held.flags.writeable


def test_section_table_checks_perp_sizes(monkeypatch):
    # every perp holds 1 + q^2 mu(m-2) isotropic points; a wrong count
    # for mu stands in for a corrupted table
    space = hg.HermitianSpace(4, hg.make_field(2, 1))
    space.points()
    monkeypatch.setattr(counts, "isotropic_point_count", lambda m, q: 0)
    with pytest.raises(RuntimeError, match="perp section"):
        space.section_table()


def test_line_enumeration_over_available_memory_raises(monkeypatch):
    # (6,2) has 6237 lines at polar._LINE_BYTES each; a tiny figure of
    # available memory stands in for a machine too small, so nothing big
    # is allocated, not even the points
    need = 6237 * polar._LINE_BYTES
    ctx = hg.make_field(2, 1)
    short, fits = hg.HermitianSpace(6, ctx), hg.HermitianSpace(6, ctx)
    monkeypatch.setattr(polar, "_available_memory", lambda: need - 1)
    message = f"the 6237 totally isotropic lines of PG\\(5, 4\\) need {need} bytes"
    with pytest.raises(ValueError, match=message):
        short.line_pair_indices()
    assert "points" not in short._cache and "all_points" not in short._cache
    monkeypatch.setattr(polar, "_available_memory", lambda: need)
    assert fits.num_lines == 6237


def test_available_memory_falls_back_to_physical(monkeypatch):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 0 < polar._available_memory() <= physical

    # a kernel without the MemAvailable field, then no /proc/meminfo
    monkeypatch.setattr(polar, "open", lambda *a: io.BytesIO(b"MemTotal: 1000 kB\n"), raising=False)
    assert polar._available_memory() == physical

    def no_meminfo(path, mode):
        raise FileNotFoundError(path)

    monkeypatch.setattr(polar, "open", no_meminfo, raising=False)
    assert polar._available_memory() == physical


def test_lines_sorted_by_canonical_key(space52):
    pts = space52.points()
    a, b = (pts[i] for i in space52.line_pair_indices())
    keys = [np.hstack([a[i], b[i]]).tobytes() for i in range(len(a))]
    assert keys == sorted(keys)


def test_line_bases_are_rref_and_totally_isotropic(space52):
    ctx, pts = space52.ctx, space52.points()
    a, b = (pts[i] for i in space52.line_pair_indices())
    sample = range(0, len(a), 13)
    for i in sample:
        basis = np.stack([a[i], b[i]])
        r, rk = linalg.rref(ctx, basis)
        assert rk == 2 and np.array_equal(r, basis)
        # every projective point on the line is isotropic, pairwise orthogonal rows
        assert space52.inner(a[i], b[i]) == 0
        for alpha in range(ctx.q2):
            pt = linalg.fadd(ctx, ctx.mul[alpha, a[i]], b[i])
            assert space52.inner(pt, pt) == 0
        assert space52.inner(a[i], a[i]) == 0


def test_enumerate_objects(space42, ctx2):
    pts = space42.points()
    assert pts.shape == (45, 4) and pts.dtype == np.uint8
    a_idx, b_idx = space42.line_pair_indices()
    assert len(a_idx) == 27
    assert len({(pts[a].tobytes(), pts[b].tobytes()) for a, b in zip(a_idx, b_idx)}) == 27
    assert hg.HermitianSpace(3, ctx2).num_lines == 0


def test_perp_dimensions_and_membership(space52):
    ctx = space52.ctx
    eye = np.eye(5, dtype=np.uint8)
    assert polar.perp(space52, eye).shape == (0, 5)
    assert np.array_equal(polar.perp(space52, np.zeros((0, 5), dtype=np.uint8)), eye)
    u = space52.points()[7]
    pp = polar.perp(space52, u.reshape(1, -1))
    assert len(pp) == 4
    assert linalg.rank(ctx, np.vstack([pp, u])) == len(pp)


def test_radical_profile_extremes(space52):
    prof = polar.radical_profile(space52, np.eye(5, dtype=np.uint8)[:3])
    assert prof.t == 0 and prof.label == "[Pi_0]H_3"
    a, b = space52.line_pair_indices()
    prof = polar.radical_profile(space52, space52.points()[[a[0], b[0]]])
    assert prof.t == 2 and prof.dim == 2
    prof = polar.radical_profile(space52, np.zeros((0, 5), dtype=np.uint8))
    assert (prof.dim, prof.t, prof.label) == (0, 0, "[Pi_0]H_0")


def _subspace_points(ctx, basis):
    """All normalized points of the row span (small cases only)."""
    d, m = basis.shape
    q2 = ctx.q2
    out = []
    for lead in range(d):
        tail = d - 1 - lead
        for n in range(q2**tail):
            coeff = np.zeros(d, dtype=np.uint8)
            coeff[lead] = 1
            rest = n
            for k in range(tail - 1, -1, -1):
                coeff[lead + 1 + k] = rest % q2
                rest //= q2
            out.append(linalg.matmul(ctx, coeff.reshape(1, -1), basis)[0])
    return out


def test_min_witness_radical_profile_and_point_count(space52):
    space = space52
    phi = hg.make_rank2_cone_form(space)
    prof = polar.radical_profile(space, phi.radical)
    assert phi.rad_dim == 3
    assert prof.t == 1 and prof.label == "[Pi_1]H_2"
    on_variety = sum(
        1 for v in _subspace_points(space.ctx, phi.radical) if space.inner(v, v) == 0
    )
    assert on_variety == counts.cone_point_count(5, 1, 1, 2) == 13


def test_cone_count_matches_enumeration_on_random_subspaces(space52, space62):
    """Any subspace section is a cone over a nondegenerate piece, so its
    point count follows from (dim, t) alone."""
    rng = np.random.default_rng(71)
    for space in (space52, space62):
        ctx = space.ctx
        q2 = ctx.q2
        for _ in range(12):
            d = int(rng.integers(1, space.m))
            rows = rng.integers(0, q2, size=(d, space.m), dtype=np.uint8)
            sub, dim = linalg.rref(ctx, rows)
            sub = sub[:dim]
            if dim == 0:
                continue
            prof = polar.radical_profile(space, sub)
            count = sum(
                1 for v in _subspace_points(ctx, sub) if space.inner(v, v) == 0
            )
            expected = q2**prof.t * counts.isotropic_point_count(
                dim - prof.t, ctx.q
            ) + (q2**prof.t - 1) // (q2 - 1)
            assert count == expected


def test_radical_profile_obeys_submatrix_rank_bound(space62):
    rng = np.random.default_rng(17)
    ctx = space62.ctx
    for _ in range(40):
        upper = rng.integers(0, 4, size=15, dtype=np.uint8)
        if not upper.any():
            continue
        phi = hg.AlternatingForm.from_upper(ctx, 6, upper)
        i = phi.rank // 2
        prof = polar.radical_profile(space62, phi.radical)
        assert prof.t <= min(2 * i, 6 - 2 * i)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_cone_count_monotone_chains(q):
    for m in range(4, 21):
        for i in range(1, m // 2 + 1):
            tmax = min(2 * i, m - 2 * i)
            seq = [counts.cone_point_count(m, i, t, q) for t in range(tmax + 1)]
            for t in range(tmax - 1):
                if m % 2 == 0:
                    if t % 2 == 0:
                        assert seq[t + 2] > seq[t]
                    else:
                        assert seq[t + 2] < seq[t]
                else:
                    if t % 2 == 0:
                        assert seq[t + 2] < seq[t]
                    else:
                        assert seq[t + 2] > seq[t]
            if tmax >= 1:
                if m % 2 == 0:
                    assert seq[0] > seq[1]
                else:
                    assert seq[0] < seq[1]
            # the branch rule used by the bound machinery picks the maximum
            assert max(seq) == hg.cone_count_max(m, i, q)


def test_m1_space_has_empty_section_table_and_zero_weight(ctx2, ctx3):
    # V(1, q^2) has no isotropic points: one hyperplane row of width 0
    for ctx in (ctx2, ctx3):
        space = hg.HermitianSpace(1, ctx)
        assert space.section_table().shape == (1, 0)
        zero = code.AlternatingForm(ctx, np.zeros((1, 1), dtype=np.uint8))
        assert code.weight_recursive(zero, space) == 0


def test_refusals(ctx2, space42):
    with pytest.raises(ValueError, match="m must be positive"):
        hg.HermitianSpace(0, ctx2)
    with pytest.raises(ValueError, match="vector length"):
        space42.inner([1, 0, 0], [1, 0, 0, 0])
    with pytest.raises(ValueError, match="vector length"):
        space42.inner([1, 0, 0, 0], [1, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        polar.perp(space42, np.eye(1, 5, dtype=np.uint8))
    for i in (0, 3):  # rank 2i of a form on V(4, q^2) is 2 or 4
        with pytest.raises(ValueError, match=f"i = {i} out of range for m = 4"):
            hg.cone_count_max(4, i, 2)
