import hashlib

import numpy as np
import pytest

import hermgrass as hg
from hermgrass import linalg, pluecker, polar


def test_pair_indices_order():
    assert pluecker.pair_indices(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_coordinate_basis_plane(ctx2):
    basis = np.zeros((2, 4), dtype=np.uint8)
    basis[0, 0] = 1
    basis[1, 1] = 1
    coords = pluecker.pluecker_point(ctx2, basis)
    expect = np.zeros(6, dtype=np.uint8)
    expect[0] = 1
    assert np.array_equal(coords, expect)


def test_basis_change_invariance(ctx2):
    # span{e1, e2} and span{e1 + e2, e2} give the same point
    b1 = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)
    b2 = np.array([[1, 1, 0, 0], [0, 1, 0, 0]], dtype=np.uint8)
    assert np.array_equal(pluecker.pluecker_point(ctx2, b1), pluecker.pluecker_point(ctx2, b2))
    rng = np.random.default_rng(23)
    basis = np.array([[1, 0, 2, 3, 1], [0, 1, 1, 0, 2]], dtype=np.uint8)
    ref = pluecker.pluecker_point(ctx2, basis)
    for _ in range(20):
        t = rng.integers(0, 4, size=(2, 2), dtype=np.uint8)
        if linalg.rank(ctx2, t) != 2:
            continue
        other = linalg.matmul(ctx2, t, basis)
        assert np.array_equal(pluecker.pluecker_point(ctx2, other), ref)


def test_degenerate_basis_rejected(ctx2):
    v = np.array([1, 2, 3, 0], dtype=np.uint8)
    with pytest.raises(ValueError):
        pluecker.pluecker_point(ctx2, np.stack([v, ctx2.mul[2, v]]))
    with pytest.raises(ValueError, match="need exactly 2 basis rows"):
        pluecker.pluecker_point(ctx2, np.eye(3, 4, dtype=np.uint8))


def test_quadratic_relations_on_enumerated_lines(space52, space43):
    for space in (space52, space43):
        ctx = space.ctx
        m = space.m
        pairs = pluecker.pair_indices(m)
        pos = {pq: k for k, pq in enumerate(pairs)}
        pts = space.points()
        a, b = (pts[i] for i in space.line_pair_indices())
        for idx in range(0, len(a), 11):
            p = pluecker.pluecker_point(ctx, np.stack([a[idx], b[idx]]))
            for i in range(m):
                for j in range(i + 1, m):
                    for k in range(j + 1, m):
                        for l in range(k + 1, m):
                            t1 = ctx.mul[p[pos[(i, j)]], p[pos[(k, l)]]]
                            t2 = ctx.mul[p[pos[(i, k)]], p[pos[(j, l)]]]
                            t3 = ctx.mul[p[pos[(i, l)]], p[pos[(j, k)]]]
                            acc = linalg.fadd(ctx, linalg.fsub(ctx, t1, t2), t3)
                            assert acc == 0


@pytest.mark.parametrize(
    "fix,k,n", [("system42", 6, 27), ("system52", 10, 297), ("system62", 15, 6237)]
)
def test_system_shapes(request, fix, k, n):
    system = request.getfixturevalue(fix)
    assert (system.k, system.n) == (k, n)
    assert system.matrix.shape == (k, n)


def test_system_rank_and_injectivity(system42, system52):
    for system in (system42, system52):
        assert linalg.rank(system.ctx, system.matrix) == system.k
        cols = {system.matrix[:, j].tobytes() for j in range(system.n)}
        assert len(cols) == system.n


def test_columns_are_normalized(system52):
    g = system52.matrix
    lead = (g != 0).argmax(axis=0)
    assert np.all(g[lead, np.arange(g.shape[1])] == 1)


def test_columns_match_pointwise_embedding(system42):
    space = system42.space
    pts = space.points()
    a, b = (pts[i] for i in space.line_pair_indices())
    for j in range(0, system42.n, 5):
        col = pluecker.pluecker_point(space.ctx, np.stack([a[j], b[j]]))
        assert np.array_equal(col, system42.matrix[:, j])


# GF(4) and GF(16) (2 and 4 bits of shift-and-add), GF(64) (6 bits),
# GF(9) (uint8 flat codes) and GF(25) (uint16 flat codes)
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)])
def test_every_column_matches_pluecker_point(p, e):
    ctx = hg.make_field(p, e)
    space = hg.HermitianSpace(4, ctx)
    g = hg.build_system(space).matrix
    pts = space.points()
    a, b = (pts[i] for i in space.line_pair_indices())
    for j in range(len(a)):
        assert np.array_equal(g[:, j], pluecker.pluecker_point(ctx, np.stack([a[j], b[j]])))


# sha256 of system.matrix, recorded from a table-lookup fill over the
# gathered line bases, before the blocked flat-code fill; (8,2,1) and
# (5,2,2) from the flat-code fill, before the shift-and-add fill
GENERATOR_SHA256 = {
    (4, 2, 1): "72f0027bd1249fb464188be4a131e766cb7f8092e1189b8973e5d25f4c2bf407",
    (4, 2, 2): "dcd2687179622eafdf8eda216144547582d2bd6d6fe5076fd80672f14863a3d6",
    (4, 5, 1): "a2f849fb3610f6ff1c7b9a0f463be8cc7fea022a2fee97eebf0c523eb354c167",
    (4, 7, 1): "f76ec43d73fc6845b1c72984fca4611271a68c4025b34cb59b0446dafdec4075",
    (4, 2, 3): "134a682b0c996ed1a0a67d2bffa54de45542cce4ee560a4c73b4e74bcfcbdbeb",
    (5, 3, 1): "64099dd54a1e2c30679f0c92ec33d55384670f4503df3276ea9eed31ff977780",
    (6, 2, 1): "c4ec6015ca3491ca4623a8f29542fe8b07fe19824f25bf9461b5cbf1f2cbb073",
    (7, 2, 1): "5b1dbd71eb12a265b2e55be889bf28b301b3f108e3a9e0d308a8d367e0dfe2c7",
    (8, 2, 1): "ffeb5d74505316a9d748c63fe2ea611cf62f2143d17c1bc49de1c8a45dea36e4",
    (5, 2, 2): "4b0bad10a8783ea172bfccd42e7062b9d708578faf0a8aefc921891af1ab0188",
}


@pytest.mark.parametrize("m,p,e", sorted(GENERATOR_SHA256))
def test_generator_pinned(m, p, e):
    system = hg.build_system(hg.HermitianSpace(m, hg.make_field(p, e)))
    assert system.matrix.dtype == np.uint8
    assert hashlib.sha256(system.matrix.tobytes()).hexdigest() == GENERATOR_SHA256[(m, p, e)]


# (4,2,2) has runs of 5 lines per a, each longer than a block of 4; at
# (5,3,1) and (6,2,1) some runs are longer than 8 lines and others share
# a block of 8
@pytest.mark.parametrize("m,p,e,block", [(4, 2, 2, 4), (5, 3, 1, 8), (6, 2, 1, 8)])
def test_fill_blocks_of_whole_runs_match_pins(monkeypatch, m, p, e, block):
    fill, blocks = pluecker._fill_block, []

    def spy(ctx, heads, runs, b, g):
        blocks.append(runs.tolist())
        fill(ctx, heads, runs, b, g)

    monkeypatch.setattr(pluecker, "_LINE_BLOCK", block)
    monkeypatch.setattr(pluecker, "_fill_block", spy)
    system = hg.build_system(hg.HermitianSpace(m, hg.make_field(p, e)))
    assert hashlib.sha256(system.matrix.tobytes()).hexdigest() == GENERATOR_SHA256[(m, p, e)]
    assert all(len(runs) == 1 or sum(runs) <= block for runs in blocks)
    assert any(sum(runs) > block for runs in blocks)
    assert any(len(runs) > 1 for runs in blocks) == (m > 4)


def test_build_system_over_available_memory_raises(monkeypatch):
    # the 15 x 6237 matrix at (6,2) is bounded before the lines are
    # searched, whose 6237 * polar._LINE_BYTES bytes are fewer
    space = hg.HermitianSpace(6, hg.make_field(2, 1))
    monkeypatch.setattr(polar, "_available_memory", lambda: 15 * 6237 - 1)
    with pytest.raises(ValueError, match="the 15 x 6237 generator matrix needs 93555 bytes"):
        hg.build_system(space)
    assert "line_pairs" not in space._cache
    monkeypatch.setattr(polar, "_available_memory", lambda: 15 * 6237)
    assert hg.build_system(space).matrix.shape == (15, 6237)


def test_scan_kernel_over_available_memory_raises(monkeypatch):
    # the (6,2) kernel holds 64 + 3 x 256 rows of 2 planes of 784 bytes;
    # they are bounded before any is allocated
    space = hg.HermitianSpace(6, hg.make_field(2, 1))
    system = hg.build_system(space)
    monkeypatch.setattr(polar, "_available_memory", lambda: 1304575)
    with pytest.raises(ValueError, match="the scan tables of the 15 x 6237 matrix need 1304576 bytes"):
        hg.spectrum(system, mode="sample", samples=5)
    assert "scan_kernel" not in vars(system)
    monkeypatch.setattr(polar, "_available_memory", lambda: 1304576)
    assert sum(t.nbytes for t in system.scan_kernel.tables) == 1304576


def test_build_requires_m_at_least_4(ctx2):
    space = hg.HermitianSpace(3, ctx2)
    with pytest.raises(ValueError):
        hg.build_system(space)


def test_rank_deficient_generator_raises(ctx2, monkeypatch):
    space = hg.HermitianSpace(4, ctx2)
    a, b = space.line_pair_indices()
    # three lines give a 6 x 3 generator, rank at most 3 < C(4,2)
    monkeypatch.setattr(space, "line_pair_indices", lambda: (a[:3], b[:3]))
    with pytest.raises(RuntimeError, match="rank"):
        hg.build_system(space)
