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


# blocks of 64 lines start inside runs of one a at each of these sizes,
# and cut them: the characteristic-2 plane fill at (4,2,2) and (6,2,1),
# the odd-p byte fill at (5,3,1)
@pytest.mark.parametrize("m,p,e", [(4, 2, 2), (5, 3, 1), (6, 2, 1)])
def test_fill_blocks_that_cut_runs_match_pins(monkeypatch, m, p, e):
    name = "_fill_planes" if p == 2 else "_fill_block"
    fill, blocks = getattr(pluecker, name), []

    def spy(ctx, heads, runs, b, out):
        blocks.append(runs.tolist())
        fill(ctx, heads, runs, b, out)

    monkeypatch.setattr(pluecker, "_LINE_BLOCK", 64)
    monkeypatch.setattr(pluecker, name, spy)
    space = hg.HermitianSpace(m, hg.make_field(p, e))
    system = hg.build_system(space)
    assert hashlib.sha256(system.matrix.tobytes()).hexdigest() == GENERATOR_SHA256[(m, p, e)]
    a, _ = space.line_pair_indices()
    assert [sum(runs) for runs in blocks] == [min(64, len(a) - lo) for lo in range(0, len(a), 64)]
    assert any(a[lo] == a[lo - 1] for lo in range(64, len(a), 64))


def _byte_generator(space):
    """The generator from one ``ctx.mul`` lookup per product of the
    gathered line bases, apart from the fill."""
    ctx, pts = space.ctx, space.points()
    a, b = (pts[i].T for i in space.line_pair_indices())
    rows = [linalg.fsub(ctx, ctx.mul[a[i], b[j]], ctx.mul[a[j], b[i]]) for i, j in pluecker.pair_indices(space.m)]
    return np.array(rows, dtype=np.uint8)


@pytest.mark.parametrize("m,p,e", [(4, 2, 1), (4, 2, 2), (4, 2, 3), (6, 2, 1), (7, 2, 1), (5, 2, 2)])
def test_plane_fill_matches_packed_byte_fill(m, p, e):
    space = hg.HermitianSpace(m, hg.make_field(p, e))
    system = hg.build_system(space)
    want = _byte_generator(space)
    bits = 2 * e
    assert np.array_equal(system.planes, linalg._pack_planes(want, bits).view(np.uint64).reshape(system.planes.shape))
    assert not system.planes.flags.writeable
    assert np.array_equal(system.matrix, want)


def test_char2_matrix_unpacks_on_every_read(monkeypatch):
    space = hg.HermitianSpace(6, hg.make_field(2, 1))
    system = hg.build_system(space)
    g = system.matrix
    assert g.dtype == np.uint8 and not g.flags.writeable
    again = system.matrix
    assert again is not g and np.array_equal(again, g)
    assert "matrix" not in vars(system)
    assert not any(isinstance(v, np.ndarray) and v.dtype == np.uint8 for v in vars(system).values())
    # rows of 64 columns: 6237 columns end in a partial row
    monkeypatch.setattr(linalg, "DOT_BLOCK", 64)
    assert np.array_equal(system.matrix, g)


def test_constructor_packs_a_matrix_as_the_fill_does(system62, system52):
    for system in (system62, system52):
        again = hg.ProjectiveSystem(system.space, system.matrix)
        assert np.array_equal(again.matrix, system.matrix)
    assert np.array_equal(hg.ProjectiveSystem(system62.space, system62.matrix).planes, system62.planes)


def test_kernel_tables_from_planes_match_tables_from_bytes():
    # the tables as they were built before the planes: each row's Q
    # multiples by one np.take from ctx.mul, then packed
    for m, p, e in [(4, 2, 1), (4, 2, 3), (5, 2, 2), (6, 2, 1)]:
        ctx = hg.make_field(p, e)
        system = hg.build_system(hg.HermitianSpace(m, ctx))
        kernel, matrix = system.scan_kernel, system.matrix
        for (lo, hi), tab in zip(kernel.bounds, kernel.tables):
            want = np.zeros((1, kernel.width), dtype=np.uint8)
            for row in matrix[lo:hi]:
                terms = linalg._pack_planes(np.take(ctx.mul, row, axis=1), 2 * e)
                want = (want[:, None] ^ terms).reshape(-1, kernel.width)
            assert np.array_equal(tab, want)
        bytes_kernel = linalg._ScanKernel(ctx, matrix)
        assert all(np.array_equal(a, b) for a, b in zip(bytes_kernel.tables, kernel.tables))


def test_plane_fill_bounds_its_temporaries(monkeypatch):
    # with the lines enumerated, the (7,2) build holds the planes (K N / 4
    # bytes), a few bytes a line for the run edges and one block of
    # operands (about 20 bytes a line), well under the K x N bytes of the
    # matrix it no longer keeps; 89397 lines are one default block, so the
    # blocks here are smaller
    import tracemalloc

    block = 1 << 12
    monkeypatch.setattr(pluecker, "_LINE_BLOCK", block)
    space = hg.HermitianSpace(7, hg.make_field(2, 1))
    space.line_pair_indices()
    k, n = 21, space.num_lines
    tracemalloc.start()
    try:
        system = hg.build_system(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= system.planes.nbytes + 3 * n + 24 * block
    assert peak < k * n // 2


def _refused_until_it_fits(monkeypatch, space, k, n, need):
    monkeypatch.setattr(polar, "_available_memory", lambda: need - 1)
    with pytest.raises(ValueError, match=f"the {k} x {n} generator and its lines need {need} bytes"):
        hg.build_system(space)
    assert "line_pairs" not in space._cache
    monkeypatch.setattr(polar, "_available_memory", lambda: need)
    assert hg.build_system(space).matrix.shape == (k, n)


def test_build_system_over_available_memory_raises(monkeypatch):
    # the (6,2) planes, 2 of 98 words a row, and the 6237 lines at
    # polar._LINE_BYTES each are bounded together, before the lines are
    # searched
    space = hg.HermitianSpace(6, hg.make_field(2, 1))
    _refused_until_it_fits(monkeypatch, space, 15, 6237, 15 * 2 * 8 * 98 + 6237 * polar._LINE_BYTES)


def test_odd_p_generator_over_available_memory_raises(monkeypatch):
    # for odd p the generator is K x N bytes
    space = hg.HermitianSpace(5, hg.make_field(3, 1))
    _refused_until_it_fits(monkeypatch, space, 10, 6832, 10 * 6832 + 6832 * polar._LINE_BYTES)


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
