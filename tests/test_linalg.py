import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermgrass as hg
from hermgrass import linalg

CTXS = [hg.make_field(2, 1), hg.make_field(3, 1), hg.make_field(2, 2)]


@st.composite
def field_matrices(draw, max_dim=5):
    ctx = CTXS[draw(st.integers(0, len(CTXS) - 1))]
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    data = draw(st.lists(st.integers(0, ctx.q2 - 1), min_size=r * c, max_size=r * c))
    return ctx, np.array(data, dtype=np.uint8).reshape(r, c)


def test_rref_identity_and_zero(ctx2):
    eye = np.eye(4, dtype=np.uint8)
    r, rk = linalg.rref(ctx2, eye)
    assert rk == 4 and np.array_equal(r, eye)
    z = np.zeros((3, 4), dtype=np.uint8)
    r, rk = linalg.rref(ctx2, z)
    assert rk == 0 and not r.any()


@settings(deadline=None)
@given(field_matrices())
def test_normalize_scales_each_row_to_a_leading_one(cm):
    ctx, m = cm
    rows, lead = linalg.normalize(ctx, m)
    for row, col, orig in zip(rows, lead, m):
        if not orig.any():
            assert col == 0 and not row.any()
            continue
        first = orig[col]
        assert not orig[:col].any() and first != 0 and row[col] == 1
        assert np.array_equal(ctx.mul[first, row], orig)


@settings(deadline=None)
@given(field_matrices())
def test_rref_idempotent(cm):
    ctx, m = cm
    r1, k1 = linalg.rref(ctx, m)
    r2, k2 = linalg.rref(ctx, r1)
    assert k1 == k2
    assert np.array_equal(r1, r2)


@settings(deadline=None)
@given(field_matrices())
def test_rank_transpose_invariant(cm):
    ctx, m = cm
    assert linalg.rank(ctx, m) == linalg.rank(ctx, m.T)


def _span_size(ctx, m) -> int:
    """Distinct vectors in the row span of m: every coefficient vector
    times m, multiplied out with matmul."""
    coeffs = np.array(list(itertools.product(range(ctx.q2), repeat=len(m))), dtype=np.uint8)
    return len({row.tobytes() for row in linalg.matmul(ctx, coeffs, m)})


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)], ids=["q2", "q3", "q4"])
def test_rank_counts_the_row_span(p, e):
    # Q^rank vectors span the rows, Q = q^2; shapes up to 3 x 4 and 2 x 300,
    # whose rank first tries the strided-column certificate
    ctx = hg.make_field(p, e)
    rng = np.random.default_rng(31 + ctx.q2)
    mats = []
    for r, c in [(1, 4), (2, 3), (3, 3), (3, 4), (2, 300)]:
        for t in range(r + 1):  # a product of r x t and t x c matrices: rank <= t
            a = rng.integers(0, ctx.q2, size=(r, t), dtype=np.uint8)
            b = rng.integers(0, ctx.q2, size=(t, c), dtype=np.uint8)
            mats.append(linalg.matmul(ctx, a, b) if t else np.zeros((r, c), dtype=np.uint8))
    wide = np.tile(rng.integers(1, ctx.q2, size=(1, 300), dtype=np.uint8), (2, 1))
    wide[1, 1] = ctx.add[wide[1, 1], 1]  # rows differ off the stride-2 columns only
    mats.append(wide)
    col = rng.integers(0, ctx.q2, size=(3, 1), dtype=np.uint8)
    mats.append(np.hstack([col, np.eye(3, dtype=np.uint8)[::-1]]))  # rank 3, rows swapped
    for m in mats:
        assert _span_size(ctx, m) == ctx.q2 ** linalg.rank(ctx, m)
    assert {linalg.rank(ctx, m) for m in mats} == {0, 1, 2, 3}


def _counting_echelon(monkeypatch):
    """Shapes of the matrices that the elimination sees."""
    calls = []
    real = linalg._echelon

    def echelon(ctx, m):
        calls.append(m.shape)
        return real(ctx, m)

    monkeypatch.setattr(linalg, "_echelon", echelon)
    return calls


def test_rank_certified_on_strided_columns(ctx2, monkeypatch):
    g = np.zeros((2, 256), dtype=np.uint8)
    g[0, ::2] = 1
    g[1, 1::2] = 1
    g[:, 0] = [1, 1]
    calls = _counting_echelon(monkeypatch)
    assert linalg.rank(ctx2, g) == 2
    assert calls == [(2, 128)]


def test_rank_falls_back_when_subset_is_short(ctx2, monkeypatch):
    # the stride-2 columns span only e1; the odd columns add e2
    g = np.zeros((2, 256), dtype=np.uint8)
    g[0, ::2] = 1
    g[1, 1::2] = 1
    calls = _counting_echelon(monkeypatch)
    assert linalg.rank(ctx2, g) == 2
    assert calls == [(2, 128), (2, 256)]
    calls.clear()
    g[1] = 0
    assert linalg.rank(ctx2, g) == 1
    assert calls == [(2, 128), (2, 256)]


def test_rank_of_zero_rows(ctx2):
    # the certificate's stride n // (64 k) must not divide by k = 0
    for n in (0, 1, 64, 1000):
        assert linalg.rank(ctx2, np.zeros((0, n), dtype=np.uint8)) == 0


@settings(deadline=None)
@given(field_matrices())
def test_kernel_annihilates(cm):
    ctx, m = cm
    ker = linalg.kernel(ctx, m)
    assert len(ker) == m.shape[1] - linalg.rank(ctx, m)
    if len(ker):
        prod = linalg.matmul(ctx, m, ker.T)
        assert not prod.any()


def test_rank_two_outer_product():
    rng = np.random.default_rng(11)
    for ctx in CTXS:
        for _ in range(20):
            a = rng.integers(0, ctx.q2, size=5, dtype=np.uint8)
            b = rng.integers(0, ctx.q2, size=5, dtype=np.uint8)
            s = linalg.fsub(
                ctx, ctx.mul[a[:, None], b[None, :]], ctx.mul[b[:, None], a[None, :]]
            )
            expected = 2 if linalg.rank(ctx, np.stack([a, b])) == 2 else 0
            assert linalg.rank(ctx, s) == expected



@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)], ids=["q2", "q3", "q4", "q5"])
def test_rank_stack_agrees_with_rank(p, e):
    ctx = hg.make_field(p, e)
    rng = np.random.default_rng(17 + ctx.q2)
    mats = [rng.integers(0, ctx.q2, size=(5, 5), dtype=np.uint8) for _ in range(40)]
    for _ in range(40):  # sparse: mostly rank-deficient
        dense = rng.integers(0, ctx.q2, size=(5, 5), dtype=np.uint8)
        mats.append(np.where(rng.random((5, 5)) < 0.2, dense, 0).astype(np.uint8))
    for _ in range(40):  # alternating forms a b^T - b a^T: rank 0 or 2
        a = rng.integers(0, ctx.q2, size=5, dtype=np.uint8)
        b = rng.integers(0, ctx.q2, size=5, dtype=np.uint8)
        ab, ba = ctx.mul[a[:, None], b[None, :]], ctx.mul[b[:, None], a[None, :]]
        mats.append(linalg.fsub(ctx, ab, ba))
    for _ in range(40):  # products of a 5 x r and an r x 5 matrix: rank <= r
        r = int(rng.integers(1, 5))
        a = rng.integers(0, ctx.q2, size=(5, r), dtype=np.uint8)
        b = rng.integers(0, ctx.q2, size=(r, 5), dtype=np.uint8)
        mats.append(linalg.matmul(ctx, a, b))
    mats.append(np.zeros((5, 5), dtype=np.uint8))
    stack = np.stack(mats)
    want = [linalg.rank(ctx, x) for x in stack]
    assert {0, 2} <= set(want)
    assert linalg.rank_stack(ctx, stack).tolist() == want
    rect = rng.integers(0, ctx.q2, size=(30, 3, 6), dtype=np.uint8)
    assert linalg.rank_stack(ctx, rect).tolist() == [linalg.rank(ctx, x) for x in rect]
    # tall stacks, more rows than columns: dense, and of rank at most 1 or 2
    tall = [rng.integers(0, ctx.q2, size=(6, 3), dtype=np.uint8) for _ in range(30)]
    for r in (1, 2) * 15:
        a = rng.integers(0, ctx.q2, size=(6, r), dtype=np.uint8)
        tall.append(linalg.matmul(ctx, a, rng.integers(0, ctx.q2, size=(r, 3), dtype=np.uint8)))
    want = [linalg.rank(ctx, x) for x in tall]
    assert {1, 2, 3} <= set(want)
    assert linalg.rank_stack(ctx, np.stack(tall)).tolist() == want
    with pytest.raises(ValueError):
        linalg.rank_stack(ctx, stack[0])


def test_entries_outside_the_field_are_refused(ctx2):
    bad = np.eye(3, dtype=np.uint8) * 4  # GF(4) has the codes 0..3
    with pytest.raises(ValueError, match="entry out of range for GF\\(4\\)"):
        linalg.as_matrix(ctx2, bad)
    with pytest.raises(ValueError, match="entry out of range for GF\\(4\\)"):
        linalg.rank_stack(ctx2, bad[None])


def test_kernel_extremes(ctx2):
    assert linalg.kernel(ctx2, np.eye(4, dtype=np.uint8)).shape == (0, 4)
    assert np.array_equal(linalg.kernel(ctx2, np.zeros((2, 4), dtype=np.uint8)), np.eye(4))


def test_membership(ctx2):
    basis = np.eye(5, dtype=np.uint8)[:4]

    def member(v):
        return linalg.rank(ctx2, np.vstack([basis, v])) == len(basis)

    for row in basis:
        assert member(row)
    assert member(np.zeros(5, dtype=np.uint8))
    assert not member(np.eye(5, dtype=np.uint8)[4])
    with pytest.raises(ValueError):
        member(np.zeros(4, dtype=np.uint8))


def test_subspace_key_is_span_invariant():
    rng = np.random.default_rng(5)
    for ctx in CTXS:
        m = rng.integers(0, ctx.q2, size=(3, 5), dtype=np.uint8)
        # scale a row and add one row into another; the span is unchanged,
        # and so is its RREF basis, the canonical key of the span
        m2 = m.copy()
        m2[0] = ctx.mul[1 % (ctx.q2 - 1) + 1, m2[0]]
        m2[1] = linalg.fadd(ctx, m2[1], m2[0])
        m2 = m2[[2, 0, 1]]
        (w1, k1), (w2, k2) = linalg.rref(ctx, m), linalg.rref(ctx, m2)
        assert k1 == k2 and np.array_equal(w1[:k1], w2[:k2])


def test_bit_counts_matches_unpackbits(monkeypatch):
    def check():
        for width in (1, 7, 8, 13, 16, 41):
            rows = np.random.default_rng(width).integers(0, 256, size=(40, width), dtype=np.uint8)
            rows[0] = 0
            rows[1] = 255
            want = np.unpackbits(rows, axis=1).sum(axis=1)
            got = linalg.bit_counts(rows)
            assert got.dtype == np.intp
            assert np.array_equal(got, want)
            # counts run along the last axis, of a stack and of a column slice
            assert np.array_equal(linalg.bit_counts(rows.reshape(4, 10, width)), want.reshape(4, 10))
            tail = rows[:, 1:]
            assert np.array_equal(linalg.bit_counts(tail), np.unpackbits(tail, axis=1).sum(axis=1))

    check()
    monkeypatch.setattr(linalg, "_bitwise_count", None)  # numpy before 2.0: the SWAR path
    check()


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]


@pytest.mark.parametrize("p,e", FIELDS, ids=lambda v: str(v))
def test_fadd_fsub_match_tables(p, e):
    ctx = hg.make_field(p, e)
    a = np.repeat(np.arange(ctx.q2, dtype=np.uint8), ctx.q2)
    b = np.tile(np.arange(ctx.q2, dtype=np.uint8), ctx.q2)
    assert np.array_equal(linalg.fadd(ctx, a, b), ctx.add[a, b])
    assert np.array_equal(linalg.fsub(ctx, a, b), ctx.add[a, ctx.neg[b]])
    # written in place, into the left operand itself
    out = a.copy()
    assert linalg.fadd(ctx, out, b, out) is out
    assert np.array_equal(out, ctx.add[a, b])
    out = a.copy()
    assert linalg.fsub(ctx, out, b, out) is out
    assert np.array_equal(out, ctx.add[a, ctx.neg[b]])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_odd_nonzero_mask_on_every_byte(p):
    # a byte holds the nibbles of one position; the mask is set when
    # either nibble is nonzero mod p
    kernel = linalg._ScanKernel(hg.make_field(p, 1), np.eye(2, 8, dtype=np.uint8))
    c = np.arange(256, dtype=np.uint8)
    want = np.packbits((((c & 15) % p != 0) | ((c >> 4) % p != 0)).reshape(4, 64), axis=-1)
    assert np.array_equal(kernel._mask(c.reshape(4, 64)), want)
    # through the block buffers of a scan, which the mask overwrites
    scratch, out = np.full((4, 64), 0xAA, dtype=np.uint8), np.ones((4, 64), dtype=bool)
    assert np.array_equal(kernel._mask(c.reshape(4, 64), out, scratch), want)


def _loop_dot(ctx, x, y):
    """Scalar reference: sum of ctx.mul products with ctx.add."""
    acc = 0
    for xk, yk in zip(x, y):
        acc = int(ctx.add[acc, ctx.mul[int(xk), int(yk)]])
    return acc


@pytest.mark.parametrize("e", [1, 2, 3])
def test_bit_products_is_the_bit_table_of_the_products(e):
    # [d, i, j] is bit j of d x^i, x^i having the code 2^i; one table, kept
    ctx = hg.make_field(2, e)
    table = linalg._bit_products(ctx)
    want = [[[ctx.mul[d, 1 << i] >> j & 1 for j in range(2 * e)] for i in range(2 * e)] for d in range(ctx.q2)]
    assert table.dtype == bool and table.tolist() == np.array(want, dtype=bool).tolist()
    assert not table.flags.writeable and linalg._bit_products(ctx) is table


def test_pack_planes_bounds_its_temporaries():
    # the planes are packed in row blocks, so beside the packed planes the
    # traced peak holds a few N-byte rows, never a K x N temporary
    import tracemalloc

    n = 3 * linalg.DOT_BLOCK
    codes = np.random.default_rng(4).integers(0, 4, size=(8, n), dtype=np.uint8)
    tracemalloc.start()
    try:
        planes = linalg._pack_planes(codes, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= planes.nbytes + 3 * n
    want = np.concatenate([np.packbits(codes >> i & 1, axis=-1) for i in range(2)], axis=-1)
    assert np.array_equal(planes, want)


def test_matmul_against_python_loop():
    rng = np.random.default_rng(2)
    for p, e in FIELDS:
        ctx = hg.make_field(p, e)
        q2 = ctx.q2
        # (r, t, c): the callers' shapes, with r below and above Q = q2 and
        # t = 1, and inner sizes past the terms a nibble sum holds before
        # it is reduced (7 at p = 3, 3 at p = 5, 2 at p = 7)
        for r, t, c in [(3, 4, 2), (q2 - 1, 5, 3), (q2 + 7, 3, 4), (9, 1, 6), (1, 6, 1), (5, 8, 3), (4, 15, 2)]:
            a = rng.integers(0, q2, size=(r, t), dtype=np.uint8)
            b = rng.integers(0, q2, size=(t, c), dtype=np.uint8)
            out = linalg.matmul(ctx, a, b)
            assert out.shape == (r, c) and out.dtype == np.uint8
            for i in range(r):
                for j in range(c):
                    assert out[i, j] == _loop_dot(ctx, a[i], b[:, j])
        # a transposed view as a, as codeword passes the generator
        g = rng.integers(0, q2, size=(4, 11), dtype=np.uint8)
        f = rng.integers(0, q2, size=(4, 1), dtype=np.uint8)
        got = linalg.matmul(ctx, g.T, f)
        assert got[:, 0].tolist() == [_loop_dot(ctx, col, f[:, 0]) for col in g.T]
        with pytest.raises(ValueError):
            linalg.matmul(ctx, a, a)
        with pytest.raises(ValueError):
            linalg.matmul(ctx, np.zeros((3, 0), dtype=np.uint8), np.zeros((0, 2), dtype=np.uint8))
