import time

import numpy as np
import pytest

from hermgrass import ff

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]


@pytest.fixture(scope="module", params=FIELDS, ids=lambda pe: f"GF({(pe[0] ** pe[1]) ** 2})")
def ctx(request):
    return ff.make_field(*request.param)


def test_field_axioms_exhaustive(ctx):
    q2 = ctx.q2
    a = np.arange(q2)
    add, mul = ctx.add, ctx.mul
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], a)
    assert np.array_equal(mul[1], a)
    assert np.array_equal(mul[0], np.zeros(q2, dtype=np.uint8))
    assert not np.any(add[a, ctx.neg[a]])
    nz = a[1:]
    assert np.array_equal(mul[nz, ctx.inv[nz]], np.ones(q2 - 1, dtype=np.uint8))
    # associativity of both operations, all q2^3 triples
    x, y, z = a[:, None, None], a[None, :, None], a[None, None, :]
    assert np.array_equal(add[add[x, y], z], add[x, add[y, z]])
    assert np.array_equal(mul[mul[x, y], z], mul[x, mul[y, z]])
    # distributivity
    assert np.array_equal(mul[x, add[y, z]], add[mul[x, y], mul[x, z]])


def test_flat_codes_reproduce_mul(ctx):
    a = np.arange(ctx.q2, dtype=np.uint8)
    codes = ctx.scaled_codes(a)[:, None] + a[None, :]
    assert codes.dtype == ctx.code_dtype
    assert ctx.code_dtype == (np.uint8 if ctx.q2 <= 16 else np.uint16)
    assert np.array_equal(np.take(ctx.mul_flat, codes), ctx.mul)
    assert not ctx.mul_flat.flags.writeable


def test_frobenius_is_order_two_field_automorphism(ctx):
    q2 = ctx.q2
    a = np.arange(q2)
    fr = ctx.frob
    assert np.array_equal(fr[fr], a.astype(np.uint8))
    fixed = np.nonzero(fr == a)[0]
    assert len(fixed) == ctx.q
    assert np.array_equal(fixed.astype(np.uint8), ctx.subfield)
    # additive and multiplicative on all pairs
    assert np.array_equal(fr[ctx.add], ctx.add[fr[a][:, None], fr[a][None, :]])
    assert np.array_equal(fr[ctx.mul], ctx.mul[fr[a][:, None], fr[a][None, :]])


def test_norm_lands_in_subfield_with_even_fibers(ctx):
    q = ctx.q
    sub = set(int(x) for x in ctx.subfield)
    assert set(int(x) for x in ctx.norm) <= sub
    assert ctx.norm[0] == 0
    assert int((ctx.norm == 0).sum()) == 1
    for s in sorted(sub - {0}):
        assert int((ctx.norm == s).sum()) == q + 1


def test_gf4_specifics():
    ctx = ff.make_field(2, 1)
    assert ctx.q2 == 4
    assert list(ctx.subfield) == [0, 1]
    assert ctx.frob[0] == 0 and ctx.frob[1] == 1
    # the two elements outside GF(2) swap under conjugation
    assert ctx.frob[2] == 3 and ctx.frob[3] == 2
    for x in (1, 2, 3):
        assert ctx.norm[x] == 1


def test_gf9_generator_conjugate():
    ctx = ff.make_field(3, 1)
    g = 3  # the residue class of x
    g3 = ctx.mul[ctx.mul[g, g], g]
    assert ctx.frob[g] == g3
    assert ctx.frob[g3] == g


def test_gf16_tower():
    ctx = ff.make_field(2, 2)
    assert ctx.q == 4 and ctx.q2 == 16
    a = np.arange(16, dtype=np.uint8)
    assert np.array_equal(ctx.frob[ctx.frob], a)
    assert len(ctx.subfield) == 4


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ff.make_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        ff.make_field(11, 1)  # outside the pinned range
    with pytest.raises(ValueError):
        ff.make_field(2, 4)  # table size overflow
    # rejected before any trial division of p or power p**e
    started = time.perf_counter()
    for p, e in ((1000000000000000003, 1), (2, 100000000)):
        with pytest.raises(ValueError, match="outside the supported range"):
            ff.make_field(p, e)
    assert time.perf_counter() - started < 1.0


def test_coefficient_encoding_round_trip():
    # the code of c0 + c1 x is c0 + 3 c1 over GF(9); x has code 3
    ctx = ff.make_field(3, 1)
    assert ctx.add[1, ctx.mul[2, 3]] == 7
    for a in range(ctx.q2):
        assert ctx.add[a % 3, ctx.mul[a // 3, 3]] == a


def test_scalar_helpers():
    ctx = ff.make_field(3, 1)
    assert ctx.add[0, ctx.neg[1]] == ctx.neg[1]
    assert ctx.inv[1] == 1
    # 0 has no inverse: no product with 0 is 1
    assert not (ctx.mul[0] == 1).any()
