import hashlib
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


# sha256 of each table's bytes, recorded from the discrete-logarithm
# construction the product-of-polynomials one replaced: the codes of every
# field stay what they were.
TABLE_SHA256 = {
    (2, 1): {
        "add": "62d40abfb721c5a0c265c70a68d2e962d3f13be6480239c305f2f0bca8590440",
        "neg": "054edec1d0211f624fed0cbca9d4f9400b0e491c43742af2c5b0abebf0c990d8",
        "mul": "e5e400e15d86822cd32ced3905038afeff90c607537f27fb5c2df36e4fbb38d4",
        "inv": "dce8e125cc41a56ea02407a10727c0fbced6827fea37a619f5c3cc98f1ee4968",
        "frob": "dce8e125cc41a56ea02407a10727c0fbced6827fea37a619f5c3cc98f1ee4968",
        "norm": "cbd95ae5ef8810691e3fc7efb7c39ef9ffb661135d858aa0ccc81fc74a0160ae",
    },
    (3, 1): {
        "add": "258998982899a881c22fd74bc2e9c9619b1ac28fa209d9dd48d7accc703bb4c7",
        "neg": "c71e83c5c8b1ba02a7dbe675579db574b2c82a4fb2cc13ed5ae917595ee90900",
        "mul": "29e92530f304bef086254b6547292a2b1c9131904a5a4058f54cd044a70e43a2",
        "inv": "6ac689ccd15a5216b666ced6feb9db03dfe009d1b484cd7f93666f38086bd33b",
        "frob": "a75bba468fab5d02ae76fc50dfa820abf4357657b699971913004d9252cf05dc",
        "norm": "85988ce4afc9f0d2384f388b195625d7a5be2a131891fb8dab1ed3bdabe3e73f",
    },
    (2, 2): {
        "add": "c64c6cd5750493429a8a7378e51e8a44b1d70c11d0564b411db0043923d6af20",
        "neg": "be45cb2605bf36bebde684841a28f0fd43c69850a3dce5fedba69928ee3a8991",
        "mul": "0f6d731eb3256344df6cd95ae358c8d7ddbb56cf7f88d4c591d80f53b8eb2667",
        "inv": "b4c7231e1c1524aae08b4903575c7ad7d5b1a436a83eb2f54831806e0dc50e20",
        "frob": "fa99222eaf8800a2b064f404e91162402ca21a1529182f0864250b8cfbf10152",
        "norm": "25864ae873a351e474bfc02ba9398bcb2a3aa23ee7050d66ad34ed33f3e108d5",
    },
    (5, 1): {
        "add": "a0396752f887de70e6eb4f821894cf27f2f436d24f2f602fcbcee4790f02de5d",
        "neg": "49ce0b07c196179a87620f4c23232c53957879c6eea7887d747fb15355842915",
        "mul": "873220a60a81bfa0eeb40ebdfcf3343fb581d457ded25737c1005d9b626c836d",
        "inv": "57f16d6bd7e76ca7a49c541539b1aa6f927e440688ec787ce86d52480714b268",
        "frob": "adde5e5c96a17fa05d586e4e7b2c360188090106240ac8bfc830da3ee493bb21",
        "norm": "e0b1ae834eae798431d00703b7135ab15f7df2b9f9a96fb6083e41ccc9e7b2e6",
    },
    (7, 1): {
        "add": "2cdeb3ae2cd89b216b4023b9f24c9aad96a748524f0db78a790b3fb50f2262ff",
        "neg": "f99df71b3a548429536e28773904feed4703f68496cb6b48c82126c9a6a684aa",
        "mul": "f3c70334301b13f5f2181966ee7ad000b27af3d222eec7c45bd021c0ec588c30",
        "inv": "bb1995e11da976f8d638a07315afb72df59988f115deb918c7f4ae482ea15f85",
        "frob": "dc9afb404a2b01b6f6d135a269aeed6cf3adb152dee51549879af620ae4d8404",
        "norm": "89e52949f8b24fd623f603429109bdd2fa8b77de27a7dbe5d84db5aec86c331a",
    },
    (2, 3): {
        "add": "f81810bac7773038d2a1aea439bc7412fcd98249549bac009482ec7b1214863c",
        "neg": "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
        "mul": "26107130571df271c13539a225b79388a83d952633d70b22eccf1c56296f62f7",
        "inv": "676ad897dd243d8893cd9e601522fabd9c18a51a4029c8bd6ffe42a3b9381eca",
        "frob": "bd461e0e2cdbb8ae7a40e7efd0e863a37a242ffbe63264c4e3a43086f089a9aa",
        "norm": "86bcb73793c867d9a64123e84b71e62567dc7cc349123939dae5daadbb745980",
    },
}


@pytest.mark.parametrize("pe", FIELDS, ids=lambda pe: f"GF({(pe[0] ** pe[1]) ** 2})")
def test_field_tables_are_pinned(pe):
    ctx = ff.make_field(*pe)
    for name, want in TABLE_SHA256[pe].items():
        table = getattr(ctx, name)
        assert table.dtype == np.uint8, name
        assert hashlib.sha256(table.tobytes()).hexdigest() == want, name


def test_reducible_modulus_is_refused(monkeypatch):
    # 1 + x^2 = (1 + x)^2 over GF(2): 1 + x has no inverse mod it
    monkeypatch.setitem(ff._MODULUS, (2, 2), (1, 0, 1))
    with pytest.raises(RuntimeError, match="not irreducible"):
        ff.make_field(2, 1)
