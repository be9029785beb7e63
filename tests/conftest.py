import functools

import numpy as np
import pytest

import hermgrass as hg
from hermgrass import linalg


@pytest.fixture(scope="session")
def ctx2():
    return hg.make_field(2, 1)


@pytest.fixture(scope="session")
def ctx3():
    return hg.make_field(3, 1)


@pytest.fixture(scope="session")
def space42(ctx2):
    return hg.HermitianSpace(4, ctx2)


@pytest.fixture(scope="session")
def space52(ctx2):
    return hg.HermitianSpace(5, ctx2)


@pytest.fixture(scope="session")
def space62(ctx2):
    return hg.HermitianSpace(6, ctx2)


@pytest.fixture(scope="session")
def space72(ctx2):
    return hg.HermitianSpace(7, ctx2)


@pytest.fixture(scope="session")
def space82(ctx2):
    return hg.HermitianSpace(8, ctx2)


@pytest.fixture(scope="session")
def space43(ctx3):
    return hg.HermitianSpace(4, ctx3)


@pytest.fixture(scope="session")
def space53(ctx3):
    return hg.HermitianSpace(5, ctx3)


@pytest.fixture(scope="session")
def system42(space42):
    return hg.build_system(space42)


@pytest.fixture(scope="session")
def system52(space52):
    return hg.build_system(space52)


@pytest.fixture(scope="session")
def system62(space62):
    return hg.build_system(space62)


@pytest.fixture(scope="session")
def system43(space43):
    return hg.build_system(space43)


@pytest.fixture(scope="session")
def system53(space53):
    return hg.build_system(space53)


def table_sum(ctx, terms):
    """Sum of element codes along the last axis, one ``ctx.add`` lookup per
    term: the oracles' arithmetic, which shares nothing with
    ``linalg.matmul``."""
    return functools.reduce(lambda acc, t: ctx.add[acc, t], np.moveaxis(terms, -1, 0))


class PairOracle:
    """Per-point line counts from the materialised orthogonal point pairs.

    The pairs (u, x) of isotropic points with conj(p_u)^T p_x = 0 come
    from blocks of ``ctx.mul`` products summed with ``table_sum``,
    ascending in (u, x).  The count at u is the number of its pairs with
    p_u^T S p_x != 0, divided by q^2: an oracle that shares nothing with
    ``linalg.matmul`` or the section table behind ``code.point_weights``.
    """

    def __init__(self):
        self._pairs = {}

    def pairs(self, space):
        if space not in self._pairs:
            ctx, pts = space.ctx, space.points()
            conj = ctx.frob[pts]
            step = max(1, linalg.DOT_BLOCK // len(pts))
            ui, xi = [], []
            for lo in range(0, len(pts), step):
                inner = table_sum(ctx, ctx.mul[conj[lo : lo + step, None, :], pts[None]])
                bu, bx = np.nonzero(inner == 0)
                ui.append(bu + lo)
                xi.append(bx)
            self._pairs[space] = (
                np.concatenate(ui).astype(np.int32),
                np.concatenate(xi).astype(np.int32),
            )
        return self._pairs[space]

    def point_weights(self, phi, space):
        ctx, pts = space.ctx, space.points()
        ui, xi = self.pairs(space)
        # p_u^T S, row u summing p_u[i] S[i, j] over i
        ps = table_sum(ctx, ctx.mul[pts[:, :, None], phi.s].transpose(0, 2, 1))
        nonzero = np.empty(len(ui), dtype=bool)
        step = max(1, linalg.DOT_BLOCK // space.m)
        for lo in range(0, len(ui), step):
            u, x = ui[lo : lo + step], xi[lo : lo + step]
            nonzero[lo : lo + step] = table_sum(ctx, ctx.mul[ps[u], pts[x]]) != 0
        cnt = np.bincount(ui[nonzero], minlength=len(pts))
        assert not (cnt % ctx.q2).any()
        return cnt // ctx.q2


@pytest.fixture(scope="session")
def pair_oracle():
    return PairOracle()


def _seeded_forms(ctx, m, seed, count, rank2_every=3):
    """Seeded nonzero forms at (m, q); every ``rank2_every``-th one has
    rank 2."""
    rng = np.random.default_rng(seed)
    forms = []
    while len(forms) < count:
        if len(forms) % rank2_every == rank2_every - 1:
            a = rng.integers(0, ctx.q2, size=m, dtype=np.uint8)
            b = rng.integers(0, ctx.q2, size=m, dtype=np.uint8)
            s = ctx.add[ctx.mul[a[:, None], b[None, :]], ctx.neg[ctx.mul[b[:, None], a[None, :]]]]
        else:
            upper = rng.integers(0, ctx.q2, size=m * (m - 1) // 2, dtype=np.uint8)
            s = hg.AlternatingForm.from_upper(ctx, m, upper).s
        if s.any():
            forms.append(hg.AlternatingForm(ctx, s))
    return forms


@pytest.fixture(scope="session")
def seeded_forms():
    return _seeded_forms
