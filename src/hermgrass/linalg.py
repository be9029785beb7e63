"""Dense exact linear algebra over GF(q^2).

Matrices are numpy arrays of field-element codes (see ff).  Every sum
of products goes through ``dot``, the one product kernel: each product
is one add and one 1-D gather from ``FieldCtx.mul_flat``, so every
result is exact.  The reduced row echelon form is the canonical
representative of a row space; its flattened entries serve as a total
order and hash key for subspaces.  Pivots are chosen leftmost first.
"""

from __future__ import annotations

import numpy as np

from .ff import FieldCtx

__all__ = [
    "DOT_BLOCK",
    "as_matrix",
    "fadd",
    "fsub",
    "fneg",
    "dot",
    "matmul",
    "rref",
    "rank",
    "rank_stack",
    "kernel",
    "Subspace",
]

#: Entries per block of a table-sized ``dot``: callers with operands the
#: size of the point or section tables slice them to about this many
#: entries, since each gather first casts its index to intp (8 bytes).
DOT_BLOCK = 1 << 16


def as_matrix(ctx: FieldCtx, rows) -> np.ndarray:
    m = np.ascontiguousarray(np.asarray(rows, dtype=np.uint8))
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.size and m.max() >= ctx.q2:
        raise ValueError(f"entry out of range for GF({ctx.q2})")
    return m


def fneg(ctx: FieldCtx, a):
    if ctx.p == 2:
        return a
    return ctx.neg[a]


def fadd(ctx: FieldCtx, a, b):
    """a + b elementwise: XOR in characteristic 2, else one gather from
    ``ctx.add_flat``."""
    if ctx.p == 2:
        return np.bitwise_xor(a, b)
    return np.take(ctx.add_flat, ctx.scaled_codes(a) + b)


def fsub(ctx: FieldCtx, a, b):
    return fadd(ctx, a, fneg(ctx, b))


def dot(ctx: FieldCtx, x, y) -> np.ndarray:
    """Sum over k of x[..., k] * y[..., k] over GF(q^2).

    The leading axes of x and y broadcast against each other; the last
    axes must have equal, nonzero length.  Each product is one add and
    one 1-D gather from ``ctx.mul_flat`` at ``ctx.scaled_codes(x[...,
    k]) + y[..., k]``.  A vector-vector product gives a 0-d array.
    """
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    t = x.shape[-1]
    if y.shape[-1] != t:
        raise ValueError("inner dimensions do not match")
    xs = ctx.scaled_codes(x)
    out = np.take(ctx.mul_flat, xs[..., 0] + y[..., 0])
    for k in range(1, t):
        out = fadd(ctx, out, np.take(ctx.mul_flat, xs[..., k] + y[..., k]))
    return out


def matmul(ctx: FieldCtx, a, b) -> np.ndarray:
    """Matrix product over GF(q^2); a is (r, t), b is (t, c)."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    return dot(ctx, a[:, None, :], b.T[None])


def rref(ctx: FieldCtx, m) -> tuple[np.ndarray, int]:
    """Reduced row echelon form and rank.

    The result is the unique RREF of the row space, with unit pivots
    and zeros above and below each pivot.
    """
    r = as_matrix(ctx, m).copy()
    nr, nc = r.shape
    row = 0
    for col in range(nc):
        if row == nr:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        piv = row + hits[0]
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        pv = r[row, col]
        if pv != 1:
            r[row] = ctx.mul[ctx.inv[pv], r[row]]
        others = np.nonzero(r[:, col])[0]
        others = others[others != row]
        if others.size:
            f = r[others, col]
            r[others] = fsub(ctx, r[others], ctx.mul[f[:, None], r[row][None, :]])
        row += 1
    return r, row


def rank(ctx: FieldCtx, m) -> int:
    """Rank via forward elimination only (cheaper than full rref)."""
    r = as_matrix(ctx, m).copy()
    nr, nc = r.shape
    row = 0
    for col in range(nc):
        if row == nr:
            break
        hits = np.nonzero(r[row:, col])[0]
        if hits.size == 0:
            continue
        piv = row + hits[0]
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        below = row + 1 + np.nonzero(r[row + 1 :, col])[0]
        if below.size:
            f = ctx.mul[r[below, col], ctx.inv[r[row, col]]]
            r[below] = fsub(ctx, r[below], ctx.mul[f[:, None], r[row][None, :]])
        row += 1
    return row


def rank_stack(ctx: FieldCtx, mats) -> np.ndarray:
    """Ranks of a stack of matrices of shape (B, r, c).

    One batched forward elimination: each column is one pivot step of
    table lookups over the whole stack.  Instead of swapping rows, a
    row that has served as a pivot leaves the pool of candidates.
    """
    a = np.array(mats, dtype=np.uint8)
    if a.ndim != 3:
        raise ValueError("expected a stack of matrices")
    if a.size and a.max() >= ctx.q2:
        raise ValueError(f"entry out of range for GF({ctx.q2})")
    b, nr, nc = a.shape
    free = np.ones((b, nr), dtype=bool)
    ranks = np.zeros(b, dtype=np.int64)
    stack = np.arange(b)
    for col in range(nc):
        cand = (a[:, :, col] != 0) & free
        has = cand.any(axis=1)
        piv = cand.argmax(axis=1)
        prow = a[stack, piv]
        f = ctx.mul[a[:, :, col], ctx.inv[prow[:, col]][:, None]]
        f[~free] = 0
        f[stack, piv] = 0
        a = fsub(ctx, a, ctx.mul[f[:, :, None], prow[:, None, :]])
        free[stack, piv] &= ~has
        ranks += has
    return ranks


class Subspace:
    """A subspace of GF(q^2)^n held by its canonical RREF basis.

    Equality and hashing go through the flattened basis entries, so
    two Subspace objects agree exactly when they span the same space.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: np.ndarray):
        basis = np.ascontiguousarray(np.asarray(basis, dtype=np.uint8))
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        basis.flags.writeable = False
        self.basis = basis

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows, ambient: int | None = None) -> "Subspace":
        m = as_matrix(ctx, rows)
        if m.size == 0:
            if ambient is None:
                ambient = m.shape[1]
            return cls(np.zeros((0, ambient), dtype=np.uint8))
        r, rk = rref(ctx, m)
        return cls(r[:rk])

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient(self) -> int:
        return self.basis.shape[1]

    @property
    def key(self) -> bytes:
        return self.basis.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.basis.shape == other.basis.shape and self.key == other.key

    def __hash__(self) -> int:
        return hash((self.basis.shape, self.key))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def kernel(ctx: FieldCtx, m) -> Subspace:
    """Right kernel {x : m x = 0} as a canonical Subspace."""
    m = as_matrix(ctx, m)
    nr, nc = m.shape
    if nr == 0:
        return Subspace.from_rows(ctx, np.eye(nc, dtype=np.uint8))
    r, rk = rref(ctx, m)
    pivots = []
    for i in range(rk):
        pivots.append(int(np.nonzero(r[i])[0][0]))
    free = [c for c in range(nc) if c not in set(pivots)]
    rows = np.zeros((len(free), nc), dtype=np.uint8)
    for j, fc in enumerate(free):
        rows[j, fc] = 1
        for i, pc in enumerate(pivots):
            rows[j, pc] = fneg(ctx, r[i, fc])
    return Subspace.from_rows(ctx, rows, ambient=nc)

