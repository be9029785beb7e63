"""Pluecker embedding of totally isotropic lines.

A 2-space with basis rows (v, w) maps to the point of PG(C(m,2)-1, q^2)
with coordinates v_i w_j - v_j w_i, indexed by pairs (i, j), i < j, in
lexicographic order.  For a basis in reduced row echelon form these
coordinates are already normalized (the pivot-pair coordinate is 1).

The ordered images of all totally isotropic lines form a projective
system; stacking them as columns gives the generator matrix of the
induced linear code.

``build_system`` fills the matrix from the line pairs (a, b) of
``HermitianSpace.line_pair_indices``, whose point rows p_a, p_b are the
RREF basis of each line; row (i, j) is p_a[i] p_b[j] - p_a[j] p_b[i].
The lines come sorted by a, in runs of one a each, and the fill walks
blocks of whole runs.  Per block it gathers the m coordinate rows of the
b-points from the transposed point table once, and takes the a-side from
the run heads only, expanded over each run with ``np.repeat``.  Rows
(0, j) are the byte products p_a[0] p_b[j], since p_b[0] = 0 and p_a[0]
is 0 or 1.  In characteristic 2 a product needs no table: with bit u of
a code the coefficient of x^u (see ff), a b is the XOR over u < 2e of
a x^u masked by bit u of b.  So each bit u costs one repeat of the
heads' multiples a x^u, the 0x00/0xFF masks of b (a shift, an AND and a
negate), and two byte ANDs and two XORs per row.  For odd p (e = 1,
small systems) each product is one ``FieldCtx.mul_flat`` gather, and the
difference adds p_a[i] p_b[j] and (-p_a[j]) p_b[i], with the heads
negated once per block.  The full N x m bases are never built.  The
fill computes its products itself, not through ``linalg.matmul``, since
a coordinate is a difference of two products, not a sum over an inner
index.
``linalg.rank`` certifies the K x N matrix, usually on a strided subset
of its columns.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import counts, linalg, polar
from .ff import FieldCtx
from .linalg import fadd, fsub

__all__ = ["pair_indices", "pluecker_point", "ProjectiveSystem", "build_system"]

# Lines per block of the Pluecker fill, which ends on a run edge unless one
# run is longer.  A block's b-side, masks, a-side and row temporaries take
# about 5m bytes a line; 2^15 was as fast as 2^16 at (8,2), and faster at
# (5,4).
_LINE_BLOCK = 1 << 15


def pair_indices(m: int) -> list[tuple[int, int]]:
    """Coordinate pair order (0,1), (0,2), ..., (m-2, m-1)."""
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def pluecker_point(ctx: FieldCtx, basis) -> np.ndarray:
    """Normalized Pluecker coordinates of the 2-space spanned by basis.

    The result does not depend on the chosen basis of the span.
    Raises ValueError when the two rows are dependent.
    """
    b = linalg.as_matrix(ctx, basis)
    if b.shape[0] != 2:
        raise ValueError("need exactly 2 basis rows")
    i, j = np.triu_indices(b.shape[1], 1)  # pair order
    coords = fsub(ctx, ctx.mul[b[0, i], b[1, j]], ctx.mul[b[0, j], b[1, i]])
    if not coords.any():
        raise ValueError("degenerate basis: rows are linearly dependent")
    return linalg.normalize(ctx, coords[None])[0][0]


class ProjectiveSystem:
    """Ordered Pluecker images of all totally isotropic lines.

    ``matrix`` is the K x N generator matrix whose j-th column holds
    the normalized coordinates of the j-th line in canonical order.
    The constructor does not check the matrix; ``build_system``
    certifies that it has full rank K, so distinct coefficient vectors
    give distinct codewords.  The system holds the scan kernel of its
    matrix (``scan_kernel``), built on first use, so every spectrum scan
    of one system reads the same tables, and in characteristic 2 the bit
    planes of its matrix (``planes``), which the direct weight reads.
    """

    def __init__(self, space: polar.HermitianSpace, matrix: np.ndarray):
        self.space = space
        self.ctx = space.ctx
        matrix = np.ascontiguousarray(matrix)
        matrix.flags.writeable = False
        self.matrix = matrix
        self.k = matrix.shape[0]
        self.n = matrix.shape[1]

    @cached_property
    def scan_kernel(self) -> linalg._ScanKernel:
        """``linalg._ScanKernel`` of ``matrix``, built on first use and
        kept.  ``polar._check_memory`` raises ValueError first when its
        tables do not fit, so none is allocated."""
        need = linalg._ScanKernel.table_bytes(self.ctx, self.k, self.n)
        polar._check_memory(need, f"the scan tables of the {self.k} x {polar._short(self.n)} matrix need {{}} bytes")
        return linalg._ScanKernel(self.ctx, self.matrix)

    @cached_property
    def planes(self) -> np.ndarray:
        """Characteristic 2: the 2e bit-planes of ``matrix``, plane i of
        row k holding bit i of each entry of row k, packed as the scan
        kernel packs a row (``linalg._pack_planes``), read-only and shaped
        (K, 2e, words) of uint64.  Built on first use and kept;
        ``polar._check_memory`` raises ValueError first when its K 2e
        8 ceil(N / 64) bytes, at most K N, do not fit."""
        bits, words = 2 * self.ctx.e, -(-self.n // 64)
        need = self.k * bits * words * 8
        polar._check_memory(need, f"the bit planes of the {self.k} x {polar._short(self.n)} matrix need {{}} bytes")
        planes = linalg._pack_planes(self.matrix, bits).view(np.uint64).reshape(self.k, bits, words)
        planes.flags.writeable = False
        return planes

    def __repr__(self) -> str:
        return f"ProjectiveSystem(m={self.space.m}, q={self.ctx.q}, N={self.n}, K={self.k})"


def build_system(space: polar.HermitianSpace) -> ProjectiveSystem:
    """Generator matrix of the line code of the given space (cached).

    Raises ValueError, before allocating, when the K x N matrix of bytes
    exceeds the available memory of the machine, and RuntimeError unless
    the matrix has rank C(m, 2), so every cached system is certified.
    """
    if "system" in space._cache:
        return space._cache["system"]
    if space.m < 4:
        raise ValueError("the line system requires m >= 4")
    ctx = space.ctx
    k, n_lines = space.m * (space.m - 1) // 2, counts.line_count(space.m, ctx.q)
    polar._check_memory(k * n_lines, f"the {k} x {polar._short(n_lines)} generator matrix needs {{}} bytes")
    a_idx, b_idx = space.line_pair_indices()
    pts_t = np.ascontiguousarray(space.points().T)  # a take copies a strided table per call
    n = len(a_idx)
    # the first line of each run of equal a, then n
    edges = np.concatenate(([0], np.flatnonzero(a_idx[1:] != a_idx[:-1]) + 1, [n]))
    g = np.zeros((k, n), dtype=np.uint8)
    s = 0
    while s + 1 < len(edges):
        # whole runs [edges[s], edges[t]) of at most _LINE_BLOCK lines, or one longer run
        t = max(s + 1, int(np.searchsorted(edges, edges[s] + _LINE_BLOCK, "right")) - 1)
        lo, hi = edges[s], edges[t]
        heads = np.take(pts_t, a_idx[edges[s:t]], axis=1)
        b = np.take(pts_t, b_idx[lo:hi], axis=1, mode="clip")
        _fill_block(ctx, heads, np.diff(edges[s : t + 1]), b, g[:, lo:hi])
        s = t
    got = linalg.rank(ctx, g)
    if got != k:
        raise RuntimeError(f"generator matrix rank {got}, expected {k}")
    system = ProjectiveSystem(space, g)
    space._cache["system"] = system
    return system


def _fill_block(ctx: FieldCtx, heads, runs, b, g) -> None:
    """Rows (i, j) of one block g of the generator, p_a[i] p_b[j] -
    p_a[j] p_b[i], where p_a is column c of heads for runs[c] lines and
    p_b is the line's column of b.

    Rows (0, j) are one byte product: p_b[0] = 0, as lead(b) > lead(a),
    and p_a[0] is 0 or 1.  In characteristic 2 the other rows start at
    zero and, for each bit u, XOR in p_a[i] x^u masked by bit u of
    p_b[j], and p_a[j] x^u masked by bit u of p_b[i].  The rows (i, j),
    j > i, are consecutive in pair order, so each i takes one AND and
    one XOR per term.  For odd p each product is one ``mul_flat``
    gather, a row at a time, and each row adds the products with the
    heads and with the negated heads.
    """
    m = len(b)
    np.multiply(b[1:], np.repeat(heads[0], runs), out=g[: m - 1])
    if ctx.p != 2:
        a, na = (np.repeat(ctx.scaled_codes(h), runs, axis=1) for h in (heads, ctx.neg[heads]))
        for r, (i, j) in enumerate(pair_indices(m)[m - 1 :], m - 1):
            fadd(ctx, np.take(ctx.mul_flat, a[i] + b[j]), np.take(ctx.mul_flat, na[j] + b[i]), g[r])
        return
    mask, tmp = np.empty_like(b), np.empty_like(b[2:])
    for u in range(2 * ctx.e):
        a = np.repeat(ctx.mul[1 << u][heads], runs, axis=1)  # p_a x^u; x^u has code 2^u
        np.right_shift(b, u, out=mask)
        np.bitwise_and(mask, 1, out=mask)
        np.negative(mask, out=mask)  # 0xFF where bit u of p_b is set, else 0
        r = m - 1
        for i in range(1, m - 1):
            rows, t = g[r : r + m - 1 - i], tmp[i - 1 :]  # rows (i, j) for j > i
            np.bitwise_and(mask[i + 1 :], a[i], out=t)
            np.bitwise_xor(rows, t, out=rows)
            np.bitwise_and(a[i + 1 :], mask[i], out=t)
            np.bitwise_xor(rows, t, out=rows)
            r += m - 1 - i
