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
RREF basis of each line.  It walks the lines in blocks of 2^16 and
gathers, per block, the m coordinate columns of the a- and b-points
from the transposed point table, the a-side pre-scaled by q^2 once
(``FieldCtx.scaled_codes``).  Every product p_a[i] p_b[j] is then one
add and one 1-D gather from ``FieldCtx.mul_flat``, and row (i, j) of
the block is mul_flat[A_i + B_j] - mul_flat[A_j + B_i], except for
i = 0: p_b[0] = 0 and p_a[0] is 0 or 1, so row (0, j) is the plain
byte product p_a[0] p_b[j].  The full N x m bases are never built.
The fill gathers its products itself, not through ``linalg.matmul``,
since a coordinate is a difference of two products, not a sum over an
inner index.
``linalg.rank`` certifies the K x N matrix, usually on a strided subset
of its columns.
"""

from __future__ import annotations

import numpy as np

from . import linalg, polar
from .ff import FieldCtx
from .linalg import fsub

__all__ = ["pair_indices", "pluecker_point", "ProjectiveSystem", "build_system"]

# Lines per block of the Pluecker fill; bounds the gathered point
# columns to m * 2^16 codes per side.
_LINE_BLOCK = 1 << 16


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
    v, w = b[0], b[1]
    m = b.shape[1]
    coords = np.zeros(m * (m - 1) // 2, dtype=np.uint8)
    for k, (i, j) in enumerate(pair_indices(m)):
        coords[k] = fsub(ctx, ctx.mul[v[i], w[j]], ctx.mul[v[j], w[i]])
    nz = np.nonzero(coords)[0]
    if nz.size == 0:
        raise ValueError("degenerate basis: rows are linearly dependent")
    lead = coords[nz[0]]
    if lead != 1:
        coords = ctx.mul[ctx.inv[lead], coords]
    return coords


class ProjectiveSystem:
    """Ordered Pluecker images of all totally isotropic lines.

    ``matrix`` is the K x N generator matrix whose j-th column holds
    the normalized coordinates of the j-th line in canonical order.
    The constructor does not check the matrix; ``build_system``
    certifies that it has full rank K, so distinct coefficient vectors
    give distinct codewords.
    """

    def __init__(self, space: polar.HermitianSpace, matrix: np.ndarray):
        self.space = space
        self.ctx = space.ctx
        matrix = np.ascontiguousarray(matrix)
        matrix.flags.writeable = False
        self.matrix = matrix
        self.k = matrix.shape[0]
        self.n = matrix.shape[1]

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
    pairs = pair_indices(space.m)
    k, n_lines = len(pairs), polar.line_count(space.m, ctx.q)
    polar._check_memory(k * n_lines, f"the {k} x {n_lines} generator matrix needs {{}} bytes")
    a_idx, b_idx = space.line_pair_indices()
    pts_t = space.points().T
    pts_t_scaled = ctx.scaled_codes(pts_t)
    mulf = ctx.mul_flat
    n = len(a_idx)
    g = np.empty((k, n), dtype=np.uint8)
    for lo in range(0, n, _LINE_BLOCK):
        hi = min(n, lo + _LINE_BLOCK)
        a = np.take(pts_t_scaled, a_idx[lo:hi], axis=1)
        b = np.take(pts_t, b_idx[lo:hi], axis=1)
        a0 = np.take(pts_t[0], a_idx[lo:hi])
        for r, (i, j) in enumerate(pairs):
            if i == 0:  # lead(b) >= 1 gives b_0 = 0, and a_0 is 0 or 1: row (0, j) is a_0 b_j
                np.multiply(a0, b[j], out=g[r, lo:hi])
            else:
                fsub(ctx, np.take(mulf, a[i] + b[j]), np.take(mulf, a[j] + b[i]), g[r, lo:hi])
    got = linalg.rank(ctx, g)
    if got != len(pairs):
        raise RuntimeError(f"generator matrix rank {got}, expected {len(pairs)}")
    system = ProjectiveSystem(space, g)
    space._cache["system"] = system
    return system

