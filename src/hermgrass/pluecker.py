"""Pluecker embedding of totally isotropic lines.

A 2-space with basis rows (v, w) maps to the point of PG(C(m,2)-1, q^2)
with coordinates v_i w_j - v_j w_i, indexed by pairs (i, j), i < j, in
lexicographic order.  For a basis in reduced row echelon form these
coordinates are already normalized (the pivot-pair coordinate is 1).

The ordered images of all totally isotropic lines form a projective
system; stacking them as columns gives the generator matrix of the
induced linear code.

``build_system`` fills the generator from the line pairs (a, b) of
``HermitianSpace.line_pair_indices``, whose point rows p_a, p_b are the
RREF basis of each line; row (i, j) is p_a[i] p_b[j] - p_a[j] p_b[i].
It walks blocks of ``_LINE_BLOCK`` lines whose bounds are multiples of
64.  The lines come sorted by a, in runs of one a each, so a block takes
its a-side from the heads of the runs that meet it, expanded over each
run's lines in the block with ``np.repeat``, and its b-side from one row
gather of the points.  Rows (0, j) are p_a[0] p_b[j], since p_b[0] = 0
and p_a[0] is 0 or 1.  The full N x m bases are never built.

In characteristic 2 the generator is filled straight into its GF(2) bit
planes, and the system keeps only those (``ProjectiveSystem.planes``).
With bit u of a code the coefficient of x^u (see ff), a block packs bit
w of each coordinate of each side into uint64 words of 64 lines
(``linalg._pack_planes``), A[i, w] on the a-side and B[j, u] on the
b-side; as the block starts on a multiple of 64, its words are whole
words of the planes.  Plane v of row (i, j) is then the XOR, over the
pairs (w, u) for which bit v of x^w x^u is set, of (A[i, w] & B[j, u]) ^
(A[j, w] & B[i, u]): the bit-sliced product of Boothby and Bradshaw,
"Bitslicing and the Method of Four Russians Over Larger Finite Fields"
(2009).  The bit table is the rows x^w of ``linalg._bit_products``.
For odd p (e = 1, small systems) the generator stays bytes, each
product is one ``FieldCtx.mul_flat`` gather, and the difference adds
p_a[i] p_b[j] and (-p_a[j]) p_b[i], with the heads negated once per
block.  The fill computes its products itself, not through
``linalg.matmul``, since a coordinate is a difference of two products,
not a sum over an inner index.

``linalg.rank`` certifies the generator on an evenly strided subset of
about 64 columns per row, unpacked from the planes in characteristic 2,
and on the whole matrix only when the subset falls short.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import counts, linalg, polar
from .ff import FieldCtx
from .linalg import fadd, fsub

__all__ = ["pair_indices", "pluecker_point", "ProjectiveSystem", "build_system"]

# Lines per block of the fill, a multiple of 64.  At (8,2), cold, 2^18 was
# faster than 2^15, 2^16, 2^17 and 2^19; a block's operands take about
# 3m bytes a line.
_LINE_BLOCK = 1 << 18


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
    the normalized coordinates of the j-th line in canonical order,
    read-only.  For odd p the system holds those bytes.  In
    characteristic 2 it holds only the matrix's 2e bit planes
    (``planes``): read-only uint64 words shaped (K, 2e, ceil(N / 64)),
    plane i of row k holding bit i of each entry of row k, packed as
    ``linalg._pack_planes`` packs a row.  Every weight path reads the
    planes, and ``matrix`` unpacks them on each read, as ``rows`` does
    for a block of rows, which ``genmat`` writes one at a time.

    The constructor takes a matrix, which it packs in characteristic 2,
    and does not check it; ``build_system`` hands over the planes it
    fills, with ``n`` = N, and certifies that they have full rank K, so
    distinct coefficient vectors give distinct codewords.  The system
    holds the scan kernel of its generator (``scan_kernel``), built on
    first use, so every spectrum scan of one system reads the same
    tables.
    """

    def __init__(self, space: polar.HermitianSpace, matrix: np.ndarray, n: int | None = None):
        self.space, self.ctx = space, space.ctx
        if n is None:  # a K x N matrix, packed in characteristic 2; else build_system's planes
            matrix, n, bits = np.ascontiguousarray(matrix), np.shape(matrix)[1], 2 * self.ctx.e
            if self.ctx.p == 2:
                matrix = linalg._pack_planes(matrix, bits).view(np.uint64).reshape(len(matrix), bits, -1)
        matrix.flags.writeable = False
        self.k, self.n = len(matrix), n
        setattr(self, "planes" if self.ctx.p == 2 else "_codes", matrix)

    @property
    def matrix(self) -> np.ndarray:
        """The K x N generator, read-only: ``rows(0, K)``."""
        return self.rows(0, self.k)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo .. hi-1 of the generator, read-only.  In characteristic 2
        each read unpacks ``planes`` into a new array, which the system does
        not keep, a row of about DOT_BLOCK columns (whole words) at a time,
        so beside the rows read its temporaries stay a few such rows."""
        if self.ctx.p != 2:
            return self._codes[lo:hi]
        planes = self.planes[lo:hi]
        g, step = np.empty((len(planes), self.n), dtype=np.uint8), 64 * max(1, linalg.DOT_BLOCK // 64)
        for c0 in range(0, self.n, step):
            for row, plane in zip(g[:, c0 : c0 + step], planes[:, :, c0 // 64 : (c0 + step) // 64]):
                row[...] = linalg._unpack_planes(plane, len(row))
        g.flags.writeable = False
        return g

    @cached_property
    def scan_kernel(self) -> linalg._ScanKernel:
        """``linalg._ScanKernel`` of the generator, built on first use and
        kept, from ``planes`` in characteristic 2.  ``polar._check_memory``
        raises ValueError first when its tables do not fit, so none is
        allocated."""
        need = linalg._ScanKernel.table_bytes(self.ctx, self.k, self.n)
        polar._check_memory(need, f"the scan tables of the {self.k} x {polar._short(self.n)} matrix need {{}} bytes")
        return linalg._ScanKernel(self.ctx, self.planes if self.ctx.p == 2 else self._codes, self.n)

    def __repr__(self) -> str:
        return f"ProjectiveSystem(m={self.space.m}, q={self.ctx.q}, N={self.n}, K={self.k})"


def build_system(space: polar.HermitianSpace) -> ProjectiveSystem:
    """Generator matrix of the line code of the given space (cached).

    Raises ValueError, before a line is enumerated, when the generator
    (its planes in characteristic 2, K x N bytes for odd p) and the line
    pairs together exceed the available memory of the machine, and
    RuntimeError unless the generator has rank C(m, 2), so every cached
    system is certified.
    """
    if "system" in space._cache:
        return space._cache["system"]
    if space.m < 4:
        raise ValueError("the line system requires m >= 4")
    ctx = space.ctx
    k, n_lines = space.m * (space.m - 1) // 2, counts.line_count(space.m, ctx.q)
    bits = 2 * ctx.e if ctx.p == 2 else 0
    need = (k * bits * 8 * -(-n_lines // 64) if bits else k * n_lines) + n_lines * polar._LINE_BYTES
    polar._check_memory(need, f"the {k} x {polar._short(n_lines)} generator and its lines need {{}} bytes")
    (a_idx, b_idx), pts = space.line_pair_indices(), space.points()
    n = len(a_idx)
    # the first line of each run of equal a, then n
    edges = np.concatenate(([0], np.flatnonzero(a_idx[1:] != a_idx[:-1]) + 1, [n]))
    g = np.zeros((k, bits, -(-n // 64)), dtype=np.uint64) if bits else np.zeros((k, n), dtype=np.uint8)
    for lo in range(0, n, _LINE_BLOCK):
        hi = min(n, lo + _LINE_BLOCK)
        # the runs s .. t-1 meet [lo, hi); cut to it, they hold runs[c] lines
        s, t = int(np.searchsorted(edges, lo, "right")) - 1, int(np.searchsorted(edges, hi))
        runs = np.diff(np.clip(edges[s : t + 1], lo, hi))
        heads = np.take(pts, a_idx[edges[s:t]], axis=0).T
        b = np.take(pts, b_idx[lo:hi], axis=0).T.copy()  # a row gather and a copy beat a column gather
        out = g[:, :, lo // 64 : -(-hi // 64)] if bits else g[:, lo:hi]
        (_fill_planes if bits else _fill_block)(ctx, heads, runs, b, out)
    system = ProjectiveSystem(space, g, n)
    cols = np.arange(0, n, max(1, n // (64 * k)))  # the strided subset of linalg.rank
    got = linalg.rank(ctx, linalg._unpack_planes(g, n, cols) if bits else g[:, cols])
    got = got if got == k else linalg.rank(ctx, system.matrix)
    if got != k:
        raise RuntimeError(f"generator matrix rank {got}, expected {k}")
    space._cache["system"] = system
    return system


def _fill_planes(ctx: FieldCtx, heads, runs, b, out) -> None:
    """Characteristic 2: XOR the planes of rows (i, j) of one block of the
    generator, p_a[i] p_b[j] + p_a[j] p_b[i], into the zero words ``out``,
    where p_a is column c of heads for runs[c] lines and p_b is the
    line's column of b.

    With A and B the packed bits of the two sides and Bx[w] the planes
    of p_b x^w, each the XOR of the B[:, u] that the bit table of x^w x^u
    selects, plane v of row (i, j) is the XOR over w of A[i, w] & Bx[w][j, v]
    and A[j, w] & Bx[w][i, v].  The rows (i, j), j > i, are consecutive
    in pair order, so each i takes one AND and one XOR per term.  Rows
    (0, j) are B[j] masked by bit 0 of p_a[0], which is 0 or 1.
    """
    m, bits = len(b), 2 * ctx.e
    a_side, b_side = (linalg._pack_planes(c, bits).view(np.uint64).reshape(m, bits, -1) for c in (np.repeat(heads, runs, axis=1), b))
    bx = np.zeros((bits, *b_side.shape), dtype=np.uint64)
    for w, u, v in zip(*np.nonzero(linalg._bit_products(ctx)[1 << np.arange(bits)])):  # bit v of x^w x^u
        bx[w, :, v] ^= b_side[:, u]
    np.bitwise_and(b_side[1:], a_side[0, 0], out=out[: m - 1])
    tmp = np.empty_like(b_side[2:])
    for i in range(1, m - 1):
        r = i * (2 * m - 1 - i) // 2  # rows (i, j) for j > i
        rows, t = out[r : r + m - 1 - i], tmp[i - 1 :]
        for w in range(bits):
            rows ^= np.bitwise_and(bx[w, i + 1 :], a_side[i, w], out=t)
            rows ^= np.bitwise_and(bx[w, i], a_side[i + 1 :, w, None], out=t)


def _fill_block(ctx: FieldCtx, heads, runs, b, g) -> None:
    """Odd p: rows (i, j) of one block g of the generator, p_a[i] p_b[j] -
    p_a[j] p_b[i], where p_a is column c of heads for runs[c] lines and
    p_b is the line's column of b.

    Rows (0, j) are one byte product: p_b[0] = 0, as lead(b) > lead(a),
    and p_a[0] is 0 or 1.  Each other product is one ``mul_flat``
    gather, a row at a time, and each row adds the products with the
    heads and with the negated heads.
    """
    m = len(b)
    np.multiply(b[1:], np.repeat(heads[0], runs), out=g[: m - 1])
    a, na = (np.repeat(ctx.scaled_codes(h), runs, axis=1) for h in (heads, ctx.neg[heads]))
    for r, (i, j) in enumerate(pair_indices(m)[m - 1 :], m - 1):
        fadd(ctx, np.take(ctx.mul_flat, a[i] + b[j]), np.take(ctx.mul_flat, na[j] + b[i]), g[r])
