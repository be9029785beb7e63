"""Dense exact linear algebra over GF(q^2).

Matrices are numpy arrays of field-element codes (see ff).  Sums of
products go through ``matmul``, which sums one row-gathered product
table per inner index, so every result is exact; the weight routes, the
polar images and the line search all call it.  For odd p it sums the
terms as nibble bytes (below), and ``fadd`` remains for scattered single
additions.  The Pluecker fill
(``pluecker.build_system``) has one difference of two products per
coordinate instead, which it forms as bit-sliced products of packed
GF(2) planes in characteristic 2 and by ``FieldCtx.mul_flat`` gathers
for odd p; the scan kernel below sums table rows.  A
subspace is held by its reduced row echelon basis, the canonical
representative of a row space; its flattened entries serve as a total
order and hash key.  Pivots are chosen leftmost first.  ``normalize``
scales rows so their first nonzero entry is 1, the normal form of a
projective point; ``rref`` scales its pivot rows with it, and the point
index of ``polar``, the polar images of ``classify`` and
``pluecker.pluecker_point`` read it.

One forward elimination, ``_echelon``, serves ``rank``, which counts
its pivots and certifies wide matrices such as the generator, and
``rref``, which adds a backward pass and which ``kernel`` reads.
``rank_stack`` eliminates a stack of small matrices at once: the radical
split of a spectrum scan, and a form's q + 1 ranks, rank S and
rank(conj(S) S - lambda I) for each lambda in GF(q), as one stack
(``code._form_ranks``), whose products conj(S) S ``matmul`` forms for a
stack of forms at once.

The scan kernel (``_ScanKernel``) holds the products f M of a K x N
matrix M with every coefficient vector f as sums of digit-group table
rows.  The rows are GF(2) bit-planes in characteristic 2; for odd p,
which must have e = 1, each position is one byte d0 + 16 d1 holding the
base-p digits of the code d0 + p d1 (``_nibble_codes``), so rows add as
uint8 and a nibble is reduced mod p only once it could pass 15; one
helper, ``_add_terms``, keeps that count for ``matmul``, the kernel's
``codewords`` and the direct weight alike.  The kernel's one walk
(``_ScanKernel.nonzero_masks``) yields the packed nonzero masks of f M
over aligned blocks of counter indices f, each a power of Q long and
starting at a multiple of its length, in chunks it cuts itself: the
exhaustive spectrum scan popcounts them (``bit_counts``), with M the
generator and one block of Q^C(m-2,2) forms per two-row orbit, many to a
chunk, and ``HermitianSpace.section_table`` stores their complements,
with M the transposed isotropic points and the block [Q^r, 2 Q^r) of
normalized f for each lead.
Sample mode reads ``weights`` of seeded digit rows, which sums each
block of codewords into one set of ``buffers`` per scan.  A
``pluecker.ProjectiveSystem`` holds the kernel of its generator, sized
beforehand by ``table_bytes``, so scans of one system build it once.
Outside this module only ``n``, ``nonzero_masks``, ``buffers``,
``weights`` and ``table_bytes`` of the kernel are read.  The generator's
direct weight (``code.weight_direct``) shares the kernel's row layouts,
``_pack_planes`` in characteristic 2 and the nibble codes and
``_add_terms`` for odd p, but holds no digit-group tables.  In
characteristic 2 the generator exists only as such planes, and
``_unpack_planes`` reads codes back from them: every column, or a
chosen few.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .ff import FieldCtx

__all__ = [
    "DOT_BLOCK",
    "as_matrix",
    "fadd",
    "fsub",
    "fneg",
    "matmul",
    "normalize",
    "rref",
    "rank",
    "rank_stack",
    "kernel",
]

#: Entries per block of a table-sized product or gather: callers with
#: operands the size of the point or section tables slice them to about
#: this many entries, since each gather first casts its index to intp
#: (8 bytes).
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


def fadd(ctx: FieldCtx, a, b, out=None):
    """a + b elementwise: XOR in characteristic 2, else one gather from
    ``ctx.add_flat``; written to ``out`` when given, which may be a."""
    if ctx.p == 2:
        return np.bitwise_xor(a, b, out=out)
    return np.take(ctx.add_flat, ctx.scaled_codes(a) + b, out=out, mode="clip")


def fsub(ctx: FieldCtx, a, b, out=None):
    return fadd(ctx, a, fneg(ctx, b), out)


def matmul(ctx: FieldCtx, a, b) -> np.ndarray:
    """Matrix product over GF(q^2); a is (r, t), b is (t, c), t >= 1, or
    the products a[f] b[f] of two stacks, (F, r, t) and (F, t, c).

    For each k the product table of row k of b, ``np.take(ctx.mul, b[k],
    axis=1)``, is Q x c with v b[k] in row v (Q = q^2); gathered at
    column k of a it gives the (r, c) terms of k, and ``_add_terms`` sums
    the t terms in place.  In characteristic 2 the terms are codes and
    add by XOR.  For odd p and t > 1 the tables are taken from ``ctx.mul``
    in its ``_nibble_codes`` form, the terms add as uint8 nibbles, reduced
    only before a nibble could pass 15, and the sum is reduced and turned
    back into codes once: code = byte - (16 - p) (byte >> 4).  The tables
    cost Q c entries per k whatever r is, so callers pass the tall
    operand as a.  A stack has no shared table: the terms of k are one
    gather of the products of column k of each a[f] with row k of b[f].
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    t = a.shape[-1]
    if b.shape[-2] != t or t == 0 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ValueError("inner dimensions do not match")
    p = ctx.p
    nibbles = p != 2 and t > 1  # a single term is a code of the table
    products = _nibble_codes(ctx.mul, p) if nibbles else ctx.mul

    def terms(k, out=None):
        if b.ndim == 3:
            return products[a[:, :, k, None], b[:, None, k, :]]
        # the ndarray methods skip np.take's dispatch, about 1 us a call
        return products.take(b[k], axis=1).take(a[:, k], axis=0, out=out, mode="clip")

    out = terms(0)
    scratch = np.empty_like(out) if t > 1 else None
    _add_terms(ctx, out, (terms(k, scratch) for k in range(1, t)))
    if nibbles:
        _reduce(p, out, out=out)
        out -= np.uint8(16 - p) * (out >> 4)
    return out


def normalize(ctx: FieldCtx, rows) -> tuple[np.ndarray, np.ndarray]:
    """The rows scaled so that the first nonzero entry of each is 1, and
    that entry's column: the normal form of a projective point.  A zero
    row stays zero (``ctx.inv[0]`` is 0), with column 0.  The scaling is
    one flat gather from ``ctx.mul_flat``."""
    rows = np.asarray(rows, dtype=np.uint8)
    lead = (rows != 0).argmax(axis=1)
    scale = ctx.scaled_codes(ctx.inv[rows[np.arange(len(rows)), lead]])
    return np.take(ctx.mul_flat, scale[:, None] + rows), lead


def _echelon(ctx: FieldCtx, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Forward elimination of a copy of the ``as_matrix`` array m: its
    rows in row echelon form, pivots leftmost first, and the pivot column
    of each nonzero row.  Each pivot row is swapped up and clears below."""
    r = m.copy()
    nr, nc = r.shape
    pivots: list[int] = []
    for col in range(nc):
        row = len(pivots)
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
        pivots.append(col)
    return r, pivots


def rref(ctx: FieldCtx, m) -> tuple[np.ndarray, int]:
    """Reduced row echelon form and rank.

    The result is the unique RREF of the row space, with unit pivots
    and zeros above and below each pivot: the rows of ``_echelon`` are
    scaled to unit pivots, then one backward pass clears above each.
    """
    r, pivots = _echelon(ctx, as_matrix(ctx, m))
    k = len(pivots)
    r[:k] = normalize(ctx, r[:k])[0]
    for row in range(k - 1, 0, -1):
        f = r[:row, pivots[row], None]
        if f.any():
            r[:row] = fsub(ctx, r[:row], ctx.mul[f, r[row]])
    return r, k


def rank(ctx: FieldCtx, m) -> int:
    """Rank by forward elimination only (``_echelon``).

    A wide matrix is certified on a column subset first: the rank of
    any column subset is at most the rank of the matrix, so when an
    evenly strided subset of about 64 columns per row already has full
    row rank, so does the matrix.  Only a subset that falls short costs
    an elimination of the whole matrix.
    """
    m = as_matrix(ctx, m)
    k, n = m.shape
    step = n // (64 * k) if k else 0
    if step > 1 and len(_echelon(ctx, m[:, ::step])[1]) == k:
        return k
    return len(_echelon(ctx, m)[1])


def rank_stack(ctx: FieldCtx, mats) -> np.ndarray:
    """Ranks of a stack of matrices of shape (B, r, c).

    One batched forward elimination with no row swaps: each column is
    one pivot step of table lookups over the whole stack.  The first row
    with a nonzero entry in the column is the pivot row, and every row,
    the pivot row included, subtracts its multiple that clears the
    column, so the pivot row becomes zero.  The rank of the rest plus one
    is the rank before the step, and every earlier column stays zero, so
    a step updates only the columns after its own.
    """
    a = np.array(mats, dtype=np.uint8)
    if a.ndim != 3:
        raise ValueError("expected a stack of matrices")
    if a.size and a.max() >= ctx.q2:
        raise ValueError(f"entry out of range for GF({ctx.q2})")
    b, nr, nc = a.shape
    ranks = np.zeros(b, dtype=np.int64)
    stack = np.arange(b)
    for col in range(nc):
        column = a[:, :, col]
        prow = a[stack, (column != 0).argmax(axis=1), col:]
        has = prow[:, 0] != 0  # a stack with no pivot has f = 0 below
        f = ctx.mul[column, ctx.inv[prow[:, 0]][:, None]]
        a[:, :, col + 1 :] = fsub(ctx, a[:, :, col + 1 :], ctx.mul[f[:, :, None], prow[:, None, 1:]])
        ranks += has
    return ranks


def kernel(ctx: FieldCtx, m) -> np.ndarray:
    """Right kernel {x : m x = 0} as its canonical RREF basis, one row
    per dimension."""
    r, rk = rref(ctx, m)
    nc = r.shape[1]
    pivots = [int(np.flatnonzero(row)[0]) for row in r[:rk]]
    free = [c for c in range(nc) if c not in pivots]
    rows = np.zeros((len(free), nc), dtype=np.uint8)
    rows[np.arange(len(free)), free] = 1
    rows[:, pivots] = fneg(ctx, r[:rk, free].T)
    basis, rk = rref(ctx, rows)
    return basis[:rk]


# -- scan kernel ---------------------------------------------------------------

# The scan kernel keeps each digit-group table at most this many rows and
# each block of codewords near this many bytes.
_GROUP_ROWS = 256
_BLOCK_BYTES = 1 << 18

# np.bitwise_count is new in numpy 2.0
_bitwise_count = getattr(np, "bitwise_count", None)


def bit_counts(rows: np.ndarray) -> np.ndarray:
    """Set bits along the last axis of a uint8 array, as intp.

    With ``np.bitwise_count`` the whole words of each row are counted as
    uint64 and the remaining bytes one at a time, a pass that rows of
    whole words, such as the section table's, skip; without it (numpy
    before 2.0) every byte takes a SWAR popcount.
    """
    rows = np.ascontiguousarray(rows)
    if _bitwise_count is None:
        rows = rows - ((rows >> 1) & 0x55)
        rows = (rows & 0x33) + ((rows >> 2) & 0x33)
        return ((rows + (rows >> 4)) & 0x0F).sum(axis=-1, dtype=np.intp)
    whole = rows.shape[-1] // 8 * 8
    counts = _bitwise_count(rows[..., :whole].view(np.uint64)).sum(axis=-1, dtype=np.intp)
    if whole < rows.shape[-1]:
        counts += _bitwise_count(rows[..., whole:]).sum(axis=-1, dtype=np.intp)
    return counts


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


@cache
def _bit_products(ctx: FieldCtx) -> np.ndarray:
    """Characteristic 2: bit j of d x^i at [d, i, j], a read-only bool
    array of shape (Q, 2e, 2e); x^i has the code 2^i.  Plane j of d g is
    the XOR of the planes i of g for which [d, i, j] is set: the scan
    kernel's tables read every row d, the direct weight the rows of a
    form's entries and the Pluecker fill the rows d = x^w."""
    shifts = np.arange(2 * ctx.e)
    return _frozen(ctx.mul[:, 1 << shifts, None] >> shifts & 1 > 0)


def _pack_planes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Characteristic 2: rows of element codes as their ``bits`` GF(2)
    bit-planes, plane i holding bit i of each code, each plane packed with
    np.packbits into 8 ceil(N / 64) bytes (zero-padded), plane after
    plane along a row.  The rows are packed in blocks of about DOT_BLOCK
    codes, at least one row, so a bit's temporaries never span the whole
    matrix."""
    n = codes.shape[1]
    packed = np.zeros((len(codes), bits, -(-n // 64) * 8), dtype=np.uint8)
    step = max(1, DOT_BLOCK // max(1, n))
    for lo in range(0, len(codes), step):
        block = codes[lo : lo + step]
        for i in range(bits):
            # np.packbits sets a bit for every nonzero entry
            packed[lo : lo + step, i, : -(-n // 8)] = np.packbits(block & (1 << i), axis=-1)
    return packed.reshape(len(codes), -1)


def _unpack_planes(planes: np.ndarray, n: int, cols: np.ndarray | None = None) -> np.ndarray:
    """Characteristic 2: the element codes of packed planes shaped (...,
    bits, words), as ``_pack_planes`` packs them: every column 0 .. n-1,
    or only the columns ``cols``, read bit by bit from their bytes."""
    packed = planes.view(np.uint8)
    bits = np.unpackbits(packed, axis=-1, count=n) if cols is None else packed[..., cols // 8] >> (7 - cols % 8).astype(np.uint8) & 1
    codes = bits[..., 0, :]  # a loop, as np.bitwise_or.reduce over the planes took 10x as long
    for i in range(1, bits.shape[-2]):
        codes = codes | bits[..., i, :] << i
    return codes


def _nibble_codes(codes: np.ndarray, p: int) -> np.ndarray:
    """Odd p (e = 1): each element code d0 + p d1 as the byte d0 + 16 d1,
    whose nibbles add as uint8 (see ``_nibble_reduction``)."""
    return codes + (16 - p) * (codes // p)


@cache
def _nibble_reduction(p: int) -> tuple[np.ndarray, int]:
    """Odd p: the 256-entry table that reduces both nibbles of a byte mod
    p, read-only, and the most terms of digits below p that a nibble may
    sum before it must be reduced: the sum stays below 16 while there are
    at most 15 // (p - 1), 7 at p = 3, 3 at p = 5 and 2 at p = 7."""
    lo, hi = np.arange(256) & 15, np.arange(256) >> 4
    return _frozen((lo % p + 16 * (hi % p)).astype(np.uint8)), 15 // (p - 1)


def _reduce(p: int, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Odd p: c with each nibble reduced mod p (``_nibble_reduction``),
    written to ``out`` when given, which may be c; one lookup of
    DOT_BLOCK entries at a time, since each first casts its index to intp."""
    reduced = _nibble_reduction(p)[0]
    c = np.ascontiguousarray(c)
    out = np.empty_like(c) if out is None else out
    src, dst = c.reshape(-1), out.reshape(-1)
    for lo in range(0, src.size, DOT_BLOCK):
        hi = lo + DOT_BLOCK
        np.take(reduced, src[lo:hi], out=dst[lo:hi], mode="clip")
    return out


def _add_terms(ctx: FieldCtx, acc: np.ndarray, terms, held: int = 1) -> np.ndarray:
    """acc plus every array of ``terms``, in place: XOR in characteristic
    2.  For odd p acc and the terms are nibble bytes with digits below p,
    and acc holds the sum of ``held`` of them; they add as uint8, and acc
    is reduced (``_reduce``) only before a nibble could pass 15, so the
    sum is congruent to the total nibble by nibble but need not be
    reduced."""
    if ctx.p == 2:
        for term in terms:
            np.bitwise_xor(acc, term, out=acc)
        return acc
    limit = _nibble_reduction(ctx.p)[1]
    for term in terms:
        if held == limit:
            _reduce(ctx.p, acc, out=acc)
            held = 1
        np.add(acc, term, out=acc)
        held += 1
    return acc


def _digits(idx: np.ndarray, q2: int, width: int) -> np.ndarray:
    """Counter digits of the indices, most significant first."""
    powers = q2 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % q2


class _ScanKernel:
    """The products f M of a K x N matrix M with coefficient vectors f,
    as sums of digit-group table rows.

    The K digits of f are split into consecutive groups of g digits,
    the last ending at digit K - 1 and the first possibly shorter, with g
    the largest below K such that Q^g <= _GROUP_ROWS (Q = q^2).  Table i
    holds the codeword of every digit combination of group i, its row
    index being those digits read base Q, most significant first; row 0
    is the zero word.  A codeword is the sum of one row per group.

    In characteristic 2 a row holds the 2e bit-planes of the codeword,
    each packed with np.packbits into ``plane`` bytes (a multiple of 8,
    zero-padded), so a sum is an XOR and the nonzero mask is the OR of
    the planes.  The tables are built from the planes of M, which the
    kernel is given, shaped (K, 2e, words) as ``ProjectiveSystem.planes``
    with ``n`` = N, or packs from the K x N codes once
    (``_pack_planes``): plane j of the row d M_k is the XOR of the planes
    i of M_k for which bit j of d x^i is set, so no row of codes is
    multiplied or packed per table.

    For odd p the field must have e = 1 (q = p, as for every supported
    odd q), so an element code is c = d0 + p d1 with two base-p digits.
    A row holds one byte d0 + 16 d1 per position, and a sum is a plain
    uint8 add of the nibbles.  A sum of t rows of digits below p keeps
    every nibble below 16 while t <= 15 // (p - 1): 7 terms at p = 3,
    3 at p = 5, 2 at p = 7.  ``codewords`` sums them with ``_add_terms``,
    which reduces each nibble mod p, through one 256-entry table, only
    before a sum would pass that limit, so its rows are congruent to the
    codewords nibble by nibble but need not be reduced; the tables are.
    The nonzero mask tests each nibble x for divisibility without a
    lookup or a shift: x <= 15 is a multiple of p exactly when x p^-1 mod
    256, a wrapping uint8 product, is at most 255 // p, and the high
    nibble, kept in place as 16 x, exactly when 16 x p^-1 mod 256 =
    16 (x p^-1 mod 16) is at most 16 (15 // p); it is packed with
    np.packbits.
    """

    def __init__(self, ctx: FieldCtx, matrix: np.ndarray, n: int | None = None):
        if ctx.p != 2 and ctx.e != 1:
            raise ValueError(f"the scan kernel needs q = p for odd p, not q = {ctx.q}")
        self.ctx = ctx
        q2, k, self.n = ctx.q2, len(matrix), matrix.shape[1] if n is None else n
        self.g, self.bounds, self.width = self._shape(ctx, k, self.n)
        self.planes = bits = 2 * ctx.e if ctx.p == 2 else 0
        self.plane = -(-self.n // 64) * 8
        if bits and matrix.ndim == 2:
            matrix = _pack_planes(matrix, bits).view(np.uint64).reshape(k, bits, -1)
        sel = _bit_products(ctx)[..., None] if bits else None
        self.tables = []
        for a, b in self.bounds:
            tab = np.zeros((1, self.width), dtype=np.uint8)
            for row in matrix[a:b]:
                # row d of terms is d times the matrix row; each old row r
                # becomes the rows r Q + d
                if bits:
                    # plane j of d g: the XOR of the planes i of g that
                    # [d, i, j] selects, as code._direct_count selects
                    terms = np.bitwise_xor.reduce(np.where(sel, row[None, :, None], np.uint64(0)), 1).view(np.uint8)
                else:
                    # np.take keeps it C-contiguous, unlike ctx.mul[:, row]
                    terms = _nibble_codes(np.take(ctx.mul, row, axis=1), ctx.p)
                new = tab[:, None] ^ terms.reshape(q2, -1) if bits else _reduce(ctx.p, tab[:, None] + terms)
                tab = new.reshape(len(tab) * q2, self.width)
            self.tables.append(tab)

    @staticmethod
    def _shape(ctx: FieldCtx, k: int, n: int) -> tuple[int, list[tuple[int, int]], int]:
        """The group size g, the digit groups [a, b) and the row width in
        bytes of a kernel on a K x N matrix."""
        g = max(g for g in range(1, max(k, 2)) if ctx.q2**g <= _GROUP_ROWS)
        bounds = [(max(0, b - g), b) for b in range(k, 0, -g)][::-1]
        return g, bounds, 2 * ctx.e * (-(-n // 64) * 8) if ctx.p == 2 else n

    @classmethod
    def table_bytes(cls, ctx: FieldCtx, k: int, n: int) -> int:
        """Bytes of the tables of a kernel on a K x N matrix, the sum of
        Q^(b - a) rows of ``width`` bytes over the groups [a, b)."""
        _, bounds, width = cls._shape(ctx, k, n)
        return sum(ctx.q2 ** (b - a) for a, b in bounds) * width

    def codewords(self, digits: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Codewords of digit rows that cover whole groups, the digits of
        the groups left out being zero: one table row per group, summed
        (for odd p not necessarily reduced).  Rows that cover no group
        give zero words.  Given C-contiguous uint8 arrays ``out`` and
        ``scratch`` of shape (rows, width), the sum is written to ``out``
        and each gathered table row to ``scratch``, so nothing is
        allocated per group."""
        q2 = self.ctx.q2
        c = np.empty((len(digits), self.width), dtype=np.uint8) if out is None else out
        groups = [(a, b, tab) for (a, b), tab in zip(self.bounds, self.tables) if b <= digits.shape[1]]
        if not groups:
            c[...] = 0
            return c

        def rows(a, b, tab, into):
            # the indices are below Q^(b - a) by construction, a take with
            # the default mode="raise" buffers its out, and the method skips
            # np.take's dispatch
            idx = digits[:, a:b] @ q2 ** np.arange(b - a - 1, -1, -1)
            return tab.take(idx, axis=0, out=into, mode="clip")

        (a, b, tab), *rest = groups
        rows(a, b, tab, c)
        return _add_terms(self.ctx, c, (rows(a, b, tab, scratch) for a, b, tab in rest))

    def _mask(self, c: np.ndarray, out=None, scratch=None) -> np.ndarray:
        """Packed nonzero positions of codewords along the last axis: the
        OR of the planes, or np.packbits of the positions with a nibble
        nonzero mod p.  Given buffers, the OR is written to ``out`` (rows
        by ``plane`` bytes) in characteristic 2; for odd p the nibble
        products go to ``scratch`` (uint8 like c) and the nonzero
        positions to ``out`` (bool like c), so only the packed mask, an
        eighth of c, is allocated."""
        if not self.planes:
            p = self.ctx.p
            inv = np.uint8(pow(p, -1, 256))
            s = np.bitwise_and(c, 15, out=scratch)
            nonzero = np.greater(np.multiply(s, inv, out=s), np.uint8(255 // p), out=out)
            np.multiply(np.bitwise_and(c, 0xF0, out=s), inv, out=s)
            nonzero |= np.greater(s, np.uint8(16 * (15 // p)), out=s.view(bool))
            return np.packbits(nonzero, axis=-1)
        w = self.plane
        acc = np.bitwise_or(c[..., :w], c[..., w : 2 * w], out=out)
        for i in range(2, self.planes):
            np.bitwise_or(acc, c[..., i * w : (i + 1) * w], out=acc)
        return acc

    def buffers(self, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The codeword, scratch and mask buffers of ``weights`` for blocks
        of at most ``rows`` digit rows and about _BLOCK_BYTES of codewords,
        at least one row."""
        rows = max(1, min(_BLOCK_BYTES // self.width, rows))
        c, scratch = np.empty((2, rows, self.width), dtype=np.uint8)
        mask = np.empty((rows, self.plane), np.uint8) if self.planes else np.empty((rows, self.n), bool)
        return c, scratch, mask

    def weights(self, digits: np.ndarray, buffers) -> np.ndarray:
        """Nonzero positions of the codeword of each row of K digits, one
        block of as many rows as the ``buffers`` hold at a time.  Every
        block reuses the buffers, which a scan allocates once and passes
        to each call."""
        c, scratch, mask = buffers
        step = len(c)
        out = np.empty(len(digits), dtype=np.intp)
        for lo in range(0, len(digits), step):
            b = min(step, len(digits) - lo)
            block = self.codewords(digits[lo : lo + step], c[:b], scratch[:b])
            out[lo : lo + b] = bit_counts(self._mask(block, mask[:b], scratch[:b]))
        return out

    @cached_property
    def _walk_table(self) -> np.ndarray:
        """The last table as ``nonzero_masks`` reads it.  For odd p,
        c + t != 0 exactly when c != -t, so the walk compares each reduced
        prefix codeword with the negated table instead of adding: a nibble
        of t is below p, so p - t is a nibble congruent to -t."""
        if self.planes:
            return self.tables[-1]
        return _reduce(self.ctx.p, np.uint8(0x11 * self.ctx.p) - self.tables[-1])

    def nonzero_masks(self, starts, size: int):
        """The packed nonzero masks of the codewords of the counter
        indices of the aligned blocks [s, s + size), s in ``starts``, in
        order and in chunks, each shaped (indices, bytes); ``size`` is a
        power of Q and the starts ascend as multiples of it.  The padding
        bits after N are clear.

        An index is a prefix, its digits before the last group, times Q^g
        plus a row of the last table, and its codeword is the prefix's
        codeword plus that row.  So a block no longer than the table is
        one aligned slice of it beside one prefix, and a longer block is
        whole prefixes: every segment of the walk is min(size, Q^g) table
        rows beside one prefix codeword.  The prefix codewords are summed
        for about _BLOCK_BYTES of them at a time, and a chunk is as many
        segments as about _BLOCK_BYTES of codewords hold, at least one;
        the whole table is broadcast, not gathered, to each prefix.
        """
        rows, last = self.ctx.q2**self.g, self._walk_table
        seg = min(size, rows)
        first = (np.asarray(starts, dtype=np.int64)[:, None] + np.arange(0, size, seg)).reshape(-1)
        slices = last.reshape(rows // seg, seg, -1)
        per = max(1, _BLOCK_BYTES // max(1, seg * self.width))  # N = 0 has empty rows
        summed = max(1, _BLOCK_BYTES // max(1, self.width) // per) * per
        for lo in range(0, len(first), summed):
            digits = _digits(first[lo : lo + summed] // rows, self.ctx.q2, self.bounds[-1][0])
            c = self.codewords(digits) if self.planes else _reduce(self.ctx.p, self.codewords(digits))
            for at in range(0, len(c), per):
                pc = c[at : at + per, None]
                t = slices if seg == rows else slices[first[lo + at : lo + at + per] % rows // seg]
                mask = self._mask(pc ^ t) if self.planes else np.packbits(pc != t, axis=-1)
                yield mask.reshape(len(pc) * seg, mask.shape[-1])
