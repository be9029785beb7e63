"""Hermitian polar spaces over GF(q^2).

A HermitianSpace wraps V(m, q^2) with the nondegenerate Hermitian
form, conjugate-linear in the first argument:

    inner(x, y) = conj(x)^T y,    conj = Frobenius a -> a^q.

Every nondegenerate Hermitian form on V(m, q^2) is isometric to this
one, so the points, lines, codes and weights computed here do not
depend on the choice; the Gram matrix is fixed to the identity.

Conventions fixed here and relied on elsewhere:

* projective points are normalized so the first nonzero coordinate
  is 1 (``linalg.normalize``), and the canonical point order is
  ascending lexicographic on coordinate code tuples;
* a totally isotropic 2-space is represented by its unique 2 x m
  reduced row echelon basis, and the canonical line order is
  ascending lexicographic on the flattened basis.

The closed-form point, line and cone counts are in ``counts``; the
enumerations here are checked against them.

``HermitianSpace.section_table`` holds, bit-packed, which isotropic
points lie on each hyperplane of PG(m-1, q^2).  It is the complement of
the nonzero masks that the exhaustive scan's kernel walk
(``linalg._ScanKernel``) yields for the points as matrix columns, one
range of coefficient vectors per lead.  Beside it, in the same
allocation and under the same memory check, the space holds the perp
row of every isotropic point (``perp_sections``), which the per-point
route reads for every form.
Subspaces (``perp``, ``radical_profile``) are RREF basis arrays.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from decimal import Decimal
from functools import partial, reduce

import numpy as np

from . import counts, linalg
from .ff import FieldCtx
from .linalg import fadd

__all__ = [
    "RadicalProfile",
    "HermitianSpace",
    "perp",
    "radical_profile",
]

# Entries of one inner-product block in line_pair_indices: 256 KB per
# uint8 temporary.  Blocks of 1 << 20 were no faster at (8,2), and the
# heap that their hit lists grew, about 8 MB, stayed resident after it.
_BLOCK_ELEMS = 1 << 18

# Bytes per line that line_pair_indices keeps at once, at most: the b of
# each hit in search order, and the a and b it returns, int32 each when
# the points need it (uint16 otherwise).
_LINE_BYTES = 12

# The most points whose indices line_pair_indices keeps as uint16.
_UINT16_POINTS = 1 << 16


def _available_memory() -> int:
    """Bytes of memory available for new allocations: ``MemAvailable``
    from /proc/meminfo, or the physical memory where that is absent."""
    try:
        with open("/proc/meminfo", "rb") as f:
            for line in f:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _short(n: int) -> str:
    """``n`` in full up to 15 digits, else to three significant digits
    (4.10e+2144), so that a refusal stays one short line."""
    return str(n) if n < 10**15 else f"{Decimal(n):.2e}"


def _check_memory(need: int, what: str) -> None:
    """Raise ValueError when ``need`` bytes exceed the available memory;
    ``what`` names them, with ``{}`` for ``need`` in ``_short`` form."""
    have = _available_memory()
    if need > have:
        raise ValueError(f"{what.format(_short(need))}, more than the {have} bytes of available memory")


@dataclass(frozen=True)
class RadicalProfile:
    """Shape of a subspace section of the polar space.

    ``dim`` is the subspace dimension, ``t`` the dimension of the
    radical of the restricted form.  The label reads [Pi_t]H_s for the
    cone with vertex dimension t over a nondegenerate section of
    dimension s = dim - t.
    """

    dim: int
    t: int

    @property
    def label(self) -> str:
        return f"[Pi_{self.t}]H_{self.dim - self.t}"


class HermitianSpace:
    """V(m, q^2) with the Hermitian form conj(x)^T y.

    Enumerations are cached on the instance; the caches are immutable
    arrays, so sharing a space between workers is safe.
    """

    def __init__(self, m: int, ctx: FieldCtx):
        if m < 1:
            raise ValueError("m must be positive")
        self.m = m
        self.ctx = ctx
        self._cache: dict[str, object] = {}

    # -- scalar form ----------------------------------------------------
    def inner(self, x, y) -> int:
        """conj(x)^T y; conjugate-linear in x, linear in y."""
        ctx = self.ctx
        x = np.asarray(x, dtype=np.uint8).reshape(1, -1)
        y = np.asarray(y, dtype=np.uint8).reshape(-1, 1)
        if x.size != self.m or y.size != self.m:
            raise ValueError("vector length does not match the space dimension")
        return int(linalg.matmul(ctx, ctx.frob[x], y)[0, 0])

    # -- point enumeration ----------------------------------------------
    def inner_diag(self, pts: np.ndarray) -> np.ndarray:
        """inner(row, row) for every row of pts: the sum of the norms
        x_k^(q+1) = conj(x_k) x_k of its entries."""
        return reduce(partial(fadd, self.ctx), self.ctx.norm[pts].T)

    def all_points(self) -> np.ndarray:
        """All normalized points of PG(m-1, q^2), ascending lex order.

        ``_check_memory`` raises ValueError first if its (Q^m - 1)/(Q - 1)
        rows of m bytes (Q = q^2) do not fit.
        """
        if "all_points" not in self._cache:
            m, q2 = self.m, self.ctx.q2
            total = (q2**m - 1) // (q2 - 1)
            _check_memory(total * m, f"the point table of PG({m - 1}, {q2}) needs {{}} bytes")
            pts = np.zeros((total, m), dtype=np.uint8)
            start = 0
            for lead in range(m - 1, -1, -1):
                tail = m - 1 - lead
                block = pts[start : start + q2**tail]
                block[:, lead] = 1
                # Digit c of the block row index is the middle axis of a
                # (q2^c, q2, q2^(tail-1-c)) split of the rows.
                for c in range(tail):
                    view = block.reshape(q2**c, q2, q2 ** (tail - 1 - c), m)
                    view[:, :, :, lead + 1 + c] = np.arange(q2, dtype=np.uint8)[None, :, None]
                start += len(block)
            pts.flags.writeable = False
            self._cache["all_points"] = pts
        return self._cache["all_points"]

    def points(self) -> np.ndarray:
        """Isotropic points, canonical order, one row per point.

        The isotropy mask is taken in row blocks of about
        ``linalg.DOT_BLOCK`` entries.  ``_check_memory`` raises
        ValueError first if the point table plus the
        ``isotropic_point_count`` rows of m bytes do not fit.
        """
        if "points" not in self._cache:
            allp = self.all_points()
            m, q2 = self.m, self.ctx.q2
            _check_memory(
                allp.nbytes + counts.isotropic_point_count(m, self.ctx.q) * m,
                f"the isotropic points of PG({m - 1}, {q2}) need {{}} bytes with the point table",
            )
            mask = np.empty(len(allp), dtype=bool)
            step = max(1, linalg.DOT_BLOCK // m)
            for lo in range(0, len(allp), step):
                mask[lo : lo + step] = self.inner_diag(allp[lo : lo + step]) == 0
            pts = allp[mask]
            pts.flags.writeable = False
            self._cache["points"] = pts
        return self._cache["points"]

    @property
    def num_points(self) -> int:
        return len(self.points())

    # -- line enumeration -------------------------------------------------
    def _lead_blocks(self):
        """Zeros of the inner products of A_l = {a : lead(a) < l, a[l] = 0}
        against B_l = {b : lead(b) = l}, for l from m - 1 down to 1.

        B_l is the rows [b_lo, b_lo + |B_l|) of points(), whose leads
        descend.  Since b[j] = 0 for j < l and a[l] = 0, conj(p_a)^T p_b
        sums only the columns j > l: one ``linalg.matmul`` of those columns
        of conj(p_a), a row chunk of A_l of about ``_BLOCK_ELEMS`` products,
        with those of p_b transposed.  Yields (rows, b_lo, hit) per chunk,
        rows ascending; hit[r, c] is set when rows[r] and b_lo + c are
        orthogonal.
        """
        ctx, m, pts = self.ctx, self.m, self.points()
        conj = ctx.frob[pts]
        n_lead = np.bincount((pts != 0).argmax(axis=1), minlength=m)
        lead_start = np.cumsum(n_lead[::-1])[::-1] - n_lead
        for lead in range(m - 1, 0, -1):
            b_lo, b_hi = lead_start[lead], lead_start[lead] + n_lead[lead]
            a_rows = b_hi + np.flatnonzero(pts[b_hi:, lead] == 0)
            if not (b_hi > b_lo and a_rows.size):
                continue
            b_t = pts[b_lo:b_hi, lead + 1 :].T
            step = max(1, _BLOCK_ELEMS // (b_hi - b_lo))
            for lo in range(0, a_rows.size, step):
                rows = a_rows[lo : lo + step]
                yield rows, b_lo, linalg.matmul(ctx, conj[rows, lead + 1 :], b_t) == 0

    def line_pair_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (a, b) into points() whose rows stacked form the
        canonical RREF basis of each totally isotropic line: uint16 when
        there are at most 2^16 points, as at (9,2), (6,3), (5,4) and
        (4,8), else int32.  Beside the generator they are the largest
        arrays a space keeps, so uint16 halves them where it can.

        The rows (p_a, p_b) are in RREF exactly when lead(a) < lead(b)
        and a[lead(b)] = 0, so every line appears exactly once among the
        orthogonal pairs that ``_lead_blocks`` finds.  The canonical line
        order is lexicographic on the flattened basis; points() is in
        ascending lex order with distinct rows, so that is the order of
        the pairs (a, b).  A block's hits, read row by row, come out in
        that order, and as the leads of points() descend, for a fixed a
        every b of lead l comes before every b of a smaller lead.  The
        blocks run from the largest lead down, so a counting merge on the
        hits per (a, l) places each block's b values of an a after those
        of the blocks before.

        ``_check_memory`` raises ValueError first if the ``line_count``
        lines at ``_LINE_BYTES`` each do not fit.
        """
        if "line_pairs" not in self._cache:
            ctx, m = self.ctx, self.m
            n_lines = counts.line_count(m, ctx.q)
            _check_memory(
                n_lines * _LINE_BYTES,
                f"the {_short(n_lines)} totally isotropic lines of PG({m - 1}, {ctx.q2}) need {{}} bytes",
            )
            n_pts = self.num_points
            index = np.uint16 if n_pts <= _UINT16_POINTS else np.int32
            # b of every hit in search order, and each chunk's rows and hits per row
            found, chunks, n_found = np.empty(n_lines, dtype=index), [], 0
            for rows, b_lo, hit in self._lead_blocks():
                per_row = hit.view(np.uint8).sum(axis=1, dtype=np.intp)
                flat = np.flatnonzero(hit)
                if n_found + len(flat) > n_lines:
                    raise RuntimeError(f"line enumeration produced more than {n_lines} lines")
                # hit (r, c) has the flat position r * width + c and b = b_lo + c
                row_base = np.arange(len(rows)) * hit.shape[1] - b_lo
                out = found[n_found : n_found + len(flat)]
                np.subtract(flat, np.repeat(row_base, per_row), out=out, casting="unsafe")
                chunks.append((rows, per_row, n_found))
                n_found += len(flat)
            if n_found != n_lines:
                raise RuntimeError(f"line enumeration produced {n_found} lines, expected {n_lines}")
            per_point = np.zeros(n_pts, dtype=np.intp)
            for rows, per_row, _ in chunks:
                per_point[rows] += per_row
            a_idx = np.repeat(np.arange(n_pts, dtype=index), per_point)
            b_idx = np.empty(n_lines, dtype=index)
            free = np.cumsum(per_point) - per_point  # next slot of each a
            for rows, per_row, lo in chunks:
                dest = np.repeat(free[rows] - (np.cumsum(per_row) - per_row), per_row)
                dest += np.arange(len(dest))
                b_idx[dest] = found[lo : lo + len(dest)]
                free[rows] += per_row
            a_idx.flags.writeable = False
            b_idx.flags.writeable = False
            self._cache["line_pairs"] = (a_idx, b_idx)
        return self._cache["line_pairs"]

    @property
    def num_lines(self) -> int:
        return len(self.line_pair_indices()[0])

    # -- hyperplane sections (for per-point line counts) -------------------
    @property
    def perp_size(self) -> int:
        """Isotropic points in the perp of an isotropic point p: p itself
        and the q^2 points on each of the mu(m-2) lines through p, a cone
        over H(m-3, q^2)."""
        q = self.ctx.q
        return 1 + q * q * counts.isotropic_point_count(self.m - 2, q)

    def point_index(self, rows) -> np.ndarray:
        """Row of all_points() holding the point of each row, -1 for a zero
        row: (Q^(m-1-l) - 1)/(Q - 1) for the lead l, plus the base-Q value
        of the normalized digits after l (Q = q^2).  The base-Q value of
        the normalized row counts the lead's 1 as Q^(m-1-l), so it is
        added to one of m offsets, (Q^(m-1-l) - 1)/(Q - 1) - Q^(m-1-l)."""
        ctx, m, q2 = self.ctx, self.m, self.ctx.q2
        rows = np.asarray(rows, dtype=np.uint8).reshape(-1, m)
        normal, lead = linalg.normalize(ctx, rows)
        top = q2 ** np.arange(m - 1, -1, -1)
        value = normal @ top  # 0 exactly for a zero row
        return np.where(value != 0, ((top - 1) // (q2 - 1) - top)[lead] + value, -1)

    def perp_index(self) -> np.ndarray:
        """Row of section_table() holding the perp of each isotropic point:
        the point conj(p), whose hyperplane is the perp of p."""
        if "perp_index" not in self._cache:
            idx = self.point_index(self.ctx.frob[self.points()])
            idx.flags.writeable = False
            self._cache["perp_index"] = idx
        return self._cache["perp_index"]

    def section_table(self) -> np.ndarray | None:
        """Bit-packed hyperplane sections of the isotropic points: row f,
        in all_points() order, has bit x (np.packbits order) set exactly
        when sum_k f_k x_k = 0.  Each row is padded with zero bytes to
        whole 8-byte words, so ``linalg.bit_counts`` counts it as aligned
        uint64 only.  The same allocation holds ``perp_sections``, one
        more row per isotropic point, so the table is None, before
        allocating, when its (Q^m - 1)/(Q - 1) rows and the n_pts held
        rows, 8 ceil(n_pts / 64) bytes each, exceed the available memory
        of the machine.

        The rows are the complements of the scan kernel's nonzero masks
        for the isotropic points as matrix columns, over the normalized
        coefficient vectors, ascending as in all_points(): those with lead
        m-1-r are the counter indices [Q^r, 2 Q^r), one range of the
        kernel's walk for each r.  Each perp must hold ``perp_size``
        isotropic points, or RuntimeError.
        """
        if "sections" in self._cache:
            return self._cache["sections"]
        ctx, m, q2 = self.ctx, self.m, self.ctx.q2
        pts = self.points()
        n_rows, used, width = (q2**m - 1) // (q2 - 1), -(-len(pts) // 8), -(-len(pts) // 64) * 8
        if (n_rows + len(pts)) * width > _available_memory():
            self._cache["sections"] = None
            return None
        buf, row = np.zeros((n_rows + len(pts), width), dtype=np.uint8), 0
        table, held = buf[:n_rows], buf[n_rows:]
        kernel = linalg._ScanKernel(ctx, pts.T)
        for _, _, mask in kernel.nonzero_masks([(q2**r, 2 * q2**r) for r in range(m)]):
            np.invert(mask[:, :used], out=table[row : row + len(mask), :used])
            row += len(mask)
        if len(pts) % 8:
            table[:, used - 1] &= np.uint8(0xFF << (8 - len(pts) % 8) & 0xFF)  # the padding bits
        np.take(table, self.perp_index(), axis=0, out=held, mode="clip")
        step, want = max(1, linalg.DOT_BLOCK // max(1, width)), self.perp_size
        for lo in range(0, len(held), step):
            if (linalg.bit_counts(held[lo : lo + step]) != want).any():
                raise RuntimeError(f"a perp section does not hold {want} isotropic points")
        buf.flags.writeable = False
        self._cache["sections"], self._cache["perp_sections"] = buf[:n_rows], buf[n_rows:]
        return self._cache["sections"]

    def perp_sections(self) -> np.ndarray | None:
        """Row i is ``section_table()[perp_index()[i]]``, the isotropic
        points in the perp of point i, held read-only in the table's
        allocation, so the per-point route gathers only its own rows.
        None when the table is None."""
        if "sections" not in self._cache:
            self.section_table()
        return self._cache.get("perp_sections")

    def __repr__(self) -> str:
        return f"HermitianSpace(m={self.m}, q={self.ctx.q})"


def perp(space: HermitianSpace, w) -> np.ndarray:
    """RREF basis of the vectors orthogonal to all rows of w under the
    form."""
    ctx = space.ctx
    rows = linalg.as_matrix(ctx, w)
    if rows.shape[1] != space.m:
        raise ValueError("subspace ambient dimension mismatch")
    return linalg.kernel(ctx, ctx.frob[rows])


def radical_profile(space: HermitianSpace, r) -> RadicalProfile:
    """Profile of the section cut by the row span of r, a basis.

    t is the dimension of the radical of the form restricted to r, so
    the section is a cone [Pi_t]H_(dim-t) (Bose and Chakravarti, Canad.
    J. Math. 18, 1966): d minus the rank of the d x d Gram matrix of the
    basis.  The classification reads the profile of a form's radical
    from two ranks of the form instead (``classify._radical_profile``);
    this function, on the radical's basis, is the reference it is tested
    against.
    """
    ctx = space.ctx
    rows = linalg.as_matrix(ctx, r)
    d = rows.shape[0]
    restricted = linalg.matmul(ctx, ctx.frob[rows], rows.T)
    return RadicalProfile(dim=d, t=d - linalg.rank(ctx, restricted))

