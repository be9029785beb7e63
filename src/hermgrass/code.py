"""Codewords of the line code from alternating bilinear forms.

Every codeword corresponds to exactly one alternating form S (the
generator matrix has full rank, so the correspondence is bijective):
the value at a line with canonical basis (v, w) is v^T S w, which
equals the dot product of the strict upper triangle of S with the
line's normalized Pluecker coordinates.

Weights are computed three independent ways across the package:

* ``weight_direct``: count the nonzero positions of the codeword, the
  form's values on the lines, from the generator's own digits
  (``_direct_count``): in characteristic 2 one XOR of the system's
  packed bit-plane rows (``ProjectiveSystem.planes``) per codeword plane,
  for odd p one 1-D gather of each generator row from the nibble codes
  of u_k x, added as uint8 and reduced mod p as the scan kernel reduces
  (``linalg._nibble_reduction``).  ``codeword``, the ``linalg.matmul``
  product, is the reference the tests compare it with;
* ``weight_recursive``: accumulate, over all isotropic vectors u, the
  number of totally isotropic lines through [u] not annihilated by
  the form, then divide by q^4 - 1.  ``point_weights`` counts them as
  the isotropic points in the perp of u off the hyperplane u^T S x = 0,
  the perp row's fixed ``perp_size`` points minus one AND and popcount
  per point: of the perp row, which the space holds
  (``HermitianSpace.perp_sections``), and the row of u^T S gathered from
  its bit-packed hyperplane-section table;
* ``counts.weight_from_class_counts``: reconstruct from the sizes
  of the three per-point classes of ``classify``, which come from the
  form's q + 1 ranks (``_form_ranks``) and visit no point.

Each route runs once per form and input: the form keeps its direct
weight with a weak reference to the system it was counted on and its
per-point counts with one to the space, so ``classify.classify_points``
after ``weight_direct``, or ``point_weights`` after
``weight_recursive``, reads the kept result.
Another system or space object, even an equal one, is counted afresh.

Spectrum scans index the strict upper triangle as a mixed-radix
counter (most significant digit first); sample mode draws seeded
uniform forms.  Exhaustive mode covers all Q^K forms, Q = q^2, with
two steps of compression by maps that keep weight and rank: monomial
unitary maps and scalars split the first rows (S_01 .. S_0,m-1) into
classes, and those of them that fix a class representative's first row
and coordinate 1 split its second rows (S_12 .. S_1,m-1) into orbits.
One key labels both steps (``_orbits``): a row's sorted norms and
entries, least over the factors that the maps fixing the row above it
allow.  The scan visits one two-row prefix per orbit, the
representative's first row and the orbit's smallest second row, with
all entries below it, and counts each form with the class size times
the orbit size.  Both modes pass their weights to one tally (``_tally``)
and gate weight 0, which only the zero form may have; the exhaustive
histogram is also gated on its MacWilliams dual counts B_0 .. B_3.

Both modes use one codeword kernel on the generator,
``linalg._ScanKernel``, which sums one row of a digit-group table per
group of g digits (Q^g <= 256), so a sampled form costs ceil(K/g) row
gathers and adds, into block buffers that each sample scan allocates
once.  The system holds its kernel (``scan_kernel``), so only
the first scan of a system builds the tables; the orbit labelling is
kept per field and m alike.  The two-row digits lead the counter, so the
forms of a prefix are one aligned block of Q^C(m-2,2) counter indices;
the kernel's one walk covers all the blocks, many short ones to a chunk,
and yields the packed nonzero masks, which the scan popcounts
(``linalg.bit_counts``).
"""

from __future__ import annotations

import math
import os
import time
import weakref
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from . import counts, linalg, polar
from .ff import FieldCtx
from .pluecker import ProjectiveSystem, build_system

__all__ = [
    "AlternatingForm",
    "SpectrumReport",
    "evaluate",
    "codeword",
    "weight_direct",
    "point_weights",
    "weight_recursive",
    "spectrum",
    "min_distance",
]


# np.triu_indices builds a mask per call (about 20 us at m = 5); the cached
# index arrays are shared, so callers only read them
_upper_indices = cache(np.triu_indices)


def _alternating(ctx: FieldCtx, m: int, upper: np.ndarray) -> np.ndarray:
    """The m x m alternating matrices, shape (..., m, m), of the strict
    upper triangles ``upper``, shape (..., K), in ``_upper_indices`` order."""
    iu, ju = _upper_indices(m, 1)
    s = np.zeros((*upper.shape[:-1], m, m), dtype=np.uint8)
    s[..., iu, ju] = upper
    s[..., ju, iu] = ctx.neg[upper]
    return s


def _form_ranks(ctx: FieldCtx, s: np.ndarray) -> np.ndarray:
    """The q + 1 ranks of each form of a stack s, shape (F, m, m), as an
    (F, q + 1) array: rank S, then rank(T - lambda I) for each lambda of
    ``ctx.subfield``, 0 first, with T = conj(S) S.  One ``linalg.matmul``
    of the stacks gives every T and one ``linalg.rank_stack`` call the
    F (q + 1) ranks; a single form is the stack F = 1."""
    f, m = s.shape[:2]
    t = linalg.matmul(ctx, ctx.frob[s], s)
    mats = np.empty((f, 1 + ctx.q, m, m), dtype=np.uint8)
    mats[:, 0], mats[:, 1:] = s, t[:, None]
    diag = np.arange(m)
    mats[:, 1:, diag, diag] = linalg.fsub(ctx, t[:, None, diag, diag], ctx.subfield[None, :, None])
    return linalg.rank_stack(ctx, mats.reshape(-1, m, m)).reshape(f, 1 + ctx.q)


class AlternatingForm:
    """m x m matrix S over GF(q^2) with S^T = -S and zero diagonal.

    The zero diagonal is required explicitly so the condition is
    meaningful in characteristic 2 as well.  The rank (always even),
    kept with the ranks of conj(S) S - lambda I for lambda in GF(q)
    (``ranks``), and the two-sided kernel (``radical``), whose dimension
    is m minus the rank, are each computed on first use and cached; the
    q + 1 ranks need one stacked elimination, the basis two reduced ones,
    so the rank and ``rad_dim`` do not build the basis.  Beside them the
    form keeps the
    last result of two weight routes with a weak reference to the object
    it was computed on: ``weight_direct`` with its system and
    ``point_weights`` with its space, so a kept form does not keep that
    system or space alive.
    """

    # (weak reference to the system or space, result); none kept at first
    _direct = _per_point = (lambda: None, None)

    def __init__(self, ctx: FieldCtx, s):
        s = linalg.as_matrix(ctx, s)
        if s.shape[0] != s.shape[1]:
            raise ValueError("form matrix must be square")
        if np.any(np.diagonal(s)):
            raise ValueError("form matrix must have zero diagonal")
        if not np.array_equal(s.T, ctx.neg[s]):
            raise ValueError("form matrix must be antisymmetric")
        s = s.copy()
        s.flags.writeable = False
        self.ctx = ctx
        self.s = s
        self.m = s.shape[0]

    def __getstate__(self):
        # weak references do not pickle; a copy counts its routes afresh
        return {k: v for k, v in self.__dict__.items() if k not in ("_direct", "_per_point")}

    @classmethod
    def from_upper(cls, ctx: FieldCtx, m: int, upper) -> "AlternatingForm":
        """The form with the given strict upper triangle, in the order of
        ``np.triu_indices(m, 1)``, which is ``pluecker.pair_indices(m)``."""
        upper = np.asarray(upper, dtype=np.uint8).reshape(-1)
        if upper.size != m * (m - 1) // 2:
            raise ValueError("upper triangle has wrong length")
        return cls(ctx, _alternating(ctx, m, upper))

    def upper(self) -> np.ndarray:
        return self.s[_upper_indices(self.m, 1)]

    @cached_property
    def radical(self) -> np.ndarray:
        """RREF basis of the two-sided kernel, one row per dimension,
        read-only."""
        radical = linalg.kernel(self.ctx, self.s)
        radical.flags.writeable = False
        return radical

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        """(rank S, then rank(T - lambda I) for each lambda of GF(q), 0
        first), T = conj(S) S: ``_form_ranks`` of the stack of this form."""
        return tuple(_form_ranks(self.ctx, self.s[None])[0].tolist())

    @property
    def rank(self) -> int:
        """Rank of S, the first of ``ranks``."""
        return self.ranks[0]

    @property
    def rad_dim(self) -> int:
        return self.m - self.rank

    def is_zero(self) -> bool:
        return not self.s.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlternatingForm)
            and self.ctx.q2 == other.ctx.q2
            and np.array_equal(self.s, other.s)
        )

    def __hash__(self) -> int:
        return hash((self.ctx.q2, self.s.tobytes()))

    def __repr__(self) -> str:
        return f"AlternatingForm(m={self.m}, q2={self.ctx.q2}, rank={self.rank})"


def evaluate(phi: AlternatingForm, line) -> int:
    """v^T S w on the line's basis rows (v, w).

    Zero exactly when the 2-space is totally isotropic for the form;
    nonzero values depend on the basis only up to a nonzero scalar.
    """
    ctx = phi.ctx
    b = linalg.as_matrix(ctx, line)
    if b.shape != (2, phi.m):
        raise ValueError("line basis must be 2 x m")
    return int(linalg.matmul(ctx, linalg.matmul(ctx, b[:1], phi.s), b[1:].T)[0, 0])


def _check_system(phi: AlternatingForm, system: ProjectiveSystem) -> None:
    if phi.m != system.space.m or phi.ctx.q2 != system.ctx.q2:
        raise ValueError("form does not match the system")


def codeword(phi: AlternatingForm, system: ProjectiveSystem) -> np.ndarray:
    """Codeword of the form, as element codes: position j holds the
    form's value on the normalized Pluecker coordinates of line j."""
    _check_system(phi, system)
    return linalg.matmul(system.ctx, system.matrix.T, phi.upper()[:, None])[:, 0]


def _direct_count(phi: AlternatingForm, system: ProjectiveSystem) -> int:
    """Nonzero positions of the codeword sum_k u_k g_k, u the upper
    triangle and g_k the rows of the generator, from the rows' digits.

    In characteristic 2, u_k g_k = sum_i (u_k x^i) g_k,i with g_k,i bit i
    of g_k, so plane j of the codeword is the XOR of the plane rows (k, i)
    of ``system.planes`` for which bit j of u_k x^i is set, and its
    nonzero positions are the OR of the 2e planes.  For odd p (e = 1) each
    nonzero u_k gives one 1-D gather of g_k from the nibble codes of
    u_k x; the terms add as uint8, reduced mod p before a nibble could
    pass 15, and after the last reduction the nonzero bytes are the
    nonzero positions.
    """
    _check_system(phi, system)
    ctx, u = system.ctx, phi.upper()
    if ctx.p == 2:
        bits = 2 * ctx.e
        sel = linalg._bit_products(ctx)[u]  # bit j of u_k x^i at [k, i, j]
        acc = np.zeros(system.planes.shape[-1], dtype=np.uint64)
        for j in range(bits):
            acc |= np.bitwise_xor.reduce(system.planes[sel[:, :, j]], axis=0)
        return int(linalg.bit_counts(acc.view(np.uint8)))
    nibbles, term = linalg._nibble_codes(ctx.mul[u], ctx.p), np.empty(system.n, dtype=np.uint8)
    terms = (nibbles[k].take(system.matrix[k], out=term, mode="clip") for k in np.flatnonzero(u))
    acc = linalg._add_terms(ctx, np.zeros(system.n, dtype=np.uint8), terms, held=0)
    return int(np.count_nonzero(linalg._reduce(ctx.p, acc, out=acc)))


def weight_direct(phi: AlternatingForm, system: ProjectiveSystem) -> int:
    """Number of lines on which the form does not vanish: the nonzero
    positions of its codeword, counted from the generator's digits
    (``_direct_count``) without forming the codeword.

    The form keeps the weight with ``system`` and returns it when called
    again with that same object (matched by ``is``); any other system is
    counted afresh and replaces it.
    """
    if phi._direct[0]() is not system:
        phi._direct = weakref.ref(system), _direct_count(phi, system)
    return phi._direct[1]


# -- per-point line counts ------------------------------------------------


def point_weights(phi: AlternatingForm, space: polar.HermitianSpace) -> np.ndarray:
    """For every isotropic point [u], the number of totally isotropic
    lines through [u] not annihilated by the form.

    Such a line joins [u] to an isotropic x with conj(u)^T x = 0 and
    u^T S x != 0: the bits set in the held perp row of u
    (``space.perp_sections()``) and clear in the row of u^T S in
    ``space.section_table()``.  Every perp row holds ``space.perp_size``
    points, which ``section_table`` checks, so the count is that many
    minus the bits set in both rows: the u^T S rows are gathered into one
    reused buffer, ANDed with the held rows and popcounted.  A point with
    u^T S = 0 counts 0, since the form vanishes on every line through it.
    Each such line carries q^2 of these x, so the count divides exactly by
    q^2.  When the table and the held rows do not fit in the available
    memory, both sections are streamed in row blocks of the points instead.

    The counts are read-only.  The form keeps them with ``space`` and
    returns them when called again with that same object (matched by
    ``is``), as ``weight_recursive`` and then this function do; any other
    space is counted afresh and replaces them.
    """
    if phi._per_point[0]() is space:
        return phi._per_point[1]
    ctx = space.ctx
    if phi.m != space.m:
        raise ValueError("form does not match the space")
    pts = space.points()
    n_pts = len(pts)
    q2 = ctx.q2
    ps = linalg.matmul(ctx, pts, phi.s)
    table = space.section_table()
    cnt = np.zeros(n_pts, dtype=np.int64)
    if table is not None:
        sect, held, want = space.point_index(ps), space.perp_sections(), space.perp_size
        # a row gather casts only its row indices, so a block is as many
        # rows as about one scan-kernel block of bytes holds
        step = max(1, linalg._BLOCK_BYTES // max(1, table.shape[1]))
        buf = np.empty((min(step, n_pts), table.shape[1]), dtype=np.uint8)
        for lo in range(0, n_pts, step):
            both = buf[: min(step, n_pts - lo)]
            np.take(table, sect[lo : lo + step], axis=0, out=both, mode="clip")
            np.bitwise_and(both, held[lo : lo + step], out=both)
            cnt[lo : lo + step] = want - linalg.bit_counts(both)
        cnt[sect < 0] = 0  # u^T S = 0: the form vanishes on every line through [u]
    else:
        # points first: a chunk's product tables are Q x chunk, not Q x n_pts
        step = max(1, linalg.DOT_BLOCK // max(n_pts, 1))
        for lo in range(0, n_pts, step):
            eta = linalg.matmul(ctx, pts, ctx.frob[pts[lo : lo + step]].T)
            val = linalg.matmul(ctx, pts, ps[lo : lo + step].T)
            cnt[lo : lo + step] = ((eta == 0) & (val != 0)).sum(axis=0)
    if (cnt % q2).any():
        raise RuntimeError("pair count not divisible by q^2; arithmetic bug")
    cnt //= q2
    cnt.flags.writeable = False
    phi._per_point = weakref.ref(space), cnt
    return cnt


def weight_recursive(phi: AlternatingForm, space: polar.HermitianSpace) -> int:
    """Weight recovered from the per-point line counts.

    Summing the counts over all isotropic vectors (q^2 - 1 per point)
    counts every non-annihilated line once per nonzero vector on it,
    q^4 - 1 times in total.  The division must be exact, checked on
    every call, kept counts included; a nonzero remainder would expose
    an arithmetic bug.
    """
    q2 = space.ctx.q2
    total = int(point_weights(phi, space).sum()) * (q2 - 1)
    den = q2 * q2 - 1
    if total % den:
        raise RuntimeError("vector sum not divisible by q^4 - 1; arithmetic bug")
    return total // den


# -- spectrum scans ---------------------------------------------------------


@dataclass
class SpectrumReport:
    """Weight histogram of a scan over alternating forms.

    In exhaustive mode the histogram covers all q^(2K) forms and
    ``min_weight_radical_dims`` maps radical dimension to the number
    of minimum-weight forms with that radical.  The scan visits each
    two-row prefix with every entry below it; the minimum words it
    visits are ``min_word_indices``, ascending counter indices whose K
    base-Q digits, most significant first, are the upper triangle, and
    ``min_word_class_sizes`` holds the forms each one stands for, its
    first-row class size times its second-row orbit size, so the sizes
    sum to the number of minimum words.  Sample mode reports the seeded
    sample only and leaves both None.
    """

    mode: str
    m: int
    q: int
    histogram: dict[int, int]
    forms_scanned: int
    seed: int | None
    wall_time_s: float
    min_nonzero_weight: int | None
    min_weight_example: list[int] | None
    min_weight_radical_dims: dict[int, int] | None = None
    min_word_indices: np.ndarray | None = field(default=None, compare=False)
    min_word_class_sizes: np.ndarray | None = field(default=None, compare=False)


# The radical split ranks this many minimum-weight forms per batch.
_RANK_CHUNK = 1024


def _orbits(ctx: FieldCtx, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The smallest counter index and the size of each orbit of the Q^w
    rows (x_1 .. x_w) of a form that follow its row r = (r_1 .. r_w),
    ascending by index and read-only, under the maps that keep weight and
    rank and fix r.  r must ascend, as the zero row and every class
    representative do.

    Those maps permute the x_j among positions of equal r_j and scale
    each by a factor c_j: any norm-1 c_j where r_j = 0, one norm-1 factor
    c shared by every j with r_j != 0, and, for r = 0, any nonzero scalar
    besides.  Norm-1 factors take x to every element of its norm x^(q+1),
    so the key of a row is the least base-Q value, over the factors, of
    its sorted norms on the zeros of r, times c in GF(q)* when r = 0, and
    then its sorted entries times c on each run of equal nonzero r_j, c of
    norm 1.  Rows share a key exactly when they share an orbit.  The digit
    rows, one factor's rows, two keys and np.unique's sort take about 2
    bytes a digit and 48 a row; ``polar._check_memory`` raises ValueError
    before any of them is made when they do not fit.
    """
    q2, w = ctx.q2, len(r)
    if not w:  # the one empty row is its own orbit
        return linalg._frozen(np.zeros(1, dtype=np.intp)), linalg._frozen(np.ones(1, dtype=np.intp))
    polar._check_memory(q2**w * (2 * w + 48), f"the orbit labelling of {counts._short(q2**w)} rows needs {{}} bytes")
    # r ascends, so each set is a run; w rounds of odd-even transposition sort it
    pairs = [j for step in range(w) for j in range(step % 2, w - 1, 2) if r[j] == r[j + 1]]
    digits = np.indices((q2,) * w, dtype=np.uint8).reshape(w, -1)
    factors = [(c, 1) for c in ctx.subfield[1:]] if not r.any() else [(1, u) for u in np.flatnonzero(ctx.norm == 1)]
    key = None
    for a, u in factors:
        planes = [(ctx.mul[u] if r_j else ctx.mul[a][ctx.norm])[x] for r_j, x in zip(r, digits)]
        for j in pairs:
            planes[j], planes[j + 1] = np.minimum(planes[j], planes[j + 1]), np.maximum(planes[j], planes[j + 1])
        value = np.ravel_multi_index(planes, (q2,) * w)
        key = value if key is None else np.minimum(key, value, out=key)
    _, reps, sizes = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(reps)
    return linalg._frozen(reps[order]), linalg._frozen(sizes[order])


@cache
def _first_row_classes(ctx: FieldCtx, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Representatives (smallest counter index) and sizes of the classes
    of first rows (S_01 .. S_0,m-1), ascending and read-only.

    Permutations of coordinates 1..m-1, diagonal maps with norm-1 entries
    and scalars keep weight and rank and take S_0j to lambda d_0 d_j
    S_0(pi j): they are the maps of ``_orbits`` fixing the zero row, so
    two first rows share a class exactly when their norms, zeros
    included, agree as multisets up to a factor in GF(q)*.  The count of
    zero entries, 0 to m - 1, is kept, so there are at least m classes.
    """
    return _orbits(ctx, np.zeros(m - 1, dtype=np.int64))


@cache
def _two_row_orbits(ctx: FieldCtx, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The two-row prefixes the exhaustive scan visits, ascending, and the
    forms each stands for, read-only.

    A prefix is r Q^(m-2) + s: r a first-row class representative
    (``_first_row_classes``) and s the counter index of a second row
    (S_12 .. S_1,m-1) that is the smallest in its orbit under the maps
    fixing row r exactly and coordinate 1.  It stands for the class size
    times the orbit size.  These maps are a permutation pi of 2..m-1 with
    r_pi(j) = r_j, a norm-1 diagonal map d and a scalar lambda with
    lambda d_0 d_j = 1 wherever r_j != 0.  They take S_1j to lambda d_1
    d_j S_1(pi j): the maps of ``_orbits`` fixing (r_2 .. r_m-1), with any
    nonzero scalar for r = 0 alone, since lambda has norm 1 unless r = 0.
    A representative's entries ascend, so r_1 != 0 only when no r_j is 0.
    At m = 1 there is no second row, and its one empty orbit adds no digit.
    """
    reps, sizes = _first_row_classes(ctx, m)
    orbits = [_orbits(ctx, r) for r in linalg._digits(reps, ctx.q2, m - 1)[:, 1:]]
    prefixes = [rep * ctx.q2 ** max(m - 2, 0) + first for rep, (first, _) in zip(reps, orbits)]
    counts = [size * orbit_sizes for size, (_, orbit_sizes) in zip(sizes, orbits)]
    return linalg._frozen(np.concatenate(prefixes)), linalg._frozen(np.concatenate(counts))


def _scan_prefixes(ctx: FieldCtx, m: int, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """``_two_row_orbits``, or ValueError, the one refusal of an exhaustive
    scan (``counts._check_scan_budget``), when scanning each prefix with
    all Q^C(m-2,2) entries below it would exceed ``budget`` forms or a
    labelling does not fit in the available memory (``_orbits``).  Nothing
    is labelled when the floor of that refusal exceeds the budget; the CLI
    asks it before building the system."""
    counts._check_scan_budget(m, ctx.q, budget)
    try:
        prefixes, sizes = _two_row_orbits(ctx, m)
    except ValueError:  # a labelling beyond the available memory
        prefixes = sizes = None
    below = ctx.q2 ** math.comb(max(m - 2, 0), 2)
    counts._check_scan_budget(m, ctx.q, budget, fits=prefixes is not None and len(prefixes) * below <= budget)
    return prefixes, sizes


def _tally(n: int, blocks):
    """Histogram, minimum nonzero weight (n + 1 if none) and, in block
    order, at(hits) of the blocks reaching it, over blocks (weights,
    count, at): each weight stands for ``count`` forms, one number or one
    per weight, and ``at`` maps positions to what the caller keeps."""
    hist = np.zeros(n + 1, dtype=np.int64)
    best_w, best = n + 1, []
    for w, count, at in blocks:
        np.add.at(hist, w, count)
        w[w == 0] = n + 1  # the zero form is no minimum word
        local = int(w.min())
        if local < best_w:
            best_w, best = local, []
        if local == best_w:
            best.append(at(np.flatnonzero(w == local)))
    return hist, best_w, best


def _tally_prefixes(kernel: linalg._ScanKernel, prefixes: np.ndarray, sizes: np.ndarray, span: int):
    """``_tally`` of the forms of the ascending two-row prefixes, the
    ``span`` counter indices from prefix * span on, each counted as many
    times as its prefix's entry of ``sizes``, with its hits given as
    ascending counter indices."""

    def blocks():
        done = 0
        for mask in kernel.nonzero_masks(prefixes * span, span):
            j = np.arange(done, done + len(mask))
            done += len(mask)
            yield linalg.bit_counts(mask), sizes[j // span], lambda hits, j=j: prefixes[j[hits] // span] * span + j[hits] % span

    return _tally(kernel.n, blocks())


def _sample_blocks(kernel: linalg._ScanKernel, seed: int | None, samples: int, q2: int, k: int):
    """``_tally`` blocks of ``samples`` seeded uniform nonzero forms of k
    digits below q2, 4096 at a time, each counted once, hits given as
    digit rows; every block's weights reuse one set of kernel buffers."""
    rng, buffers = np.random.default_rng(seed), kernel.buffers(min(4096, samples))
    for done in range(0, samples, 4096):
        b = min(4096, samples - done)
        digits = rng.integers(0, q2, size=(b, k), dtype=np.uint8)
        while (zero := ~digits.any(axis=1)).any():
            digits[zero] = rng.integers(0, q2, size=(int(zero.sum()), k), dtype=np.uint8)
        yield kernel.weights(digits, buffers), 1, lambda hits, d=digits: d[hits]


def _radical_split(ctx: FieldCtx, m: int, idx: np.ndarray, sizes: np.ndarray) -> dict[int, int]:
    """Radical dimension -> summed class sizes of the forms at the counter
    indices, keyed in order of first occurrence."""
    k = m * (m - 1) // 2
    split: dict[int, int] = {}
    for lo in range(0, len(idx), _RANK_CHUNK):
        d = linalg._digits(idx[lo : lo + _RANK_CHUNK], ctx.q2, k).astype(np.uint8)
        rad = m - linalg.rank_stack(ctx, _alternating(ctx, m, d))
        dims, first = np.unique(rad, return_index=True)
        for dim in dims[np.argsort(first)]:
            weight = int(sizes[lo : lo + _RANK_CHUNK][rad == dim].sum())
            split[int(dim)] = split.get(int(dim), 0) + weight
    return split


def _check_macwilliams(hist: dict[int, int], m: int, q: int) -> None:
    """Raise RuntimeError unless a histogram over all Q^K forms has the
    dual counts B_j, exact Krawtchouk sums, of the projective line code:
    B_0 = 1, B_1 = B_2 = 0 and B_3 = (Q - 1) mu(m) [S(m-2) C(q+1, 3) +
    L(m-2) C(Q+1, 3)], Q - 1 times the collinear column triples, with mu
    and L the point and line counts and S(d) = nu(d) nu(d-1)/(Q - q) the
    nondegenerate 2-spaces of V(d, Q), nu(d) = (Q^d - 1)/(Q - 1) - mu(d)
    (MacWilliams, Bell Syst. Tech. J. 1963).
    """
    q2, n, k = q * q, counts.line_count(m, q), m * (m - 1) // 2
    nu = [(q2**d - 1) // (q2 - 1) - counts.isotropic_point_count(d, q) for d in (m - 2, m - 3)]
    triples = counts.isotropic_point_count(m, q) * (
        nu[0] * nu[1] // (q2 - q) * math.comb(q + 1, 3)
        + counts.line_count(m - 2, q) * math.comb(q2 + 1, 3)
    )
    for j, want in enumerate((1, 0, 0, (q2 - 1) * triples)):
        got = sum(
            a * (-1) ** i * (q2 - 1) ** (j - i) * math.comb(w, i) * math.comb(n - w, j - i)
            for w, a in hist.items()
            for i in range(j + 1)
        )
        if got != want * q2**k:
            raise RuntimeError(f"spectrum fails MacWilliams: B_{j} = {got / q2**k:g}, not {want}")


# Fewest forms for which an exhaustive scan forks a pool: on 2 CPUs the
# 156 250 forms of (4,5) took 0.08 s in one process and 0.10 s with two
# workers, the 1 882 384 of (4,7) 1.9 s and 1.3 s (BENCH_one_definition).
_POOL_FORMS = 1 << 20


def _pool_size(jobs: int, prefixes: int) -> int:
    """Worker processes for an exhaustive scan of ``prefixes`` two-row
    prefixes: no more than the jobs asked for, the CPUs present or the
    prefixes, since every worker scans a run of consecutive prefixes and a
    run holds at least one; at least one."""
    return max(1, min(jobs, prefixes, os.cpu_count() or 1))


def spectrum(
    system: ProjectiveSystem,
    mode: str = "exhaustive",
    budget: int = 1 << 24,
    seed: int | None = 1,
    samples: int | None = None,
    jobs: int = 1,
) -> SpectrumReport:
    """Weight histogram over alternating forms.

    Exhaustive mode covers all Q^K forms.  It scans the forms of each
    two-row prefix (``_two_row_orbits``), first row and second row, with
    every entry below them, and counts each with the prefix's class size
    times orbit size, so ``budget`` bounds the forms scanned
    (``_scan_prefixes``); a scan over budget, or whose orbit labelling
    does not fit in the available memory, raises ValueError.  A class
    map takes any form to one with the representative's first row and no
    larger index, and an orbit map then to one with the orbit's smallest
    second row, whose digits lead every entry below them; so the scan, in
    ascending counter order, meets the first form of every weight and
    radical dimension:
    ``min_weight_example`` is the minimum word of smallest index and
    ``min_weight_radical_dims`` is keyed in order of first occurrence.
    A histogram failing ``_check_macwilliams`` raises RuntimeError.
    The compression holds only for the space's own generator, so
    exhaustive mode raises ValueError unless ``system`` is
    ``build_system(system.space)``.  The forms of a prefix are one
    aligned block of counter indices, and one walk of the kernel covers
    all the blocks.  A scan of fewer than ``_POOL_FORMS`` forms runs in
    the calling process, since it takes less time than forking a pool;
    (6,2) and (5,3) do.  A larger one forks ``_pool_size(jobs,
    prefixes)`` workers, and each scans one run of consecutive prefixes,
    the runs as equal as ``np.array_split`` makes them.  The result does
    not depend on the worker count.

    Sample mode draws ``samples`` uniform nonzero forms from numpy's
    default PCG64 generator seeded with ``seed``; the seed is recorded
    in the report, and more samples than ``budget`` raise ValueError.
    It ignores ``jobs`` and runs in the calling process, since starting a
    pool costs more than the scan; ``multiprocessing`` is imported only
    when exhaustive mode starts a pool.

    Both modes read the system's ``scan_kernel``, built by the first scan
    of the system after a memory check that raises ValueError, and count
    weights with one ``_tally``; in both a nonzero form of weight 0
    raises RuntimeError.
    """
    ctx, m, k, n = system.ctx, system.space.m, system.k, system.n
    q2, started = ctx.q2, time.perf_counter()
    if mode == "sample" and (not samples or samples < 1):
        raise ValueError("sample mode needs a positive sample count")
    if mode == "sample":
        counts._check_sample_budget(samples, budget)
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")

    exhaustive = mode == "exhaustive"
    if exhaustive:
        prefixes, sizes = _scan_prefixes(ctx, m, budget)
        if system is not build_system(system.space):
            raise ValueError("exhaustive mode needs the space's own generator from build_system")
    kernel = system.scan_kernel
    if exhaustive:
        span = q2 ** (k - 2 * m + 3)  # the forms of one prefix, Q^C(m-2,2)
        workers = _pool_size(jobs, len(prefixes)) if len(prefixes) * span >= _POOL_FORMS else 1
        args = [(kernel, *run, span) for run in zip(np.array_split(prefixes, workers), np.array_split(sizes, workers))]
        if workers > 1:
            import multiprocessing

            with multiprocessing.get_context("fork").Pool(processes=workers) as pool:
                parts = pool.starmap(_tally_prefixes, args)
        else:
            parts = [_tally_prefixes(*args[0])]
        # Parts are runs of ascending prefixes, so their hits stay ascending.
        hist, best_w = sum(h for h, _, _ in parts), min(w for _, w, _ in parts)
        hits = [i for _, w, idx in parts if w == best_w for i in idx]
    else:
        hist, best_w, hits = _tally(n, _sample_blocks(kernel, seed, samples, q2, k))
    weights = np.flatnonzero(hist)
    histogram = dict(zip(weights.tolist(), hist[weights].tolist()))
    # the zero form is scanned once in exhaustive mode, never drawn in sample mode
    if histogram.get(0, 0) != int(exhaustive):
        raise RuntimeError("a nonzero form has weight 0; the generator is rank deficient")
    radical_dims, example, min_idx, min_size = None, hits[0][0], None, None
    if exhaustive:
        _check_macwilliams(histogram, m, ctx.q)
        min_idx = np.concatenate(hits)
        min_size = sizes[np.searchsorted(prefixes, min_idx // span)]
        radical_dims = _radical_split(ctx, m, min_idx, min_size)
        example = linalg._digits(min_idx[:1], q2, k)[0]
        min_idx.flags.writeable = min_size.flags.writeable = False
    return SpectrumReport(
        mode=mode,
        m=m,
        q=ctx.q,
        histogram=histogram,
        forms_scanned=q2**k if exhaustive else samples,
        seed=None if exhaustive else seed,
        wall_time_s=time.perf_counter() - started,
        min_nonzero_weight=best_w,
        min_weight_example=[int(x) for x in example],
        min_weight_radical_dims=radical_dims,
        min_word_indices=min_idx,
        min_word_class_sizes=min_size,
    )


def min_distance(
    system: ProjectiveSystem,
    strategy: str = "exhaustive",
    seed: int = 1,
    samples: int = 100_000,
    budget: int = 1 << 24,
    jobs: int = 1,
) -> tuple[int, dict]:
    """Minimum distance d with a certificate, by one path for both
    strategies.

    A strategy picks d, a witness and its own certificate fields.
    "exhaustive" scans every nonzero form: d is the true minimum, the
    witness the minimum word of smallest counter index, and it records
    ``forms_scanned``.  "construct+sample" takes the closed-form d_min and
    the witness of ``classify.min_word_witness``, and records
    ``witness_kind``, ``samples`` and ``seed``.  Then the witness's direct
    weight must be d (RuntimeError otherwise); only after that does
    "construct+sample" scan its seeded sample, record its least weight as
    ``sample_min_weight`` and raise RuntimeError if it is below d.  The
    certificate also holds the strategy, the witness's upper triangle and
    its weight.
    """
    ctx, m = system.ctx, system.space.m
    if strategy == "exhaustive":
        rep = spectrum(system, mode="exhaustive", budget=budget, jobs=jobs)
        witness = AlternatingForm.from_upper(ctx, m, rep.min_weight_example)
        d, what, fields = rep.min_nonzero_weight, "exhaustive", {"forms_scanned": rep.forms_scanned}
    elif strategy == "construct+sample":
        from .classify import min_word_witness

        kind, witness = min_word_witness(system.space)
        d, what = counts.code_params(m, ctx.q).d_min, "constructed"
        fields = {"witness_kind": kind, "samples": samples, "seed": seed}
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    wd = weight_direct(witness, system)
    if wd != d:
        raise RuntimeError(f"{what} witness has weight {wd}, expected {d}")
    if what == "constructed":
        rep = spectrum(system, mode="sample", budget=budget, seed=seed, samples=samples, jobs=jobs)
        if rep.min_nonzero_weight < d:
            raise RuntimeError("sampled a form below the closed-form minimum; arithmetic bug")
        fields["sample_min_weight"] = rep.min_nonzero_weight
    return d, {"strategy": strategy, "witness_upper": [int(x) for x in witness.upper()], "weight": d, **fields}
