"""Structural analysis of codeword forms.

For a nonzero alternating form S, the semilinear map

    [x]  ->  perp_form([x]) then perp_hermitian(...)

sends a point to the pole, under the Hermitian polarity, of its polar
hyperplane under the alternating form.  For the form conj(x)^T y the
pole of {z : x^T S z = 0} is [conj(S^T x)], so the map is
[x] -> [S^q x^q]; its kernel is the projectivized radical of S.
Isotropic points split into three classes by their per-point line
count:

* zero class: image equals the point itself, or the point sits in
  the radical;
* secant class: image is a different non-isotropic point;
* tangent class: image is a different isotropic point.

Every fixed point of the map is isotropic: conj(S^T x) = c x with c
nonzero gives S^T x = conj(c) conj(x), so conj(c) conj(x)^T x =
x^T S x = 0 for the alternating S, and the point lies in its own perp.
So one pass of polar images over the isotropic points gives both the
classes and all fixed points of PG(m - 1, q^2).

The class sizes (counted as vectors, q^2 - 1 per point) reconstruct
the weight of the codeword exactly (``counts.weight_from_class_counts``),
giving a third route to weights besides the direct and the per-point
recursive counts.  The per-rank zero-class and weight bounds are closed
forms and live in ``counts``.  Minimum words take one of two shapes, rank-2 cone forms and
permutable forms, each tested by one predicate that the witness
constructions, min_word_witness and check_min_weight_profile share.

The radical R = ker S cuts the polar space in a cone [Pi_t]H_(d-t)
(Bose and Chakravarti, Canad. J. Math. 18, 1966), d = m - rank S.  Its
profile needs no basis of R: R cap R^perp = ker S cap im conj(S), so
t = rank S - rank(conj(S) S), two ranks of m x m matrices that the form
keeps from one stacked elimination (``_radical_profile``), which the
report and both predicates read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import counts, linalg, polar
from .code import AlternatingForm, weight_direct
from .ff import FieldCtx
from .linalg import fsub
from .pluecker import ProjectiveSystem

__all__ = [
    "point_classes",
    "ClassificationReport",
    "classify_points",
    "make_rank2_cone_form",
    "make_permutable_form",
    "min_word_witness",
    "check_min_weight_profile",
]

ZERO_CLASS, SECANT_CLASS, TANGENT_CLASS = 0, 1, 2


def _images(phi: AlternatingForm, space: polar.HermitianSpace, pts: np.ndarray):
    """Vectorized polar images of the given point rows.

    The polar hyperplane {z : x^T S z = 0} of [x] has the pole
    [conj(S^T x)] under the Hermitian form, whose transpose is
    conj(x)^T conj(S): one product of the conjugated rows with S^q.

    Returns (kernel_mask, normalized_images, fixed_mask); image rows for
    kernel points are zero, and fixed rows equal their image.
    """
    ctx = space.ctx
    y = linalg.matmul(ctx, ctx.frob[pts], ctx.frob[phi.s])
    y = linalg.normalize(ctx, y)[0]  # kernel rows stay zero, so no point row equals them
    return ~y.any(axis=1), y, (y == pts).all(axis=1)


def _classes(phi: AlternatingForm, space: polar.HermitianSpace) -> tuple[np.ndarray, int]:
    """Class labels of the isotropic points and the number of them fixed
    by the polarity map, from one ``_images`` pass over points(); the
    zero class holds the kernel and the fixed points."""
    if phi.is_zero():
        raise ValueError("the zero form has no point classification")
    kernel_mask, y, fixed = _images(phi, space, space.points())
    zero = kernel_mask | fixed
    labels = np.full(len(y), SECANT_CLASS, dtype=np.int8)
    labels[zero] = ZERO_CLASS
    labels[~zero & (space.inner_diag(y) == 0)] = TANGENT_CLASS
    return labels, int(fixed.sum())


def _radical_profile(phi: AlternatingForm) -> polar.RadicalProfile:
    """Profile of the section cut by the radical R = ker S, from two
    ranks and no basis.

    Under conj(x)^T y the perp of ker S is the image of conj(S), so
    R cap R^perp = ker S cap im conj(S), whose dimension is the rank of
    conj(S) minus that of S conj(S): t = rank S - rank(conj(S) S), the
    two products being conjugate.  The form keeps both ranks
    (``AlternatingForm.ranks``).  The section is the cone [Pi_t]H_(d-t)
    over d = m - rank S (``polar.radical_profile`` gives the same from
    the basis of R).
    """
    r, r0 = phi.ranks
    return polar.RadicalProfile(dim=phi.rad_dim, t=r - r0)


def _class_sizes(ctx: FieldCtx, labels: np.ndarray) -> tuple[int, int, int]:
    """Vector counts (A, B, C) of the zero, secant and tangent classes,
    q^2 - 1 vectors per labelled point."""
    a, b, c = np.bincount(labels, minlength=3) * (ctx.q2 - 1)
    return int(a), int(b), int(c)


def point_classes(phi: AlternatingForm, space: polar.HermitianSpace) -> np.ndarray:
    """Class label (0 zero, 1 secant, 2 tangent) per isotropic point."""
    return _classes(phi, space)[0]


@dataclass(frozen=True)
class ClassificationReport:
    """Class sizes and cross-checked weights for one nonzero form;
    ``weight_from_counts`` is -1 when the class sizes give no weight,
    and the failed check says why."""

    A: int
    B: int
    C: int
    rad_dim: int
    profile: polar.RadicalProfile
    fix_count: int
    weight_from_counts: int
    weight_direct: int
    checks: dict


def classify_points(
    phi: AlternatingForm, space: polar.HermitianSpace, system: ProjectiveSystem
) -> ClassificationReport:
    """Full classification report for a nonzero form.

    The direct weight is taken from the codeword of the system, a route
    independent of the class-size reconstruction; ``weight_direct``
    returns the weight the form keeps when it was already counted on this
    system object.  The radical's dimension and profile come from two
    ranks (``_radical_profile``), not from its basis.  ``fix_count``
    counts the projective fixed points of the composed polarity map over
    the whole projective space.  Every fixed point is isotropic (x^T S x
    = 0 puts a point that is its own pole in its own perp), so the one
    pass over the isotropic points that gives the classes finds them all.
    """
    ctx = space.ctx
    q = ctx.q
    labels, fix_count = _classes(phi, space)
    a, b, c = _class_sizes(ctx, labels)
    try:
        wfc = counts.weight_from_class_counts(space.m, q, a, b, c)
    except ValueError:  # sizes that do not add up or give no integral weight
        wfc = -1  # no weight, so weight_agreement fails
    wd = weight_direct(phi, system)
    report = ClassificationReport(
        A=a,
        B=b,
        C=c,
        rad_dim=phi.rad_dim,
        profile=_radical_profile(phi),
        fix_count=fix_count,
        weight_from_counts=wfc,
        weight_direct=wd,
        checks={
            "conservation": a + b + c == (ctx.q2 - 1) * counts.isotropic_point_count(space.m, q),
            "weight_agreement": wfc == wd,
        },
    )
    return report


# -- constructions ------------------------------------------------------------


def _outer_antisym(ctx: FieldCtx, a, b) -> np.ndarray:
    """a b^T - b a^T, a rank-2 alternating matrix for independent a, b."""
    ab = ctx.mul[a[:, None], b[None, :]]
    ba = ctx.mul[b[:, None], a[None, :]]
    return fsub(ctx, ab, ba)


def _norm_minus_one_element(ctx: FieldCtx) -> int:
    want = int(ctx.neg[1])
    for t in range(1, ctx.q2):
        if int(ctx.norm[t]) == want:
            return t
    raise RuntimeError("norm map misses -1; field tables are broken")


def _is_rank2_cone(phi: AlternatingForm, space: polar.HermitianSpace) -> tuple[bool, str]:
    """Rank 2, the radical cutting a vertex-1 cone for odd m and a
    vertex-2 cone for even m."""
    profile = _radical_profile(phi)
    ok = phi.rank == 2 and profile.t == 2 - space.m % 2
    return ok, f"rad_dim={phi.rad_dim}, profile={profile.label}"


def _is_permutable(phi: AlternatingForm, space: polar.HermitianSpace) -> tuple[bool, str]:
    """Rank m - (m mod 2), a non-isotropic radical point for odd m, a
    zero class of (q^rank - 1)(q + 1) vectors and, for even m, an empty
    secant class."""
    m, q, rank = space.m, space.ctx.q, phi.rank
    a, b, _ = _class_sizes(space.ctx, point_classes(phi, space))
    ok = rank == m - m % 2 and _radical_profile(phi).t == 0
    ok = ok and a == (q**rank - 1) * (q + 1) and (b == 0 or m % 2 == 1)
    return ok, f"rank={rank}, A={a}, B={b}"


def _certified(phi: AlternatingForm, space: polar.HermitianSpace, check) -> AlternatingForm:
    ok, why = check(phi, space)
    if not ok:
        raise RuntimeError(f"witness at m = {space.m}, q = {space.ctx.q} fails {check.__name__}: {why}")
    return phi


def make_rank2_cone_form(space: polar.HermitianSpace) -> AlternatingForm:
    """Rank-2 form whose radical cuts the fattest possible cone.

    For odd m the radical is spanned by (1, x0, 0, ...) and e_3 .. e_(m-1),
    with norm(x0) = -1, and meets the space in a vertex-1 cone
    [Pi_1]H_(m-3); for even m it is the perp of (1, x0, 0, ...) and
    (0, 0, 1, x0, 0, ...), a vertex-2 cone [Pi_2]H_(m-4) with a totally
    isotropic vertex.  The form is a b^T - b a^T for the basis a, b of
    the radical's annihilator, certified by ``_is_rank2_cone``
    (RuntimeError if it fails); callers check the weight,
    ``counts.rank2_cone_weight(m, q)``, themselves.
    """
    ctx, m = space.ctx, space.m
    if m < 5:
        raise ValueError("rank-2 cone witnesses need m >= 5")
    x0 = _norm_minus_one_element(ctx)
    if m % 2:
        rows = np.eye(m, dtype=np.uint8)[[0, *range(3, m)]]
        rows[0, 1] = x0
    else:
        pts = np.zeros((2, m), dtype=np.uint8)
        pts[0, :2] = pts[1, 2:4] = 1, x0
        rows = polar.perp(space, pts)
    a, b = linalg.kernel(ctx, rows)
    return _certified(AlternatingForm(ctx, _outer_antisym(ctx, a, b)), space, _is_rank2_cone)


def make_permutable_form(space: polar.HermitianSpace) -> AlternatingForm:
    """Nonsingular form whose polarity commutes with the Hermitian one.

    Only m in {4, 6} is supported, where such forms induce the
    minimum-weight codewords.  The form is the block-diagonal standard
    symplectic matrix over the prime subfield, certified by
    ``_is_permutable`` (RuntimeError if it fails); callers check the
    weight, d_min, themselves.
    """
    ctx, m = space.ctx, space.m
    if m not in (4, 6):
        raise ValueError("permutable witnesses are used for m in {4, 6} only")
    s = np.zeros((m, m), dtype=np.uint8)
    for blk in range(0, m, 2):
        s[blk, blk + 1] = 1
        s[blk + 1, blk] = ctx.neg[1]
    return _certified(AlternatingForm(ctx, s), space, _is_permutable)


def min_word_witness(space: polar.HermitianSpace) -> tuple[str, AlternatingForm]:
    """(kind, form) of a certified minimum-weight witness: "permutable"
    for m in {4, 6}, "rank2-cone" for m >= 5 otherwise."""
    if space.m in (4, 6):
        return "permutable", make_permutable_form(space)
    return "rank2-cone", make_rank2_cone_form(space)


def check_min_weight_profile(
    phi: AlternatingForm, space: polar.HermitianSpace, weight: int
) -> tuple[bool, str]:
    """Whether a minimum-weight form has the shape the minimum demands.

    For m in {4, 6} the form is permutable (``_is_permutable``); for
    m >= 7 it is a rank-2 cone form (``_is_rank2_cone``).  At m = 5
    both shapes occur: rank 2 with a 3-dimensional radical cutting a
    vertex-1 cone, and rank 4 with a non-isotropic radical point whose
    perp carries a permutable form.  Of the 11 190 816 minimum words at
    (5, 3), 9 961 056 have rank 4.  At m = 5 a form that fails the
    rank-2 check reports both details.

    Raises ValueError when the supplied weight is not the minimum
    distance.
    """
    m = space.m
    if weight != counts.code_params(m, space.ctx.q).d_min:
        raise ValueError("not a minimum-weight form")
    if m in (4, 6):
        return _is_permutable(phi, space)
    ok, why = _is_rank2_cone(phi, space)
    if m == 5 and not ok:
        ok, perm_why = _is_permutable(phi, space)
        why = f"{why}; {perm_why}"
    return ok, why
