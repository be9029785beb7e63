"""The paper's closed forms: counts, code parameters and per-rank bounds.

Every function here is exact integer or rational arithmetic in m and q
and imports nothing beyond the standard library, so the commands that
print closed forms (``params``, ``bounds``) start without numpy.  This
is the home of the paper's closed forms; the number of minimum words
(``min_word_count``) and the m = 4 weight enumerator (``m4_spectrum``)
belong here too.

* ``isotropic_point_count(m, q)`` for the nondegenerate space,
* ``line_count(m, q)`` for totally isotropic lines,
* ``cone_point_count(m, i, t, q)`` for the section of the space cut
  by an (m-2i)-dimensional subspace whose induced singular radical
  has dimension t (a cone with a t-dimensional vertex over a
  nondegenerate piece of dimension m-2i-t);
* ``code_params`` and ``point_weight_values`` for the line code;
* ``weight_from_class_counts``, the class-count weight route's
  arithmetic;
* ``zero_class_bound(m, i, q)``, a bound on the zero-class size over all
  forms of rank 2i, which ``stratum_weight_bound`` turns into a per-rank
  lower bound on weights, tabulated by ``bound_table``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "isotropic_point_count", "line_count", "cone_point_count",
    "CodeParams", "code_params", "point_weight_values", "weight_from_class_counts", "rank2_cone_weight",
    "cone_count_max", "zero_class_bound", "stratum_weight_bound", "BoundRow", "BoundTable", "bound_table",
]


def isotropic_point_count(m: int, q: int) -> int:
    """Projective isotropic points of a nondegenerate form on V(m, q^2).

    Zero for m < 2 (the m = 0 value is a convention used by the cone
    count below).
    """
    if m <= 1:
        return 0
    s = (-1) ** (m - 1)
    num = (q**m + s) * (q ** (m - 1) - s)
    den = q * q - 1
    if num % den:
        raise RuntimeError(f"isotropic point count not integral at m = {m}, q = {q}")
    return num // den


def line_count(m: int, q: int) -> int:
    """Totally isotropic 2-spaces of a nondegenerate form on V(m, q^2)."""
    if m < 4:
        return 0
    num = isotropic_point_count(m, q) * isotropic_point_count(m - 2, q)
    den = q * q + 1
    if num % den:
        raise RuntimeError(f"line count not integral at m = {m}, q = {q}")
    return num // den


def cone_point_count(m: int, i: int, t: int, q: int) -> int:
    """Points of a vertex-t cone section inside an (m-2i)-subspace.

    The subspace meets the polar space in a cone with a totally
    isotropic vertex of dimension t over a nondegenerate section of
    dimension m-2i-t.  Requires 1 <= 2i <= m and
    0 <= t <= min(2i, m-2i).
    """
    if i < 1 or 2 * i > m:
        raise ValueError(f"i = {i} out of range for m = {m}")
    if t < 0 or t > min(2 * i, m - 2 * i):
        raise ValueError(f"t = {t} out of range for m = {m}, i = {i}")
    q2 = q * q
    return q2**t * isotropic_point_count(m - 2 * i - t, q) + (q2**t - 1) // (q2 - 1)


# -- the line code ------------------------------------------------------------


@dataclass(frozen=True)
class CodeParams:
    """Length, dimension and minimum distance of the line code."""

    m: int
    q: int
    n: int
    k: int
    d_min: int


def code_params(m: int, q: int) -> CodeParams:
    """Parameters of the line code on V(m, q^2); requires m >= 4.

    d_min is q^(4m-12) - q^(2m-6) for m in {4, 6}, q^(4m-12) for even
    m >= 8, and q^(4m-12) - q^(3m-9) for odd m.
    """
    if m < 4:
        raise ValueError("the line code requires m >= 4")
    n = line_count(m, q)
    k = m * (m - 1) // 2
    if m in (4, 6):
        d = q ** (4 * m - 12) - q ** (2 * m - 6)
    elif m % 2 == 0:
        d = q ** (4 * m - 12)
    else:
        d = q ** (4 * m - 12) - q ** (3 * m - 9)
    return CodeParams(m=m, q=q, n=n, k=k, d_min=d)


def point_weight_values(m: int, q: int) -> tuple[int, int, int]:
    """The three possible per-point line counts (zero, secant, tangent)."""
    mu2 = isotropic_point_count(m - 2, q)
    mu3 = isotropic_point_count(m - 3, q)
    return 0, mu2 - mu3, q ** (2 * m - 7)


def weight_from_class_counts(m: int, q: int, a: int, b: int, c: int) -> int:
    """Weight reconstructed from the three vector-class sizes.

    Requires a + b + c = (q^2 - 1) * (number of isotropic points); the
    reconstruction (q^(2m-7) (b + c) + (-1)^m q^(m-4) b) / (q^4 - 1)
    must come out an exact integer.
    """
    mu = isotropic_point_count(m, q)
    if a + b + c != (q * q - 1) * mu:
        raise ValueError("class counts do not add up to the number of isotropic vectors")
    num = q ** (2 * m - 7) * (b + c) + (-1) ** m * q ** (m - 4) * b
    den = q**4 - 1
    if num % den:
        raise ValueError("class counts do not give an integral weight")
    return num // den


def rank2_cone_weight(m: int, q: int) -> int:
    """Weight of a rank-2 form whose radical cuts the fattest cone: d_min,
    plus q^(2m-6) at m in {4, 6}, where the minimum words are permutable."""
    return code_params(m, q).d_min + (q ** (2 * m - 6) if m in (4, 6) else 0)


# -- bounds per rank stratum -------------------------------------------------


def cone_count_max(m: int, i: int, q: int) -> int:
    """Largest point count of a section cut by the radical of a form
    of rank 2i, over all admissible vertex dimensions t."""
    if i < 1 or 2 * i > m:
        raise ValueError(f"i = {i} out of range for m = {m}")
    if 4 * i >= m:
        t = m - 2 * i
    elif m % 2 == 0:
        t = 2 * i
    else:
        t = 2 * i - 1
    return cone_point_count(m, i, t, q)


def zero_class_bound(m: int, i: int, q: int) -> int:
    """Upper bound for the zero-class size of forms of rank 2i."""
    return (q ** (2 * i) - 1) * (q + 1) + (q * q - 1) * cone_count_max(m, i, q)


def stratum_weight_bound(m: int, i: int, q: int) -> Fraction:
    """Lower bound for weights of forms of rank 2i (exact rational)."""
    lead = q ** (2 * m - 7) - (q ** (m - 4) if m % 2 else 0)
    mu = isotropic_point_count(m, q)
    return Fraction(lead, q * q + 1) * (mu - Fraction(zero_class_bound(m, i, q), q * q - 1))


@dataclass(frozen=True)
class BoundRow:
    i: int
    xi: int
    mu_max: int
    d_lower: Fraction


@dataclass(frozen=True)
class BoundTable:
    m: int
    q: int
    rows: tuple[BoundRow, ...]

    def max_indices(self) -> list[int]:
        best = max(r.xi for r in self.rows)
        return [r.i for r in self.rows if r.xi == best]

    def expected_max_indices(self) -> list[int]:
        """The i that the paper gives for ``max_indices``, ascending: m/2
        for m in {4, 6}, both 1 and 2 for m = 5, and 1 for every other m."""
        return [self.m // 2] if self.m in (4, 6) else [1, 2] if self.m == 5 else [1]

    def second_index(self) -> int | None:
        """Index attaining the second largest bound value, None when
        fewer than two strata exist."""
        if len(self.rows) < 2:
            return None
        ranked = sorted(self.rows, key=lambda r: r.xi, reverse=True)
        return ranked[1].i


def bound_table(m: int, q: int) -> BoundTable:
    """Per-rank bounds for the line code on V(m, q^2); requires m >= 4."""
    if m < 4:
        raise ValueError("the line code requires m >= 4")
    rows = tuple(
        BoundRow(
            i=i,
            xi=zero_class_bound(m, i, q),
            mu_max=cone_count_max(m, i, q),
            d_lower=stratum_weight_bound(m, i, q),
        )
        for i in range(1, m // 2 + 1)
    )
    return BoundTable(m=m, q=q, rows=rows)
