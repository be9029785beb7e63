"""Exact table-driven arithmetic in GF(q^2) for q = p^e.

Field elements are dense integer codes 0..q^2-1.  The code of an
element is the base-p encoding of its coefficient vector over GF(p),
constant coefficient in the lowest digit.  GF(q^2) is realized as
GF(p)[x]/(f) for a fixed monic polynomial f of degree 2e, so the
codes are reproducible across runs and platforms (Lidl and
Niederreiter, Finite Fields, ch. 1).  The product table is built from
the products of the coefficient vectors, each reduced mod f; the
constructor checks that every nonzero element has an inverse, which
holds exactly when f is irreducible.  No logarithm tables are kept.

The subfield GF(q) consists of the fixed points of the Frobenius map
x -> x^q; this map is the conjugation underlying every Hermitian form
built on top of this module.  The norm x -> x^(q+1) takes values in
GF(q) and is surjective onto it, with exactly q+1 preimages over each
nonzero value.

Defining polynomials used, lowest coefficient first (each is also
primitive, but only irreducibility is relied on and checked):

    GF(4)    1 + x + x^2
    GF(9)    2 + 2x + x^2
    GF(16)   1 + x + x^4
    GF(25)   2 + 4x + x^2
    GF(49)   3 + 6x + x^2
    GF(64)   1 + x + x^3 + x^4 + x^6
"""

from __future__ import annotations

import numpy as np

__all__ = ["SUPPORTED_Q", "FieldCtx", "make_field"]

#: q values with pinned defining polynomials.
SUPPORTED_Q = (2, 3, 4, 5, 7, 8)

# Keyed by (p, 2e): the coefficients of f, lowest first, f monic.  The
# constructor verifies that f is irreducible.
_MODULUS = {
    (2, 2): (1, 1, 1),
    (3, 2): (2, 2, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
}


class FieldCtx:
    """GF(q^2) = GF(p)[x]/(f) with dense lookup tables.

    Tables (numpy arrays, uint8 codes):

    ``add``, ``mul``
        shape (q2, q2) operation tables, indexable with broadcasting
        element-code arrays.  ``mul`` holds the product of the
        coefficient vectors, reduced mod f from the top degree down.
    ``neg``, ``inv``, ``frob``, ``norm``
        shape (q2,) unary tables.  ``inv[a]`` is the column of the 1 in
        row a of ``mul``; ``inv[0]`` is 0, so scaling a zero row by the
        inverse of its first entry leaves it zero.  ``frob`` is a^q, q - 1
        products, and ``norm`` is a^(q+1).
    ``subfield``
        ascending codes of the q elements fixed by ``frob``.
    ``mul_flat``, ``add_flat``, ``code_dtype``
        ``mul`` and ``add`` flattened, so ``mul_flat[a * q2 + b] ==
        mul[a, b]`` and likewise for ``add_flat``; ``code_dtype`` is the
        narrowest unsigned dtype holding every such flat code (uint8
        while q2**2 <= 256, else uint16).  A left operand pre-scaled
        once with ``scaled_codes`` turns each product or sum into one
        add and one 1-D gather: odd-p ``linalg.fadd`` and the odd-p
        Pluecker fill (``pluecker.build_system``) are built on these.
        ``linalg.matmul`` gathers rows of ``mul``.  In characteristic 2
        bit u of a code is the coefficient of x^u, and the Pluecker fill,
        the scan kernel and the direct weight multiply bit planes by the
        bits of the products d x^i, one table read from ``mul``
        (``linalg._bit_products``).

    The constructor raises RuntimeError unless every nonzero element
    has an inverse (f irreducible) and ``frob`` fixes exactly q elements
    and is an involution.  Instances are immutable after construction
    and can be shared freely across threads and worker processes.
    """

    def __init__(self, p: int, e: int):
        # one lookup, instant for any p or e, before p**e
        if (p, 2 * e) not in _MODULUS:
            raise ValueError(f"q = {p}^{e} is outside the supported range {SUPPORTED_Q}")
        q = p**e
        self.p = p
        self.e = e
        self.q = q
        self.q2 = q * q
        deg = 2 * e
        self.poly = _MODULUS[(p, deg)]
        codes = np.arange(self.q2)
        pw = p ** np.arange(deg)
        digs = codes[:, None] // pw % p  # coefficient vectors, lowest first
        self.add = (((digs[:, None, :] + digs[None, :, :]) % p) @ pw).astype(np.uint8)
        self.add_flat = self.add.reshape(-1)
        self.neg = (((-digs) % p) @ pw).astype(np.uint8)

        prod = np.zeros((self.q2, self.q2, 2 * deg - 1), dtype=np.int64)
        for i in range(deg):
            prod[:, :, i : i + deg] += digs[:, None, i, None] * digs[None, :, :]
        for k in range(2 * deg - 2, deg - 1, -1):  # x^k = x^(k-2e) (x^2e - f) mod f, of lower degree
            prod[:, :, k - deg : k] -= prod[:, :, k, None] * np.array(self.poly[:deg])
        self.mul = ((prod[:, :, :deg] % p) @ pw).astype(np.uint8)
        self.mul_flat = self.mul.reshape(-1)
        self.code_dtype = np.dtype(np.uint8 if self.q2 * self.q2 <= 256 else np.uint16)

        one = self.mul == 1
        if not one[1:].any(axis=1).all():
            raise RuntimeError("modulus polynomial is not irreducible")
        self.inv = one.argmax(axis=1).astype(np.uint8)
        frob = codes
        for _ in range(q - 1):
            frob = self.mul[frob, codes]
        self.frob = frob
        self.norm = self.mul[frob, codes]

        self.subfield = np.nonzero(frob == codes)[0].astype(np.uint8)
        if len(self.subfield) != q:
            raise RuntimeError("Frobenius fixed field has wrong size")
        if not np.array_equal(frob[frob], codes):
            raise RuntimeError("Frobenius is not an involution")

        for a in (
            self.add, self.add_flat, self.neg, self.mul, self.mul_flat, self.inv, self.frob,
            self.norm, self.subfield,
        ):
            a.flags.writeable = False

    def scaled_codes(self, a) -> np.ndarray:
        """a * q2 in ``code_dtype``: the left operand of ``mul_flat`` and
        ``add_flat``.

        Adding any uint8 code array b gives the flat codes a * q2 + b
        without overflow.
        """
        return np.multiply(a, self.q2, dtype=self.code_dtype)

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.q2}) = GF({self.p}^{2 * self.e}))"


def make_field(p: int, e: int) -> FieldCtx:
    """Build GF(q^2) for q = p^e.

    Raises ValueError unless p is prime and q is in SUPPORTED_Q.
    """
    return FieldCtx(p, e)
