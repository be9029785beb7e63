"""Exact output checks and the ledger that counts failed operations.

Every check returns a list of problems; an empty list means the output
is right.  The checks use only integers, so they run the same in the
orchestrator and in the worker processes.
"""

from __future__ import annotations

import traceback


class Ledger:
    """Operations attempted and the ones that failed a check or raised."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append({"op": label, "problems": problems[:5]})

    def run(self, label: str, fn):
        """Call fn() -> (value, problems); an exception is a failure.

        Returns the value, or None when fn raised.
        """
        try:
            value, problems = fn()
        except Exception as exc:  # a failed operation is recorded, not raised
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            self.record(label, [tb])
            return None
        self.record(label, problems)
        return value

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failures.extend(other["failures"])

    @property
    def failed(self) -> int:
        return len(self.failures)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failures": self.failures}


def expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def isotropic_point_count(m: int, q: int) -> int:
    """Closed form, independent of the package: points of H(m-1, q^2)."""
    if m <= 1:
        return 0
    s = (-1) ** (m - 1)
    return (q**m + s) * (q ** (m - 1) - s) // (q * q - 1)


def line_count(m: int, q: int) -> int:
    return isotropic_point_count(m, q) * isotropic_point_count(m - 2, q) // (q * q + 1)


def d_min(m: int, q: int) -> int:
    if m in (4, 6):
        return q ** (4 * m - 12) - q ** (2 * m - 6)
    if m % 2 == 0:
        return q ** (4 * m - 12)
    return q ** (4 * m - 12) - q ** (3 * m - 9)


def pless_problems(hist: dict[int, int], n: int, k: int, q: int) -> list[str]:
    """Total and the first two Pless power moments of a whole spectrum.

    For this projective [n, k] code over GF(Q), Q = q^2, with no zero
    coordinate and no two proportional columns:
        sum A_w = Q^k
        sum w A_w = n (Q-1) Q^(k-1)
        sum w^2 A_w = (Q-1) Q^(k-2) n (Q + (n-1)(Q-1))
    """
    Q = q * q
    problems: list[str] = []
    expect(problems, sum(hist.values()) == Q**k, f"histogram total {sum(hist.values())} != Q^K = {Q**k}")
    m1 = sum(w * a for w, a in hist.items())
    expect(problems, m1 == n * (Q - 1) * Q ** (k - 1), f"first Pless moment {m1} is wrong")
    m2 = sum(w * w * a for w, a in hist.items())
    want = (Q - 1) * Q ** (k - 2) * n * (Q + (n - 1) * (Q - 1))
    expect(problems, m2 == want, f"second Pless moment {m2} != {want}")
    return problems


def exhaustive_problems(hist, min_weight, radical_dims, m, q, golden) -> list[str]:
    """Whole-spectrum checks plus the golden values of the size, if any."""
    n, k = line_count(m, q), m * (m - 1) // 2
    problems = pless_problems(hist, n, k, q)
    expect(problems, min_weight == d_min(m, q), f"minimum weight {min_weight} != d_min {d_min(m, q)}")
    if radical_dims is not None:
        split = sum(radical_dims.values())
        expect(problems, split == hist.get(min_weight), f"radical split covers {split} minimum words")
    if golden is not None:
        want = {int(w): c for w, c in golden["histogram"].items()}
        expect(problems, hist == want, "histogram differs from the golden histogram")
        if "radical_dims" in golden:
            want_rd = {int(d): c for d, c in golden["radical_dims"].items()}
            expect(problems, radical_dims == want_rd, f"radical split {radical_dims} != {want_rd}")
    return problems


def sample_problems(hist, forms, samples, seed, echoed_seed, min_weight, m, q) -> list[str]:
    problems: list[str] = []
    n = line_count(m, q)
    expect(problems, sum(hist.values()) == samples, f"histogram total {sum(hist.values())} != {samples}")
    expect(problems, forms == samples, f"forms scanned {forms} != {samples}")
    expect(problems, echoed_seed == seed, f"seed echoed as {echoed_seed}, asked {seed}")
    low = min_weight is not None and min_weight >= d_min(m, q)
    expect(problems, low, f"sampled weight {min_weight} < d_min")
    expect(problems, max(hist) <= n, f"weight {max(hist)} exceeds N = {n}")
    return problems


def routes_problems(m, q, wd, wr, rep, point_weights, allowed, rank, bound) -> list[str]:
    """The three weight routes agree and the class sizes are consistent.

    ``rep`` is the classification report, ``point_weights`` the per-point
    counts as ints, ``allowed`` the three possible per-point values.
    """
    problems: list[str] = []
    mu = isotropic_point_count(m, q)
    q2 = q * q
    wfc = rep.weight_from_counts
    agree = wd == wr == wfc == rep.weight_direct
    expect(problems, agree, f"routes disagree: direct {wd}, recursive {wr}, classes {wfc}")
    abc = rep.A + rep.B + rep.C
    expect(problems, abc == (q2 - 1) * mu, f"A+B+C = {abc} != (q^2-1) mu")
    expect(problems, all(rep.checks.values()), f"report checks {rep.checks}")
    seen = set(point_weights)
    expect(problems, seen <= set(allowed), f"per-point values {sorted(seen)} outside {sorted(allowed)}")
    total = sum(point_weights) * (q2 - 1)
    expect(problems, total == wr * (q2 * q2 - 1), "point weights do not sum to the weight")
    expect(problems, d_min(m, q) <= wd <= line_count(m, q), f"weight {wd} outside [d_min, N]")
    above = rank % 2 == 0 and wd >= bound
    expect(problems, above, f"weight {wd} below the rank-{rank} bound {float(bound):.1f}")
    return problems
