"""Per-form times of the weight routes, each size run in fresh processes.

For each size (m, q) it starts ``--runs`` new interpreters.  Each builds
GF(q^2), the space and its system, runs every route once on a fixed form
so that the per-space tables are built before timing, then draws
``--forms`` seeded nonzero forms, every fourth of rank 2 (a b^T - b a^T).
Each route is timed on its own new copy of a form, so that nothing the
form keeps is reused: ``weight_direct``, ``weight_recursive``,
``point_weights`` and ``classify_points``.  Last it times the four routes
in sequence on one more copy, the order in which hgbench's routes
workload and ``verify`` cross-check a form.  It prints one JSON line of
medians per process:

    {"m": 6, "q": 2, "forms": 40, "direct_ms": ..., "recursive_ms": ...,
     "point_weights_ms": ..., "classify_ms": ..., "sequence_ms": ...}

``--src DIR`` imports hermgrass from DIR instead of this checkout's src,
so two trees are timed by one script:

    python3 tools/route_times.py [--runs 5] [--forms 40] [--src DIR] [m,q ...]
"""

from __future__ import annotations

import statistics
import sys
import time

from stage_times import FIELD, run_fresh

SIZES = ["6,2", "5,3", "4,5"]


def _forms(hg, ctx, m: int, count: int):
    """Seeded nonzero form matrices at (m, q); every fourth has rank 2."""
    import numpy as np

    rng = np.random.default_rng([1, m, ctx.q])
    out = []
    while len(out) < count:
        if len(out) % 4 == 3:
            a, b = rng.integers(0, ctx.q2, size=(2, m), dtype=np.uint8)
            s = ctx.add[ctx.mul[a[:, None], b[None, :]], ctx.neg[ctx.mul[b[:, None], a[None, :]]]]
        else:
            upper = rng.integers(0, ctx.q2, size=m * (m - 1) // 2, dtype=np.uint8)
            s = hg.AlternatingForm.from_upper(ctx, m, upper).s
        if s.any():
            out.append(s)
    return out


def _child(m: int, q: int, forms: int) -> dict:
    import numpy as np

    import hermgrass as hg

    ctx = hg.make_field(*FIELD[q])
    space = hg.HermitianSpace(m, ctx)
    system = hg.build_system(space)
    routes = {
        "direct": lambda phi: hg.weight_direct(phi, system),
        "recursive": lambda phi: hg.weight_recursive(phi, space),
        "point_weights": lambda phi: hg.point_weights(phi, space),
        "classify": lambda phi: hg.classify_points(phi, space, system),
    }
    warm = np.zeros((m, m), dtype=np.uint8)
    warm[0, 1], warm[1, 0] = 1, ctx.neg[1]
    for route in routes.values():
        route(hg.AlternatingForm(ctx, warm))
    times: dict[str, list[float]] = {name: [] for name in [*routes, "sequence"]}
    for s in _forms(hg, ctx, m, forms):
        for name, route in routes.items():
            phi = hg.AlternatingForm(ctx, s)
            t = time.perf_counter()
            route(phi)
            times[name].append(time.perf_counter() - t)
        phi = hg.AlternatingForm(ctx, s)
        t = time.perf_counter()
        for route in routes.values():
            route(phi)
        times["sequence"].append(time.perf_counter() - t)
    ms = {f"{name}_ms": round(statistics.median(v) * 1e3, 3) for name, v in times.items()}
    return {"m": m, "q": q, "forms": forms, **ms}


if __name__ == "__main__":
    sys.exit(run_fresh(sys.argv[1:], __file__, _child, SIZES, [("forms", 40, "seeded forms per process")]))
