"""Cold and warm spectrum scans on one system, each size run in fresh processes.

For each size (m, q) it starts ``--runs`` new interpreters.  Each builds
GF(q^2), the space and its system, then runs the same scan twice on that
system.  The first, cold scan builds the system's scan kernel; the
second, warm scan reads what the first kept, as every later scan does.
When exhaustive, the two-row orbit labelling is made and timed on its
own before either scan.

By default the scan is seeded sample mode (``spectrum(mode="sample")``,
seed 1, ``--forms`` forms, one process), each reported with the minor
page faults of its own process over the scan (``ru_minflt``):

    {"m": 6, "q": 2, "forms": 20000, "cold_ms": ..., "cold_minflt": ...,
     "warm_ms": ..., "warm_minflt": ...}

With ``--exhaustive`` it is the whole enumerator
(``spectrum(mode="exhaustive")``, ``--jobs`` workers, no budget limit),
reported with the forms the scan visits, the time of the orbit labelling
that picks them (``code._scan_prefixes``), the peak RSS (``ru_maxrss``)
of the process and of its largest pool worker, and the sha256 of the
histogram as sorted (weight, count) pairs in JSON:

    {"m": 5, "q": 3, "jobs": 1, "scanned": 379809, "label_ms": ..., "cold_ms": ...,
     "warm_ms": ..., "maxrss_mb": ..., "workers_maxrss_mb": ...,
     "histogram_sha256": "..."}

``--src DIR`` imports hermgrass from DIR instead of this checkout's src,
so two trees are timed by one script:

    python3 tools/scan_times.py [--runs 5] [--forms 20000] [--exhaustive [--jobs 2]] [--src DIR] [m,q ...]
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from stage_times import FIELD, run_fresh

SIZES = ["6,2", "5,3", "4,5"]

# the exhaustive scan's budget: the tool times whatever size it is given
_UNBOUNDED = 1 << 62


def _child(m: int, q: int, forms: int, exhaustive: int, jobs: int) -> dict:
    import hermgrass as hg

    system = hg.build_system(hg.HermitianSpace(m, hg.make_field(*FIELD[q])))
    if exhaustive:
        return _exhaustive(hg, system, m, q, jobs)
    out: dict = {"m": m, "q": q, "forms": forms}
    for scan in ("cold", "warm"):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t = time.perf_counter()
        hg.spectrum(system, mode="sample", seed=1, samples=forms, jobs=1)
        out[f"{scan}_ms"] = round((time.perf_counter() - t) * 1e3, 3)
        out[f"{scan}_minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return out


def _exhaustive(hg, system, m: int, q: int, jobs: int) -> dict:
    from hermgrass import code

    t = time.perf_counter()
    prefixes, _ = code._scan_prefixes(system.ctx, m, _UNBOUNDED)
    label_ms = round((time.perf_counter() - t) * 1e3, 3)
    scanned = len(prefixes) * system.ctx.q2 ** ((m - 2) * (m - 3) // 2)
    out: dict = {"m": m, "q": q, "jobs": jobs, "scanned": scanned, "label_ms": label_ms}
    for scan in ("cold", "warm"):
        t = time.perf_counter()
        rep = hg.spectrum(system, mode="exhaustive", budget=_UNBOUNDED, jobs=jobs)
        out[f"{scan}_ms"] = round((time.perf_counter() - t) * 1e3, 3)
    for key, who in (("maxrss_mb", resource.RUSAGE_SELF), ("workers_maxrss_mb", resource.RUSAGE_CHILDREN)):
        out[key] = round(resource.getrusage(who).ru_maxrss / 1024, 1)
    out["histogram_sha256"] = hashlib.sha256(json.dumps(sorted(rep.histogram.items())).encode()).hexdigest()
    return out


if __name__ == "__main__":
    options = [
        ("forms", 20000, "seeded forms per sample scan"),
        ("exhaustive", False, "scan every form instead of a seeded sample"),
        ("jobs", 1, "worker processes of an exhaustive scan"),
    ]
    sys.exit(run_fresh(sys.argv[1:], __file__, _child, SIZES, options))
