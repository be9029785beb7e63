"""Cold and warm seeded sample scans on one system, each size run in fresh processes.

For each size (m, q) it starts ``--runs`` new interpreters.  Each builds
GF(q^2), the space and its system, then runs the same seeded sample scan
(``spectrum(mode="sample")``, seed 1, ``--forms`` forms, one process)
twice on that system.  The first, cold scan builds the system's scan
kernel; the second, warm scan reads the kernel the system holds, as every
later scan does.  Each is reported with the minor page faults of its own
process over the scan (``ru_minflt``), and the script prints one JSON
line per process:

    {"m": 6, "q": 2, "forms": 20000, "cold_ms": ..., "cold_minflt": ...,
     "warm_ms": ..., "warm_minflt": ...}

``--src DIR`` imports hermgrass from DIR instead of this checkout's src,
so two trees are timed by one script:

    python3 tools/scan_times.py [--runs 5] [--forms 20000] [--src DIR] [m,q ...]
"""

from __future__ import annotations

import resource
import sys
import time

from stage_times import FIELD, run_fresh

SIZES = ["6,2", "5,3", "4,5"]


def _child(m: int, q: int, forms: int) -> dict:
    import hermgrass as hg

    system = hg.build_system(hg.HermitianSpace(m, hg.make_field(*FIELD[q])))
    out: dict = {"m": m, "q": q, "forms": forms}
    for scan in ("cold", "warm"):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t = time.perf_counter()
        hg.spectrum(system, mode="sample", seed=1, samples=forms, jobs=1)
        out[f"{scan}_ms"] = round((time.perf_counter() - t) * 1e3, 3)
        out[f"{scan}_minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return out


if __name__ == "__main__":
    sys.exit(run_fresh(sys.argv[1:], __file__, _child, SIZES, [("forms", 20000, "seeded forms per scan")]))
