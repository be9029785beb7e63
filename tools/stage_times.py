"""Cold times of the geometry stages, each run in a fresh process.

For each size (m, q) it starts ``--runs`` new interpreters.  Each builds
GF(q^2) and the space, then times ``points()``, ``line_pair_indices()``
and ``build_system``, with the ``linalg.rank`` certificate timed apart
from the fill that precedes it, and last the first ``section_table()``
call, which also builds the perp rows the space holds beside the table
(``perp_sections``), so the per-form work moved there shows as set-up.
``build_rss_mb`` is the child's peak RSS (``ru_maxrss``) right after
``build_system``, before the section table, so a run shows where memory
went.  It prints one JSON line:

    {"m": 8, "q": 2, "n": 1519749, "points_ms": ..., "lines_ms": ...,
     "fill_ms": ..., "rank_ms": ..., "sections_ms": ..., "build_rss_mb": ...}

``--src DIR`` imports hermgrass from DIR instead of this checkout's src,
so two trees are timed by one script:

    python3 tools/stage_times.py [--runs 5] [--src DIR] [m,q ...]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

SIZES = ["8,2", "7,2", "6,2", "5,4", "4,8", "5,3", "4,5", "4,7"]
FIELD = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3)}  # q -> (p, e)


def _child(m: int, q: int) -> dict:
    import hermgrass as hg
    from hermgrass import linalg

    rank_s = []
    rank = linalg.rank

    def timed_rank(*args, **kwargs):
        t = time.perf_counter()
        out = rank(*args, **kwargs)
        rank_s.append(time.perf_counter() - t)
        return out

    linalg.rank = timed_rank  # build_system calls it through the module
    space = hg.HermitianSpace(m, hg.make_field(*FIELD[q]))
    times, rss_kb = [], []
    stages = (space.points, space.line_pair_indices, lambda: hg.build_system(space), space.section_table)
    for stage in stages:
        t = time.perf_counter()
        stage()
        times.append(time.perf_counter() - t)
        rss_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    secs = (times[0], times[1], times[2] - sum(rank_s), sum(rank_s), times[3])
    names = ("points", "lines", "fill", "rank", "sections")
    ms = {f"{name}_ms": round(s * 1e3, 3) for name, s in zip(names, secs)}
    return {"m": m, "q": q, "n": space.num_lines, **ms, "build_rss_mb": round(rss_kb[2] / 1024, 1)}


def run_fresh(argv: list[str], script: str, child, sizes: list[str], options=()) -> int:
    """Parse ``argv`` and print ``child(m, q, *options)`` as one JSON line
    per run, each run in a fresh interpreter of ``script`` started with
    NUMPY_MADVISE_HUGEPAGE=0.

    ``options`` holds ``(flag, default, help)`` of the script's own
    integer options, and of its switches where the default is False,
    which are passed to ``child`` after m and q as integers.
    """
    ap = argparse.ArgumentParser(description=sys.modules[child.__module__].__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", default=sizes, help="m,q pairs (default: %(default)s)")
    ap.add_argument("--runs", type=int, default=5, help="fresh processes per size")
    for flag, default, text in options:
        if default is False:
            ap.add_argument(f"--{flag}", action="store_true", help=text)
        else:
            ap.add_argument(f"--{flag}", type=int, default=default, help=text)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    ap.add_argument("--child", nargs=2 + len(options), type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(child(*args.child)))
        return 0
    # as in hgbench: with numpy's huge-page advice on, child times fell
    # into two modes about 1.4x apart
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), NUMPY_MADVISE_HUGEPAGE="0")
    extra = [str(int(getattr(args, flag))) for flag, _, _ in options]
    for size in args.sizes:
        m, q = (int(x) for x in size.split(","))
        for _ in range(args.runs):
            cmd = [sys.executable, script, "--child", str(m), str(q), *extra]
            out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
            print(out.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run_fresh(sys.argv[1:], __file__, _child, SIZES))
