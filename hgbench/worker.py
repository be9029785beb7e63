"""One cold process of a library workload (geometry, routes, spectrum, sample).

run.py starts this file with one JSON argument:

    {"workload": ..., "seed": ..., "mode": "setup" | "run" | "golden",
     "seconds": ..., "passes": ... or null, "trace_path": ... or null,
     "run_id": ...}

It prints two JSON lines on stdout: {"event": "setup", ...} as soon as
set-up is done (run.py times the process's launch-to-ready from it),
then the result.  Library calls run single-threaded (jobs=1).
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from contextlib import nullcontext
from math import comb
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

# Sizes built by each workload, in set-up order.
SIZES = {
    "geometry": ((8, 2), (5, 3), (4, 5)),
    "routes": ((6, 2), (5, 3)),
    "spectrum": ((5, 2), (4, 3)),
    "sample": ((6, 2), (5, 3)),
}
FIELD = {2: (2, 1), 3: (3, 1), 5: (5, 1)}
# Forms per pass on `routes`; every RANK2_EVERY-th form is a rank-2 form
# a b^T - b a^T, which uniform draws almost never give at q = 3.
ROUTES_FORMS = {(6, 2): 8, (5, 3): 2}
RANK2_EVERY = 4
# Sample-mode forms per scan on `sample`.
SAMPLE_FORMS = {(6, 2): 20000, (5, 3): 1500}
FORMS_PER_PASS = {
    "geometry": 0,
    "routes": sum(ROUTES_FORMS.values()),
    "spectrum": sum((q * q) ** comb(m, 2) for m, q in SIZES["spectrum"]),
    "sample": sum(SAMPLE_FORMS.values()),
}
# Peak RSS is read after this many passes, so it does not depend on how
# many passes fit in --seconds.
MIN_PASSES = 2

with open(os.path.join(HERE, "golden.json")) as _f:
    GOLDEN = json.load(_f)


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def size_name(m: int, q: int) -> str:
    return f"m{m}q{q}"


def digest(points, pairs, matrix) -> dict:
    """sha256 of the enumeration arrays, in a fixed dtype."""

    def sha(arr, dtype):
        return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()

    a, b = pairs
    return {
        "points": sha(points, np.uint8),
        "lines": sha(np.stack([np.asarray(a), np.asarray(b)]), np.int64),
        "genmat": sha(matrix, np.uint8),
    }


class Untraced:
    """Stands in for spans.Recorder when the run is not traced."""

    def span(self, name, size=None):
        return nullcontext()

    def paused(self):
        return nullcontext()


class Bench:
    def __init__(self, hg, spec, rec):
        self.hg = hg
        self.workload = spec["workload"]
        self.seed = int(spec["seed"])
        self.rec = rec
        self.ledger = checks.Ledger()
        self.built = {}
        self.counts = {}
        self.maxrss_mb = None
        self.meter = reference.Meter()

    # -- set-up -----------------------------------------------------------
    def setup(self) -> float:
        """Build every size; returns seconds from the first make_field."""
        hg, rec = self.hg, self.rec
        t0 = perf_counter()
        for m, q in SIZES[self.workload]:
            with rec.span("bench.build", size_name(m, q)):
                ctx = hg.make_field(*FIELD[q])
                space = hg.HermitianSpace(m, ctx)
                space.points()
                space.line_pair_indices()
                system = hg.build_system(space)
            self.built[(m, q)] = (ctx, space, system)
        if self.workload == "routes":
            # One fixed form per size fills whatever per-space caches the
            # weight routes keep, so the first measured form pays none.
            for (m, q), (ctx, space, system) in self.built.items():
                upper = np.zeros(m * (m - 1) // 2, dtype=np.uint8)
                upper[0] = upper[-1] = 1
                phi = hg.AlternatingForm.from_upper(ctx, m, upper)
                with rec.span("bench.warmup", size_name(m, q)):
                    self._routes(phi, space, system)
        return perf_counter() - t0

    def check_setup(self) -> None:
        hg = self.hg
        for (m, q), (ctx, space, system) in self.built.items():
            s = size_name(m, q)

            def check(m=m, q=q, ctx=ctx, space=space, system=system, s=s):
                problems = []
                pts = space.points()
                pairs = space.line_pair_indices()
                k = comb(m, 2)
                n_lines = len(pairs[0])
                checks.expect(problems, len(pts) == hg.isotropic_point_count(m, q), f"{len(pts)} points")
                checks.expect(problems, n_lines == hg.line_count(m, q), f"{n_lines} lines")
                checks.expect(problems, len(pts) == checks.isotropic_point_count(m, q), "point closed form")
                checks.expect(problems, n_lines == checks.line_count(m, q), "line closed form")
                checks.expect(problems, system.matrix.shape == (k, n_lines), f"generator shape {system.matrix.shape}")
                rank = hg.linalg.rank(ctx, system.matrix)
                checks.expect(problems, rank == k, f"generator rank {rank} != C(m,2) = {k}")
                got = digest(pts, pairs, system.matrix)
                want = GOLDEN["geometry"].get(s)
                checks.expect(problems, want is None or got == want, f"enumeration digest {got} != golden")
                return None, problems

            self.ledger.run(f"build {s}", check)

    # -- operations ---------------------------------------------------------
    def _routes(self, phi, space, system):
        hg = self.hg
        wd = hg.weight_direct(phi, system)
        wr = hg.weight_recursive(phi, space)
        rep = hg.classify_points(phi, space, system)
        pw = hg.point_weights(phi, space)
        return wd, wr, rep, pw

    def _route_op(self, m, q, phi):
        ctx, space, system = self.built[(m, q)]
        hg = self.hg
        with self.rec.span("bench.form", size_name(m, q)):
            t0 = perf_counter()
            wd, wr, rep, pw = self._routes(phi, space, system)
            dt = perf_counter() - t0
        with self.rec.paused():
            rank = phi.rank
            problems = checks.routes_problems(
                m, q, wd, wr, rep, [int(x) for x in pw], hg.point_weight_values(m, q),
                rank, hg.stratum_weight_bound(m, rank // 2, q),
            )
        return dt, problems

    def _forms(self, m, q):
        """Endless seeded stream of nonzero forms at (m, q)."""
        ctx = self.built[(m, q)][0]
        hg = self.hg
        rng = np.random.default_rng([self.seed, m, q])
        k = comb(m, 2)
        j = 0
        while True:
            if j % RANK2_EVERY == RANK2_EVERY - 1:
                a = rng.integers(0, ctx.q2, size=m, dtype=np.uint8)
                b = rng.integers(0, ctx.q2, size=m, dtype=np.uint8)
                s = ctx.add[ctx.mul[a[:, None], b[None, :]], ctx.neg[ctx.mul[b[:, None], a[None, :]]]]
                if not s.any():
                    continue
                phi = hg.AlternatingForm(ctx, s)
            else:
                upper = rng.integers(0, ctx.q2, size=k, dtype=np.uint8)
                if not upper.any():
                    continue
                phi = hg.AlternatingForm.from_upper(ctx, m, upper)
            j += 1
            yield phi

    def _exhaustive_op(self, m, q):
        system = self.built[(m, q)][2]
        with self.rec.span("bench.scan", size_name(m, q)):
            t0 = perf_counter()
            rep = self.hg.spectrum(system, mode="exhaustive", jobs=1)
            dt = perf_counter() - t0
        golden = GOLDEN["spectrum"].get(size_name(m, q))
        problems = checks.exhaustive_problems(
            rep.histogram, rep.min_nonzero_weight, rep.min_weight_radical_dims, m, q, golden
        )
        s = size_name(m, q)
        self.counts[f"code.spectrum.min_forms.{s}"] = rep.histogram.get(rep.min_nonzero_weight, 0)
        return dt, problems

    def _sample_op(self, m, q, first):
        system = self.built[(m, q)][2]
        n = SAMPLE_FORMS[(m, q)]
        with self.rec.span("bench.scan", size_name(m, q)):
            t0 = perf_counter()
            rep = self.hg.spectrum(system, mode="sample", seed=self.seed, samples=n, jobs=1)
            dt = perf_counter() - t0
        problems = checks.sample_problems(
            rep.histogram, rep.forms_scanned, n, self.seed, rep.seed, rep.min_nonzero_weight, m, q
        )
        # Every pass scans the same seeded sample, so it must repeat exactly.
        key = size_name(m, q)
        if key in first:
            checks.expect(problems, rep.histogram == first[key], "seeded sample histogram changed between passes")
        else:
            first[key] = rep.histogram
        return dt, problems

    def _op(self, label, fn) -> float:
        """One timed operation, then the reference samples it owes."""
        dt = self.ledger.run(label, fn) or 0.0
        self.meter.owe(dt)
        self.meter.settle()
        return dt

    def one_pass(self, streams, first) -> float:
        """Run the workload's fixed operation list once; returns the
        seconds spent in library calls."""
        total = 0.0
        if self.workload == "routes":
            for (m, q), per_pass in ROUTES_FORMS.items():
                for _ in range(per_pass):
                    with self.rec.paused():
                        phi = next(streams[(m, q)])
                    total += self._op(f"form {size_name(m, q)}", lambda: self._route_op(m, q, phi))
        elif self.workload == "spectrum":
            for m, q in SIZES["spectrum"]:
                total += self._op(f"exhaustive {size_name(m, q)}", lambda: self._exhaustive_op(m, q))
        elif self.workload == "sample":
            for m, q in SIZES["sample"]:
                total += self._op(f"sample {size_name(m, q)}", lambda: self._sample_op(m, q, first))
        return total

    def run_passes(self, seconds: float, fixed: int | None) -> list[float]:
        streams = {mq: self._forms(*mq) for mq in ROUTES_FORMS} if self.workload == "routes" else {}
        first: dict = {}
        passes: list[float] = []
        t0 = perf_counter()
        while True:
            if fixed is not None and len(passes) >= fixed:
                break
            if fixed is None and len(passes) >= MIN_PASSES and perf_counter() - t0 >= seconds:
                break
            passes.append(self.one_pass(streams, first))
            if len(passes) == MIN_PASSES:
                self.maxrss_mb = maxrss_mb()
        return passes


def golden(hg) -> dict:
    """Enumeration digests and exhaustive histograms of the code as it is
    (run.py --record-golden writes them to golden.json)."""
    out = {"geometry": {}, "spectrum": {}}
    sizes = sorted({mq for w in SIZES.values() for mq in w})
    for m, q in sizes:
        ctx = hg.make_field(*FIELD[q])
        space = hg.HermitianSpace(m, ctx)
        system = hg.build_system(space)
        out["geometry"][size_name(m, q)] = digest(space.points(), space.line_pair_indices(), system.matrix)
        if (m, q) in SIZES["spectrum"]:
            rep = hg.spectrum(system, mode="exhaustive", jobs=1)
            entry = {"histogram": {str(w): c for w, c in sorted(rep.histogram.items())}}
            if (m, q) == (5, 2):
                entry["radical_dims"] = {str(d): c for d, c in sorted(rep.min_weight_radical_dims.items())}
            out["spectrum"][size_name(m, q)] = entry
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    trace_path = spec.get("trace_path")
    rec = spans.Recorder(spec["run_id"]) if trace_path else Untraced()
    import hermgrass as hg

    src = os.path.join(ROOT, "src", "hermgrass")
    if os.path.dirname(os.path.abspath(hg.__file__)) != src:
        print(f"hermgrass imported from {hg.__file__}, not from {src}", file=sys.stderr)
        return 2
    if spec["mode"] == "golden":
        print(json.dumps(golden(hg)))
        return 0
    wrapped = spans.install(rec) if trace_path else 0
    bench = Bench(hg, spec, rec)
    try:
        setup_s = bench.setup()
    except Exception as exc:  # recorded as a failed operation, not raised
        bench.ledger.record("setup", [f"{type(exc).__name__}: {exc}"])
        setup_s = None
    print(json.dumps({"event": "setup", "setup_s": setup_s}), flush=True)
    passes: list[float] = []
    if setup_s is not None:
        bench.meter.owe(setup_s)
        bench.meter.settle(at_least=3)
        with rec.paused():
            bench.check_setup()
        if spec["mode"] == "run":
            passes = bench.run_passes(float(spec["seconds"]), spec.get("passes"))
    if trace_path:
        rec.dump(trace_path, {"wrapped": wrapped})
    print(
        json.dumps(
            {
                "event": "result",
                "setup_s": setup_s,
                "passes": passes,
                "refs": bench.meter.samples,
                "maxrss_mb": bench.maxrss_mb or maxrss_mb(),
                "counts": bench.counts,
                "forms_per_pass": FORMS_PER_PASS[bench.workload],
                **bench.ledger.as_dict(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
