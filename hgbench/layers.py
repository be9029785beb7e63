"""Per-layer metrics of a traced run, computed from its spans.

``NAMES`` lists every per-layer metric with its unit; a traced run of
any workload reports all of them.  A layer the workload never calls
reads 0 there: that is the measurement, and it is the prediction for
the workloads that bypass the layer.
"""

from __future__ import annotations

import statistics

from spans import tail

# Sizes by the workload that builds them (geometry, routes, spectrum,
# sample); GEOMETRY_SIZES is their union.
GEOMETRY_SIZES = ("m8q2", "m5q3", "m4q5", "m6q2", "m5q2", "m4q3")
ROUTES_SIZES = ("m6q2", "m5q3")
EXHAUSTIVE_SIZES = ("m5q2", "m4q3")
SAMPLE_SIZES = ("m6q2", "m5q3")
CLI_COMMANDS = ("params", "points", "lines", "genmat", "bounds", "weight", "classify", "spectrum", "verify")
LINALG = ("rank", "kernel", "rref", "matmul")


def _names() -> dict[str, str]:
    n = {"ff.make_field.ms": "ms"}
    for s in GEOMETRY_SIZES:
        n[f"polar.points.ms.{s}"] = "ms"
        n[f"polar.points.count.{s}"] = "count"
        n[f"polar.line_pair_indices.ms.{s}"] = "ms"
        n[f"polar.lines.count.{s}"] = "count"
        n[f"polar.cache_mb.{s}"] = "MB-computed"
        n[f"pluecker.build_system.self_ms.{s}"] = "ms"
        n[f"linalg.rank.ms.{s}"] = "ms"
    n["linalg.rank.calls"] = "count"
    n["linalg.kernel.calls"] = "count"
    for f in LINALG:
        n[f"linalg.{f}.self_s"] = "s"
    for s in ROUTES_SIZES:
        n[f"polar.orthogonal_point_pairs.ms.{s}"] = "ms"
        n[f"polar.orthogonal_point_pairs.pairs.{s}"] = "count"
        for f in ("weight_direct", "weight_recursive"):
            n[f"code.{f}.p50_ms.{s}"] = "ms"
            n[f"code.{f}.tail_ms.{s}"] = "ms"
        n[f"code.point_weights.p50_ms.{s}"] = "ms"
        n[f"code.point_weights.calls.{s}"] = "count"
        n[f"classify.classify_points.p50_ms.{s}"] = "ms"
        n[f"classify.classify_points.tail_ms.{s}"] = "ms"
        n[f"classify.point_classes.self_ms.{s}"] = "ms"
        n[f"classify.fixed_point_count.self_ms.{s}"] = "ms"
        n[f"polar.radical_profile.self_ms.{s}"] = "ms"
    for s in EXHAUSTIVE_SIZES:
        n[f"code.spectrum.exhaustive.s.{s}"] = "s"
        n[f"code.spectrum.exhaustive.self_s.{s}"] = "s"
        n[f"code.form_from_index.calls.{s}"] = "count"
        n[f"code.spectrum.min_forms.{s}"] = "count"
    for s in SAMPLE_SIZES:
        n[f"code.spectrum.sample.us_per_form.{s}"] = "us"
    for s in dict.fromkeys(EXHAUSTIVE_SIZES + SAMPLE_SIZES):
        n[f"code.spectrum.forms.{s}"] = "count"
        n[f"code.spectrum.table_mb.{s}"] = "MB-computed"
    for c in CLI_COMMANDS:
        n[f"cli.{c}.s"] = "s"
        n[f"cli.{c}.out_bytes"] = "bytes"
        n[f"cli.{c}.maxrss_mb"] = "MB"
    n["trace.overhead_s"] = "s"
    n["trace.spans"] = "count"
    return n


NAMES = _names()


def compute(rows: list[dict], counts: dict, commands: dict, overhead_s: float) -> dict[str, float]:
    """Every metric in NAMES from the span rows of one traced run.

    ``counts`` holds exact counts the workload recorded itself,
    ``commands`` maps a CLI command to its {"s", "out_bytes",
    "maxrss_mb"}.
    """
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["name"], r["size"]), []).append(r)

    def sel(name, size=None, tag=None):
        if size is None:
            rs = [r for (nm, _), g in groups.items() if nm == name for r in g]
        else:
            rs = groups.get((name, size), [])
        return [r for r in rs if tag is None or r["tag"] == tag]

    def total(rs, key="dur"):
        return sum(r[key] for r in rs)

    def largest(rs, key):
        return max((r[key] or 0 for r in rs), default=0)

    def p50(rs):
        return statistics.median(r["dur"] for r in rs) if rs else 0.0

    v: dict[str, float] = {"ff.make_field.ms": total(sel("ff.make_field")) * 1e3}
    for s in GEOMETRY_SIZES:
        pts, lines, gen = sel("polar.points", s), sel("polar.line_pair_indices", s), sel("pluecker.build_system", s)
        v[f"polar.points.ms.{s}"] = total(pts) * 1e3
        v[f"polar.points.count.{s}"] = largest(pts, "items")
        v[f"polar.line_pair_indices.ms.{s}"] = total(lines) * 1e3
        v[f"polar.lines.count.{s}"] = largest(lines, "items")
        v[f"polar.cache_mb.{s}"] = (largest(pts, "nbytes") + largest(lines, "nbytes") + largest(gen, "nbytes")) / 1e6
        v[f"pluecker.build_system.self_ms.{s}"] = total(gen, "self") * 1e3
        checks = [r for r in sel("linalg.rank", s) if r["parent_name"] == "pluecker.build_system"]
        v[f"linalg.rank.ms.{s}"] = total(checks) * 1e3
    v["linalg.rank.calls"] = len(sel("linalg.rank"))
    v["linalg.kernel.calls"] = len(sel("linalg.kernel"))
    for f in LINALG:
        v[f"linalg.{f}.self_s"] = total(sel(f"linalg.{f}"), "self")
    for s in ROUTES_SIZES:
        pairs = sel("polar.orthogonal_point_pairs", s)
        v[f"polar.orthogonal_point_pairs.ms.{s}"] = total(pairs) * 1e3
        v[f"polar.orthogonal_point_pairs.pairs.{s}"] = largest(pairs, "items")
        for f in ("code.weight_direct", "code.weight_recursive", "classify.classify_points"):
            rs = sel(f, s)
            v[f"{f}.p50_ms.{s}"] = p50(rs) * 1e3
            v[f"{f}.tail_ms.{s}"] = tail([r["dur"] for r in rs])[0] * 1e3
        pw = sel("code.point_weights", s)
        v[f"code.point_weights.p50_ms.{s}"] = p50(pw) * 1e3
        v[f"code.point_weights.calls.{s}"] = len(pw)
        for f in ("classify.point_classes", "classify.fixed_point_count", "polar.radical_profile"):
            v[f"{f}.self_ms.{s}"] = total(sel(f, s), "self") * 1e3
    for s in EXHAUSTIVE_SIZES:
        scans = sel("code.spectrum", s, "exhaustive")
        v[f"code.spectrum.exhaustive.s.{s}"] = total(scans)
        v[f"code.spectrum.exhaustive.self_s.{s}"] = total(scans, "self")
        v[f"code.form_from_index.calls.{s}"] = len(sel("code.form_from_index", s))
        v[f"code.spectrum.min_forms.{s}"] = counts.get(f"code.spectrum.min_forms.{s}", 0)
    for s in SAMPLE_SIZES:
        scans = sel("code.spectrum", s, "sample")
        forms = total(scans, "items")
        v[f"code.spectrum.sample.us_per_form.{s}"] = total(scans) / forms * 1e6 if forms else 0.0
    for s in dict.fromkeys(EXHAUSTIVE_SIZES + SAMPLE_SIZES):
        scans = sel("code.spectrum", s)
        v[f"code.spectrum.forms.{s}"] = total(scans, "items")
        # Computed size of the q^2 x K x N product table a scan builds.
        m, q = (int(x) for x in s[1:].split("q"))
        n = largest(sel("pluecker.build_system", s), "items")
        v[f"code.spectrum.table_mb.{s}"] = q * q * (m * (m - 1) // 2) * n / 1e6 if scans else 0.0
    for c in CLI_COMMANDS:
        rec = commands.get(c, {})
        v[f"cli.{c}.s"] = rec.get("s", 0.0)
        v[f"cli.{c}.out_bytes"] = rec.get("out_bytes", 0)
        v[f"cli.{c}.maxrss_mb"] = rec.get("maxrss_mb", 0.0)
    v["trace.overhead_s"] = overhead_s
    v["trace.spans"] = len(rows)
    return v
