"""hermgrass benchmark: run one workload, check every output, print its metrics.

    python3 hgbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hgbench/run.py --self-test
    python3 hgbench/run.py --record-golden

Run it from anywhere inside a checkout; it finds the package in the
checkout's src/ and writes only to .hgbench_out/ at the checkout root.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones (setup_s, pass_s, peak_rss_mb); with --trace 1 they are
the per-layer ones of layers.NAMES.  README.md in this directory
defines each workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".hgbench_out")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("geometry", "routes", "spectrum", "sample", "cli")
# Cold set-up-only processes per run, besides the measuring process;
# geometry is all set-up and runs at least MIN_GEOMETRY processes.
SETUP_PROCESSES = {"routes": 2, "spectrum": 6, "sample": 2}
MIN_GEOMETRY = 3
# Fixed passes of a traced run, so its counts repeat exactly; routes
# runs 10 passes, 20 forms at (5,3).
TRACE_PASSES = {"geometry": 0, "routes": 10, "spectrum": 1, "sample": 1}
CLI_SETUP_RUNS = 11
MIN_SESSIONS = 2
CLI_SAMPLES = 20000
CHILD_TIMEOUT_S = 150
# Library workloads are the single-threaded baseline, numpy's BLAS included.
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Commands whose output does not depend on the seed; their bytes are
# compared with the golden sha256 recorded in golden.json.
SEED_FREE = ("params", "points", "lines", "genmat", "bounds", "verify")


def load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json")) as f:
        return json.load(f)


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy asks for transparent huge pages on large arrays; whether the
    # host has them free changes from minute to minute, and with them
    # peak RSS on `sample` moved by 15% and its scan time by about 8%.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env.update(extra or {})
    return env


class ChildFailed(RuntimeError):
    pass


def run_worker(spec: dict) -> dict:
    """Start worker.py in a fresh interpreter; returns its result with
    ready_s (launch to set-up done) added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(SINGLE_THREADED), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = [json.loads(x) for x in (first + rest).splitlines() if x.startswith("{")]
    if proc.returncode != 0 or not lines or lines[-1].get("event") != "result":
        raise ChildFailed(f"worker {spec['workload']}/{spec['mode']} exited {proc.returncode}")
    result = lines[-1]
    if result["setup_s"] is None:
        raise ChildFailed(f"worker {spec['workload']} set-up failed: {result['failures']}")
    result["ready_s"] = ready
    return result


def run_cli(argv: list[str], trace: dict | None = None) -> dict:
    """One CLI command in a fresh interpreter: wall time, exit code,
    stdout and its own peak RSS (from wait4)."""
    if trace is None:
        cmd = [sys.executable, "-m", "hermgrass.cli", *argv]
        env = child_env()
    else:
        cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), *argv]
        env = child_env({"HGBENCH_SPANS": trace["path"], "HGBENCH_RUN": trace["run"]})
    out_path = os.path.join(OUT, "cli.stdout")
    with open(out_path, "wb") as so, open(os.path.join(OUT, "cli.stderr"), "wb") as se:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        stdout = f.read()
    return {"s": wall, "code": proc.returncode, "stdout": stdout, "maxrss_mb": usage.ru_maxrss / 1024}


# -- library workloads ---------------------------------------------------------


def worker_spec(workload, seed, mode, run_id, seconds=0.0, passes=None, trace_path=None) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "seconds": seconds,
        "passes": passes,
        "trace_path": trace_path,
        "run_id": run_id,
    }


def library_untraced(workload, seed, seconds, run_id, ledger) -> tuple[dict, dict]:
    """Times are scaled to the nominal speed with every reference sample
    the run's processes took (see reference.py)."""
    setups, readies, rss, refs, passes, forms_per_pass = [], [], [], [], [], 0

    def start(mode, **kw):
        r = run_worker(worker_spec(workload, seed, mode, run_id, **kw))
        ledger.merge(r)
        setups.append(r["setup_s"])
        readies.append(r["ready_s"])
        rss.append(r["maxrss_mb"])
        refs.extend(r["refs"])
        return r

    t0 = perf_counter()
    if workload == "geometry":
        while len(setups) < MIN_GEOMETRY or perf_counter() - t0 < seconds:
            start("setup")
        raw_pass = statistics.median(readies)
        peak = statistics.median(rss)
    else:
        for _ in range(SETUP_PROCESSES[workload]):
            start("setup")
        r = start("run", seconds=seconds)
        passes = r["passes"]
        raw_pass = statistics.median(passes)
        peak = r["maxrss_mb"]
        forms_per_pass = r["forms_per_pass"]
    scale = reference.scale(refs)
    raw_setup = statistics.median(setups)
    metrics = {
        "setup_s": (raw_setup * scale, "s"),
        "pass_s": (raw_pass * scale, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, {
        "raw_setup_s": raw_setup,
        "raw_pass_s": raw_pass,
        "scale": scale,
        "reference_samples": len(refs),
        "setup_samples": setups,
        "pass_samples": passes or readies,
        "rss_samples": rss,
        "forms_per_pass": forms_per_pass,
    }


def library_traced(workload, seed, run_id, ledger) -> tuple[dict, dict]:
    passes = TRACE_PASSES[workload]
    plain = run_worker(worker_spec(workload, seed, "run", run_id, passes=passes))
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    traced = run_worker(worker_spec(workload, seed, "run", run_id, passes=passes, trace_path=path))
    ledger.merge(plain)
    ledger.merge(traced)
    overhead = (traced["setup_s"] + sum(traced["passes"])) - (plain["setup_s"] + sum(plain["passes"]))
    with open(path) as f:
        doc = json.load(f)
    rows = spans.rows_of(doc)
    metrics = layers.compute(rows, traced["counts"], {}, overhead)
    doc["summary"] = spans.by_function(rows)
    doc["metrics"] = metrics
    with open(path, "w") as f:
        json.dump(doc, f)
    return metrics, {"trace_file": os.path.relpath(path, ROOT), "wrapped_functions": doc.get("wrapped")}


# -- cli workload -------------------------------------------------------------


def seeded_form(seed: int) -> dict:
    """A nonzero (5,3) form for the weight and classify commands."""
    import numpy as np

    rng = np.random.default_rng([seed, 5, 3])
    while True:
        upper = rng.integers(0, 9, size=10)
        if upper.any():
            return {"m": 5, "p": 3, "e": 1, "upper": [int(x) for x in upper]}


def session_commands(seed: int, work: str) -> list[tuple[str, list[str], list[str]]]:
    """(name, argv, output files) of the fixed CLI session."""
    form = os.path.join(work, "form.json")
    with open(form, "w") as f:
        json.dump(seeded_form(seed), f)
    p = {name: os.path.join(work, name) for name in ("points.csv", "lines.csv", "genmat.txt", "spectrum.csv")}
    return [
        ("params", ["params", "-m", "4..8", "-q", "2", "-q", "3"], []),
        ("points", ["points", "-m", "8", "-q", "2", "--out", p["points.csv"]], [p["points.csv"]]),
        ("lines", ["lines", "-m", "7", "-q", "2", "--out", p["lines.csv"]], [p["lines.csv"]]),
        ("genmat", ["genmat", "-m", "7", "-q", "2", "--out", p["genmat.txt"]], [p["genmat.txt"]]),
        ("bounds", ["bounds", "-m", "6", "-q", "2"], []),
        ("weight", ["weight", "--form", form, "-q", "3"], []),
        ("classify", ["classify", "--form", form, "-q", "3"], []),
        (
            "spectrum",
            ["spectrum", "-m", "6", "-q", "2", "--sample", str(CLI_SAMPLES), "--seed", str(seed)]
            + ["--out", p["spectrum.csv"]],
            [p["spectrum.csv"], p["spectrum.csv"] + ".meta.json"],
        ),
        ("verify", ["verify", "-m", "5", "-q", "2"], []),
    ]


def output_digest(stdout: bytes, files: list[str]) -> tuple[str, int]:
    h = hashlib.sha256(stdout)
    size = len(stdout)
    for path in files:
        with open(path, "rb") as f:
            data = f.read()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def cli_problems(name: str, rec: dict, digest: str, seed: int, golden: dict, seen: dict) -> list[str]:
    """Exit code, golden bytes, and the seed-dependent outputs' checks."""
    problems: list[str] = []
    checks.expect(problems, rec["code"] == 0, f"{name} exited {rec['code']}")
    if name in SEED_FREE:
        want = golden.get(name)
        checks.expect(problems, digest == want, f"{name} output sha256 {digest} != golden {want}")
        return problems
    text = rec["stdout"].decode()
    if name == "weight":
        rows = dict(line.split(",") for line in text.splitlines()[1:])
        ws = {int(rows[k]) for k in ("direct", "recursive", "from_counts")}
        checks.expect(problems, len(ws) == 1, f"weight routes disagree: {rows}")
        w = min(ws)
        checks.expect(problems, checks.d_min(5, 3) <= w <= checks.line_count(5, 3), f"weight {w} outside [d_min, N]")
        seen["weight"] = w
    elif name == "classify":
        rep = json.loads(text)
        checks.expect(problems, all(rep["checks"].values()), f"classify checks {rep['checks']}")
        checks.expect(problems, rep["weightFromABC"] == rep["weightDirect"] == seen.get("weight"), "classify weight")
        total = rep["A"] + rep["B"] + rep["C"]
        checks.expect(problems, total == 8 * checks.isotropic_point_count(5, 3), f"A+B+C = {total}")
    elif name == "spectrum":
        work = os.path.join(OUT, "cli")
        with open(os.path.join(work, "spectrum.csv")) as f:
            hist = {int(w): int(c) for w, c in (line.split(",") for line in f.read().splitlines()[1:])}
        with open(os.path.join(work, "spectrum.csv.meta.json")) as f:
            meta = json.load(f)
        problems += checks.sample_problems(
            hist, meta["forms_scanned"], CLI_SAMPLES, seed, meta["seed"], meta["min_nonzero_weight"], 6, 2
        )
    return problems


def cli_session(seed: int, ledger, trace_run=None) -> tuple[dict, list[str]]:
    """Run the session once; returns per-command records and span files."""
    work = os.path.join(OUT, "cli")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    golden = load_golden()["cli"]
    records, span_files, seen = {}, [], {}
    for name, argv, files in session_commands(seed, work):
        trace = None
        if trace_run is not None:
            trace = {"path": os.path.join(OUT, f"trace-cli-{name}.json"), "run": trace_run}
            span_files.append(trace["path"])
        rec = run_cli(argv, trace)

        def check(name=name, rec=rec, files=files):
            digest, size = output_digest(rec["stdout"], files)
            return (digest, size), cli_problems(name, rec, digest, seed, golden, seen)

        digest, size = ledger.run(f"cli {name}", check) or (None, 0)
        records[name] = {"s": rec["s"], "out_bytes": size, "maxrss_mb": rec["maxrss_mb"], "sha256": digest}
    return records, span_files


def cli_untraced(seed, seconds, ledger) -> tuple[dict, dict]:
    """Times are as measured: a reference timed in this process between
    commands followed their speed worse than no reference (README.md)."""
    setups = []
    for _ in range(CLI_SETUP_RUNS):
        rec = run_cli(["params", "-m", "4", "-q", "2"])
        ledger.record("cli params -m 4", [] if rec["code"] == 0 else [f"exited {rec['code']}"])
        setups.append(rec["s"])
    sessions, rss = [], []
    t0 = perf_counter()
    while len(sessions) < MIN_SESSIONS or perf_counter() - t0 < seconds:
        records, _ = cli_session(seed, ledger)
        sessions.append(sum(r["s"] for r in records.values()))
        rss.append(max(r["maxrss_mb"] for r in records.values()))
    raw_setup, raw_pass = statistics.median(setups), statistics.median(sessions)
    metrics = {
        "setup_s": (raw_setup, "s"),
        "pass_s": (raw_pass, "s"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    return metrics, {
        "raw_setup_s": raw_setup,
        "raw_pass_s": raw_pass,
        "session_s": raw_pass,
        "setup_samples": setups,
        "pass_samples": sessions,
        "commands": records,
    }


def cli_traced(seed, run_id, ledger) -> tuple[dict, dict]:
    plain, _ = cli_session(seed, ledger)
    traced, files = cli_session(seed, ledger, trace_run=run_id)
    overhead = sum(r["s"] for r in traced.values()) - sum(r["s"] for r in plain.values())
    rows = []
    for path in files:
        with open(path) as f:
            rows += spans.rows_of(json.load(f))
    metrics = layers.compute(rows, {}, plain, overhead)
    summary = {"run": run_id, "span_files": [os.path.relpath(p, ROOT) for p in files]}
    summary["summary"] = spans.by_function(rows)
    summary["metrics"] = metrics
    path = os.path.join(OUT, f"trace-cli-seed{seed}.json")
    with open(path, "w") as f:
        json.dump(summary, f)
    return metrics, {"trace_file": os.path.relpath(path, ROOT), "commands": plain}


# -- entry points -------------------------------------------------------------


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# Rates per workload: the forms in one pass divided by the pass time.
RATES = {"routes": "checked_forms_per_s", "spectrum": "exhaustive_forms_per_s", "sample": "sample_forms_per_s"}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    os.makedirs(OUT, exist_ok=True)
    ledger = checks.Ledger()
    run_id = f"{workload}-seed{seed}-{time.time_ns()}"
    if trace:
        if workload == "cli":
            values, detail = cli_traced(seed, run_id, ledger)
        else:
            values, detail = library_traced(workload, seed, run_id, ledger)
        metrics = {k: (v, layers.NAMES[k]) for k, v in values.items()}
    elif workload == "cli":
        metrics, detail = cli_untraced(seed, seconds, ledger)
    else:
        metrics, detail = library_untraced(workload, seed, seconds, run_id, ledger)
    detail.update(
        {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "run": run_id,
            "env": environment(),
            "failed_ratio": ledger.failed / max(ledger.attempted, 1),
            "failures": ledger.failures,
        }
    )
    if not trace and workload in RATES:
        detail[RATES[workload]] = detail["forms_per_pass"] / detail["raw_pass_s"]
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def record_golden() -> int:
    """Write golden.json from the code as it is now."""
    os.makedirs(OUT, exist_ok=True)
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(worker_spec("golden", 1, "golden", "golden"))],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    golden = json.loads(r.stdout.splitlines()[-1])
    work = os.path.join(OUT, "cli")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    golden["cli"] = {}
    for name, argv, files in session_commands(1, work):
        if name in SEED_FREE:
            rec = run_cli(argv)
            if rec["code"] != 0:
                print(f"error: {name} exited {rec['code']}", file=sys.stderr)
                return 1
            golden["cli"][name] = output_digest(rec["stdout"], files)[0]
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def self_test() -> int:
    """Checks that the gates fire, and that traced counts repeat exactly."""
    os.makedirs(OUT, exist_ok=True)
    golden = load_golden()
    failures = []

    def gate(label, problems, want_fail):
        ledger = checks.Ledger()
        ledger.record(label, problems)
        ratio = ledger.failed / ledger.attempted
        if (ratio > 0) != want_fail:
            failures.append(f"{label}: failed_ratio {ratio}, expected {'> 0' if want_fail else '0'}")
        print(f"self-test {label}: failed_ratio {ratio}", file=sys.stderr)

    g52 = golden["spectrum"]["m5q2"]
    hist = {int(w): c for w, c in g52["histogram"].items()}
    rd = {int(d): c for d, c in g52["radical_dims"].items()}
    gate("golden (5,2) histogram", checks.exhaustive_problems(hist, 192, rd, 5, 2, g52), False)
    tampered = dict(hist)
    tampered[192] -= 1
    tampered[200] = 1
    gate("tampered (5,2) histogram", checks.exhaustive_problems(tampered, 192, rd, 5, 2, g52), True)
    gate("tampered histogram, golden ignored", checks.exhaustive_problems(tampered, 192, rd, 5, 2, None), True)

    work = os.path.join(OUT, "cli")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    name, argv, files = session_commands(1, work)[0]
    rec = run_cli(argv)
    digest, _ = output_digest(rec["stdout"], files)
    gate("params against golden sha256", cli_problems(name, rec, digest, 1, golden["cli"], {}), False)
    wrong = dict(golden["cli"], params="0" * 64)
    gate("params against a wrong sha256", cli_problems(name, rec, digest, 1, wrong, {}), True)

    exact_units = {"count", "bytes", "MB-computed"}
    for workload in WORKLOADS:
        runs = [run_workload(workload, 1, 0, 1)[0] for _ in range(2)]
        for r in runs:
            if r["failed"]:
                failures.append(f"{workload}: traced run failed {r['failed']} of {r['attempted']}")
        a, b = (r["metrics"] for r in runs)
        exact = [k for k, m in a.items() if m["unit"] in exact_units]
        diff = [k for k in exact if a[k]["value"] != b[k]["value"]]
        if diff:
            failures.append(f"{workload}: counts differ between runs: {diff}")
        print(f"self-test {workload}: {len(exact)} exact counts, {len(diff)} differ", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    if per_layer != layers.NAMES:
        failures.append("BENCHMARK.json per_layer names or units differ from layers.NAMES")
    for line in failures:
        print(f"SELF-TEST FAIL {line}", file=sys.stderr)
    print("self-test " + ("failed" if failures else "passed"), file=sys.stderr)
    return 1 if failures else 0


def checkout_problem() -> str | None:
    for rel in ("src/hermgrass/__init__.py", "src/hermgrass/cli.py"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            return f"{rel} is missing: run this from a hermgrass checkout"
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (ChildFailed, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"result": result, "detail": detail}, f, indent=1, default=str)
    ratio = detail["failed_ratio"]
    print(f"{args.workload} seed {args.seed}: failed_ratio {ratio} ({result['failed']}/{result['attempted']})", file=sys.stderr)
    for key in ("raw_setup_s", "raw_pass_s", "checked_forms_per_s", "exhaustive_forms_per_s", "sample_forms_per_s"):
        if key in detail:
            print(f"  {key} = {detail[key]:.6g}", file=sys.stderr)
    for line in detail["failures"][:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(f"  env {detail['env']}; details in {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
