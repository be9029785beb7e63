import hashlib
import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "scan_times.py"


def test_scan_times_prints_one_json_line_per_run():
    out = subprocess.run(
        [sys.executable, str(_TOOL), "--runs", "2", "--forms", "50", "4,2"],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["m"], r["q"], r["forms"]) for r in rows] == [(4, 2, 50)] * 2
    for r in rows:
        assert r["cold_ms"] > 0 and r["warm_ms"] > 0
        assert all(isinstance(r[f"{scan}_minflt"], int) and r[f"{scan}_minflt"] >= 0 for scan in ("cold", "warm"))


def test_scan_times_exhaustive_prints_forms_scanned_and_histogram_hash():
    out = subprocess.run(
        [sys.executable, str(_TOOL), "--runs", "2", "--exhaustive", "4,2"],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    # (4,2): 15 two-row prefixes of 4 forms; the histogram of all 4^6 forms
    want = {0: 1, 12: 108, 16: 81, 18: 720, 20: 1620, 22: 1296, 24: 270}
    digest = hashlib.sha256(json.dumps(sorted(want.items())).encode()).hexdigest()
    assert [(r["m"], r["q"], r["jobs"], r["scanned"]) for r in rows] == [(4, 2, 1, 60)] * 2
    for r in rows:
        assert r["label_ms"] > 0 and r["cold_ms"] > 0 and r["warm_ms"] > 0 and r["maxrss_mb"] > 0
        assert r["workers_maxrss_mb"] >= 0 and r["histogram_sha256"] == digest
