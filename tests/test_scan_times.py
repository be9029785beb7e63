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
