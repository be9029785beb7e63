import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_times.py"


def test_stage_times_prints_one_json_line_per_run():
    out = subprocess.run(
        [sys.executable, str(_TOOL), "--runs", "2", "4,2", "4,3"],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["m"], r["q"], r["n"]) for r in rows] == [(4, 2, 27)] * 2 + [(4, 3, 112)] * 2
    for r in rows:
        assert all(r[k] >= 0 for k in ("points_ms", "lines_ms", "fill_ms", "rank_ms"))
        assert r["rank_ms"] > 0 and r["sections_ms"] > 0
