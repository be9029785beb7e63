import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "route_times.py"


def test_route_times_prints_one_json_line_per_run():
    out = subprocess.run(
        [sys.executable, str(_TOOL), "--runs", "2", "--forms", "3", "4,2"],
        check=True, capture_output=True, text=True, timeout=120,
    ).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["m"], r["q"], r["forms"]) for r in rows] == [(4, 2, 3)] * 2
    for r in rows:
        names = ("direct", "recursive", "point_weights", "classify", "point_classes", "streamed", "sequence")
        assert all(r[f"{name}_ms"] > 0 for name in names)
