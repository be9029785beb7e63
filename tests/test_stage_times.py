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
        # an interpreter with numpy imported peaks above 10 MB
        assert 10 < r["build_rss_mb"] < 1000


def test_every_child_runs_without_huge_page_advice(monkeypatch):
    sys.path.insert(0, str(_TOOL.parent))
    try:
        import stage_times
    finally:
        sys.path.remove(str(_TOOL.parent))
    envs = []

    def fake_run(cmd, env, **kwargs):
        envs.append(env)
        return subprocess.CompletedProcess(cmd, 0, stdout="{}\n")

    monkeypatch.setattr(stage_times.subprocess, "run", fake_run)
    monkeypatch.setenv("NUMPY_MADVISE_HUGEPAGE", "1")
    assert stage_times.run_fresh(["--runs", "2", "4,2", "5,3"], str(_TOOL), stage_times._child, []) == 0
    assert len(envs) == 4 and all(env["NUMPY_MADVISE_HUGEPAGE"] == "0" for env in envs)
