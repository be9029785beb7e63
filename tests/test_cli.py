import contextlib
import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermgrass as hg
from hermgrass import cli, code, linalg, polar


def test_params_table_contains_expected_row(capsys):
    assert cli.run(["params", "-m", "4..8", "-q", "2"]) == 0
    out = capsys.readouterr().out
    assert "5, 2, 297, 10, 192" in out
    assert "7, 2, 89397, 21, 61440" in out


def test_params_json(tmp_path):
    path = tmp_path / "params.json"
    assert cli.run(["params", "-m", "4", "-q", "3", "--format", "json", "--out", str(path)]) == 0
    rows = json.loads(path.read_text())
    assert rows == [{"K": 6, "N": 112, "d_min": 72, "m": 4, "q": 3}]


def test_points_lines_genmat(tmp_path):
    pts = tmp_path / "points.csv"
    lns = tmp_path / "lines.csv"
    gm = tmp_path / "genmat.txt"
    assert cli.run(["points", "-m", "4", "-q", "2", "--out", str(pts)]) == 0
    assert cli.run(["lines", "-m", "4", "-q", "2", "--out", str(lns)]) == 0
    assert cli.run(["genmat", "-m", "4", "-q", "2", "--out", str(gm)]) == 0
    assert len(pts.read_text().splitlines()) == 46
    assert len(lns.read_text().splitlines()) == 28
    header = gm.read_text().splitlines()[0]
    assert header == "4 2 1 27 6"


def test_weight_and_classify(tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text('{"m": 4, "p": 2, "e": 1, "upper": [1, 0, 0, 0, 0, 0]}\n')
    assert cli.run(["weight", "--form", str(form), "-q", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True
    assert payload["weight_direct"] == payload["weight_recursive"]
    out = tmp_path / "report.json"
    assert cli.run(["classify", "--form", str(form), "-q", "2", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    for key in ("A", "B", "C", "radDim", "profile", "fixCount", "weightFromABC", "weightDirect"):
        assert key in rep
    assert rep["weightFromABC"] == rep["weightDirect"]
    assert rep["checks"]["conservation"] is True


@pytest.mark.parametrize("command, m", [("lines", 6), ("points", 8)])
def test_json_rows_written_in_blocks_match_one_dump(tmp_path, command, m):
    # 6237 lines of 12 codes and 10 965 points of 8 codes each span more
    # than one block of the writer
    out = tmp_path / "rows.json"
    assert cli.run([command, "-m", str(m), "-q", "2", "--format", "json", "--out", str(out)]) == 0
    space = polar.HermitianSpace(m, hg.make_field(2, 1))
    pts = space.points()
    if command == "lines":
        a, b = space.line_pair_indices()
        rows = np.stack([pts[a], pts[b]], axis=1)
    else:
        rows = pts
    assert len(rows) * rows[0].size > linalg.DOT_BLOCK
    payload = {"m": m, "p": 2, "e": 1, command: rows.tolist()}
    assert out.read_text() == json.dumps(payload, sort_keys=True) + "\n"


def test_weight_and_classify_of_the_zero_form(tmp_path, capsys):
    form = tmp_path / "zero.json"
    form.write_text('{"m": 4, "p": 2, "e": 1, "upper": [0, 0, 0, 0, 0, 0]}\n')
    assert cli.run(["weight", "--form", str(form), "-q", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    routes = ("weight_direct", "weight_recursive", "weight_from_counts")
    assert [payload[r] for r in routes] == [0, 0, 0] and payload["agree"] is True
    assert cli.run(["classify", "--form", str(form), "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the zero form has no classification report"]


def test_spectrum_outputs_are_byte_identical(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    base = ["spectrum", "-m", "4", "-q", "2", "--exhaustive", "--jobs", "1"]
    assert cli.run(base + ["--out", str(out1)]) == 0
    assert cli.run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "s1.csv.meta.json").read_bytes() == (tmp_path / "s2.csv.meta.json").read_bytes()
    meta = json.loads((tmp_path / "s1.csv.meta.json").read_text())
    assert meta["mode"] == "exhaustive" and meta["forms_scanned"] == 4096
    rows = out1.read_text().splitlines()
    assert rows[0] == "weight,count" and rows[1] == "0,1"


def test_spectrum_sample_seeded(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    base = ["spectrum", "-m", "4", "-q", "2", "--sample", "400", "--seed", "9", "--format", "json"]
    assert cli.run(base + ["--out", str(out1)]) == 0
    assert cli.run(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["meta"]["seed"] == 9 and data["meta"]["forms_scanned"] == 400


def test_bounds_csv(capsys):
    assert cli.run(["bounds", "-m", "6", "-q", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "i,xi,muMax,dLower"
    assert out[3].startswith("3,189,0,")


def test_min_word_exhaustive(tmp_path):
    out = tmp_path / "mw.json"
    assert cli.run(["min-word", "-m", "4", "-q", "2", "--exhaustive", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["d_min"] == 12
    assert data["certificate"]["strategy"] == "exhaustive"


def test_min_word_constructed(tmp_path):
    out = tmp_path / "mw.json"
    args = ["min-word", "-m", "5", "-q", "2", "--construct", "--samples", "2000", "--out", str(out)]
    assert cli.run(args) == 0
    data = json.loads(out.read_text())
    assert data["d_min"] == 192
    assert data["certificate"]["witness_kind"] == "rank2-cone"
    assert data["certificate"]["seed"] == 1


def test_verify_passes_at_42(capsys):
    assert cli.run(["verify", "-m", "4", "-q", "2", "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert "PASS point count" in out
    assert "FAIL" not in out


def test_verify_reports_failures(monkeypatch, capsys):
    def fake_checks(space, seed, samples, budget, jobs):
        yield ("doomed", False, "synthetic failure")

    monkeypatch.setattr(cli, "_verify_checks", fake_checks)
    assert cli.run(["verify", "-m", "4", "-q", "2"]) == 1
    assert "FAIL doomed" in capsys.readouterr().out


def test_verify_reports_a_wrong_witness_weight(monkeypatch, capsys):
    # the witness constructors leave the weight to verify, which reports a
    # mismatch as one FAIL line and runs the checks after it
    monkeypatch.setattr(cli.classify, "rank2_cone_weight", lambda m, q: 0)
    assert cli.run(["verify", "-m", "5", "-q", "2", "--samples", "2", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "FAIL rank-2 cone witness: weight 192" in lines
    later = lines[lines.index("FAIL rank-2 cone witness: weight 192") + 1 :]
    assert [line.split(":")[0] for line in later] == [
        "PASS minimum-word profile (rank-2)",
        "PASS exhaustive minimum distance",
        "PASS exhaustive (5,2) spectrum",
    ]


def test_verify_reports_a_witness_below_the_minimum(monkeypatch, capsys):
    # a witness whose weight is not d_min fails its profile line instead of
    # stopping verify before the exhaustive checks
    def e0_e1(space):
        s = np.zeros((space.m, space.m), dtype=np.uint8)
        s[0, 1], s[1, 0] = 1, space.ctx.neg[1]
        return code.AlternatingForm(space.ctx, s)

    monkeypatch.setattr(cli.classify, "make_rank2_cone_form", e0_e1)
    assert cli.run(["verify", "-m", "5", "-q", "2", "--samples", "2", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert "FAIL rank-2 cone witness: weight 216" in lines
    later = lines[lines.index("FAIL rank-2 cone witness: weight 216") + 1 :]
    assert later[0] == "FAIL minimum-word profile (rank-2): weight 216 is not d_min = 192"
    assert [line.split(":")[0] for line in later[1:]] == [
        "PASS exhaustive minimum distance",
        "PASS exhaustive (5,2) spectrum",
    ]


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli.run(["no-such-command"]) == 2
    assert cli.run(["points", "-m", "4"]) == 2  # no field given
    assert cli.run(["spectrum", "-m", "6", "-q", "2", "--exhaustive", "--budget", "100"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert cli.run(["weight", "--form", str(bad), "-q", "2"]) == 2
    missing = tmp_path / "nope.json"
    assert cli.run(["weight", "--form", str(missing), "-q", "2"]) == 2
    assert cli.run(["params", "-m", "4..8", "-q", "2", "-p", "2"]) == 2
    assert cli.run(["spectrum", "-m", "4", "-q", "2", "--exhaustive", "--budget", "0"]) == 2
    assert cli.run(["spectrum", "-m", "4", "-q", "2", "--sample", "-3"]) == 2
    assert cli.run(["min-word", "-m", "4", "-q", "2", "--jobs", "0"]) == 2
    # genmat, classify and min-word write one format and take no --format
    assert cli.run(["genmat", "-m", "4", "-q", "2", "--format", "csv"]) == 2
    assert cli.run(["classify", "--form", str(bad), "-q", "2", "--format", "json"]) == 2
    assert cli.run(["min-word", "-m", "4", "-q", "2", "--format", "json"]) == 2


def test_prime_power_shorthand(capsys):
    assert cli.run(["params", "-m", "4", "-q", "4"]) == 0
    out = capsys.readouterr().out
    assert "4, 4," in out
    assert cli.run(["params", "-m", "4", "-q", "6"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "-m", "4", "-q", "1000000000000000003"],
        ["params", "-m", "4", "-p", "2", "-e", "100000000"],
    ],
    ids=["q", "p-e"],
)
def test_oversized_field_exits_2_at_once(capsys, argv):
    # rejected before any trial division of q or p and before p**e
    started = time.perf_counter()
    assert cli.run(argv) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


@pytest.mark.parametrize("command", ["weight", "classify"])
@pytest.mark.parametrize(
    "text",
    [
        '{"m": 4, "p": 2, "e": 1, "upper": 5}',
        '{"m": 4, "p": 2, "e": 1, "upper": [true, 0, 0, 0, 0, 0]}',
        '{"m": null, "p": 2, "e": 1, "upper": [0, 0, 0, 0, 0, 0]}',
        '[4, 2, 1]',
        "5",
    ],
    ids=["upper-int", "upper-bool", "m-null", "list", "number"],
)
def test_malformed_form_file_exits_2(tmp_path, capsys, command, text):
    form = tmp_path / "form.json"
    form.write_text(text + "\n")
    assert cli.run([command, "--form", str(form), "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed form file")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "-m", "4", "-q", "2", "--samples", "0"],
        ["min-word", "-m", "4", "-q", "2", "--construct", "--samples", "0"],
        ["spectrum", "-m", "4", "-q", "2", "--sample", "0"],
    ],
    ids=["verify", "min-word", "spectrum"],
)
def test_zero_sample_count_exits_2(capsys, argv):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: sample count must be positive"]


@pytest.mark.parametrize("m", ["1", "2", "3"])
def test_bounds_below_m4_exits_2(capsys, m):
    assert cli.run(["bounds", "-m", m, "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the line code requires m >= 4"]


def test_points_beyond_physical_memory_exits_2(capsys, monkeypatch):
    # (6,2) has 1365 points of 6 bytes; a tiny figure of available
    # memory stands in for a table too large for the machine, so nothing
    # big is allocated
    monkeypatch.setattr(polar, "_available_memory", lambda: 8000)
    assert cli.run(["points", "-m", "6", "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the point table of PG(5, 4) needs 8190 bytes,"
        " more than the 8000 bytes of available memory"
    ]


def test_isotropic_points_beyond_physical_memory_exits_2(capsys, monkeypatch):
    # at (6,2) the 8190-byte point table fits in 10000 bytes, but with the
    # 693 isotropic points of 6 bytes it needs 12348
    monkeypatch.setattr(polar, "_available_memory", lambda: 10000)
    assert cli.run(["points", "-m", "6", "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the isotropic points of PG(5, 4) need 12348 bytes"
        " with the point table, more than the 10000 bytes of available memory"
    ]


def test_lines_beyond_available_memory_exits_2(capsys, monkeypatch):
    # (10,2) has 383 628 069 lines; the bound is checked before anything
    # is allocated, and a figure of available memory makes it exact here
    monkeypatch.setattr(polar, "_available_memory", lambda: 10**9)
    need = 383628069 * polar._LINE_BYTES
    assert cli.run(["lines", "-m", "10", "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: the 383628069 totally isotropic lines of PG(9, 4) need {need} bytes,"
        " more than the 1000000000 bytes of available memory"
    ]


def test_genmat_beyond_available_memory_exits_2(capsys, monkeypatch):
    # at (6,2) the 6237 lines fit in 80000 bytes, the 15 x 6237 matrix not
    monkeypatch.setattr(polar, "_available_memory", lambda: 80000)
    assert cli.run(["genmat", "-m", "6", "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the 15 x 6237 generator matrix needs 93555 bytes,"
        " more than the 80000 bytes of available memory"
    ]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def _field_order(q, p, e):
    """p^e when the flags name the field GF(p^e), p prime and e >= 1, else
    None: -q alone must be a prime power, and -p (with an optional -e)
    excludes -q."""
    if q is not None:
        powers = {b**k for b in range(2, q + 1) if _is_prime(b) for k in range(1, q)}
        return q if p is None and e is None and q in powers else None
    if p is None or not _is_prime(p) or (e is not None and e < 1):
        return None
    return p ** (1 if e is None else e)


flag = st.one_of(st.none(), st.integers(-3, 20))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(["params", "bounds"]), flag, flag, st.one_of(st.none(), st.integers(-2, 6)))
def test_field_flags_exit_0_or_2(command, q, p, e):
    argv = [command, "-m", "4", "--format", "json"]
    for name, value in (("-q", q), ("-p", p), ("-e", e)):
        if value is not None:
            argv += [name, str(value)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    want = _field_order(q, p, e)
    if want is None:
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert code == 0
        data = json.loads(out.getvalue())
        got = [row["q"] for row in data] if command == "params" else [data["q"]]
        assert got == [want]
