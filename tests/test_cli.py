import contextlib
import dataclasses
import functools
import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import hermgrass as hg
from hermgrass import classify, cli, code, counts, linalg, pluecker, polar


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


def test_csv_writers(space42, capsys):
    assert cli.run(["points", "-m", "4", "-q", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# points m=4 p=2 e=1 count=45"
    assert len(lines) == 46
    first = [int(x) for x in lines[1].split(",")]
    assert first == [int(x) for x in space42.points()[0]]
    assert cli.run(["lines", "-m", "4", "-q", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# lines m=4 p=2 e=1 count=27"
    assert len(lines) == 28
    assert len(lines[1].split(",")) == 8


def test_genmat_format(system42, capsys):
    assert cli.run(["genmat", "-m", "4", "-q", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 2 1 27 6"
    assert len(lines) == 7
    row = [int(x) for x in lines[1].split()]
    assert row == [int(x) for x in system42.matrix[0]]


class _CountingWriter(io.StringIO):
    """A text buffer that counts its write calls."""

    writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def _join_rows(rows, sep):
    """The test's own lines of text: one str.join per row.  Lines, not one
    string, so that a failure reports the first differing line."""
    return [sep.join(map(str, r)) + "\n" for r in rows.tolist()]


@functools.cache
def _tables(m, p, e):
    """The space of V(m, q^2), q = p^e, with its points, lines and
    generator built (and cached on it) before any test shrinks
    DOT_BLOCK, and the rows of each table: a line is the pair of its
    basis rows."""
    space = hg.HermitianSpace(m, hg.make_field(p, e))
    pts = space.points()
    a_idx, b_idx = space.line_pair_indices()
    rows = {
        "points": pts,
        "lines": np.stack([pts[a_idx], pts[b_idx]], axis=1),
        "genmat": hg.build_system(space).matrix,
    }
    return space, rows


def _run_table(monkeypatch, tmp_path, argv):
    """stdout of ``cli.run(argv)`` in a counting buffer, after checking
    that ``--out`` writes the same text."""
    out = tmp_path / "table.out"
    assert cli.run([*argv, "--out", str(out)]) == 0
    buf = _CountingWriter()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", buf)
        assert cli.run(argv) == 0
    assert out.read_text() == buf.getvalue()
    return buf


@pytest.mark.parametrize("dot_block", [None, 40], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("m,p,e", [(4, 2, 1), (5, 3, 1), (4, 2, 2), (4, 2, 3)])
def test_text_writer_matches_str_join(m, p, e, dot_block, monkeypatch, tmp_path):
    # (4, 2, 2) and (4, 2, 3) are q = 4 and 8: codes up to 15 and 63.
    # DOT_BLOCK = 40 puts 10 // width rows, at least 1, in a block, so the
    # points, the lines and the generator rows each take several blocks.
    # The commands write the tables built here, from the space's caches.
    space, tables = _tables(m, p, e)
    monkeypatch.setattr(cli, "_space_for", lambda args: space)
    if dot_block is not None:
        monkeypatch.setattr(linalg, "DOT_BLOCK", dot_block)
    field = ["-m", str(m), "-q", str(p**e)]
    for name, rows in tables.items():
        flat = rows.reshape(len(rows), -1)
        blocks = -(-len(rows) // max(1, linalg.DOT_BLOCK // 4 // flat.shape[1]))
        if dot_block is not None:
            assert blocks > 1, name
        sep = " " if name == "genmat" else ","
        if name == "genmat":
            head = f"{m} {p} {e} {flat.shape[1]} {len(rows)}\n"
        else:
            head = f"# {name} m={m} p={p} e={e} count={len(rows)}\n"
        # CSV: the header, then one write per block
        buf = _run_table(monkeypatch, tmp_path, [name, *field])
        assert buf.getvalue().splitlines(keepends=True) == [head] + _join_rows(flat, sep), name
        assert buf.writes == 1 + blocks
        if name == "genmat":
            continue
        # JSON: the bytes of one json.dumps, the rows written one block at a time
        buf = _run_table(monkeypatch, tmp_path, [name, *field, "--format", "json"])
        payload = {"m": m, "p": p, "e": e, name: rows.tolist()}
        assert buf.getvalue() == json.dumps(payload, sort_keys=True) + "\n", name
        assert buf.writes == 2 + blocks
    # the tens digit is in play exactly when q^2 > 9
    assert (max(int(rows.max()) for rows in tables.values()) >= 10) == (p**e > 3)


@pytest.mark.parametrize("cmd,m", [("points", "1"), ("lines", "3")])
def test_text_writers_of_no_rows_print_only_the_header(monkeypatch, tmp_path, cmd, m):
    # V(1, 4) has no isotropic points and V(3, 4) no totally isotropic lines
    buf = _run_table(monkeypatch, tmp_path, [cmd, "-m", m, "-q", "2"])
    assert buf.getvalue() == f"# {cmd} m={m} p=2 e=1 count=0\n"
    assert buf.writes == 1
    buf = _run_table(monkeypatch, tmp_path, [cmd, "-m", m, "-q", "2", "--format", "json"])
    assert buf.getvalue() == json.dumps({"m": int(m), "p": 2, "e": 1, cmd: []}, sort_keys=True) + "\n"
    assert buf.writes == 2


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


def test_form_json_round_trip(ctx2, tmp_path, monkeypatch, capsys):
    phi = code.AlternatingForm.from_upper(ctx2, 5, np.arange(10, dtype=np.uint8) % 4)
    form = tmp_path / "form.json"
    with open(form, "w") as f:
        json.dump({"m": 5, "p": 2, "e": 1, "upper": [int(x) for x in phi.upper()]}, f)
    read = []
    weight_recursive = code.weight_recursive
    monkeypatch.setattr(code, "weight_recursive", lambda f, s: read.append(f) or weight_recursive(f, s))
    assert cli.run(["weight", "--form", str(form), "-q", "2"]) == 0
    assert read == [phi]
    # not JSON, a missing key, an entry outside GF(4), and a field that
    # is not the one of the flags
    for text, why in (
        ("not json", "malformed form file: Expecting value: line 1 column 1 (char 0)"),
        ('{"m": 4, "p": 2, "e": 1}', "malformed form file: missing 'upper'"),
        ('{"m": 4, "p": 2, "e": 1, "upper": [9,0,0,0,0,0]}', "malformed form file: upper entries out of range"),
        ('{"m": 4, "p": 3, "e": 1, "upper": [0,0,0,0,0,0]}', "form file field does not match the requested field"),
    ):
        form.write_text(text)
        capsys.readouterr()
        assert cli.run(["weight", "--form", str(form), "-q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {why}"]


@pytest.mark.parametrize("command", ["weight", "classify"])
def test_deeply_nested_form_file_exits_2(tmp_path, capsys, command):
    # the JSON decoder gives up on nesting this deep with RecursionError
    depth = 100_000
    form = tmp_path / "deep.json"
    form.write_text('{"m": 4, "p": 2, "e": 1, "upper": ' + "[" * depth + "]" * depth + "}\n")
    assert cli.run([command, "--form", str(form), "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: malformed form file: maximum recursion depth")


@pytest.mark.parametrize("command", ["weight", "classify"])
def test_undecodable_form_files_exit_2(tmp_path, capsys, command):
    form = tmp_path / "bad.json"
    for data, why in (
        (b'{"m": 4, "p": 2, "e": 1, "upper": [0,0,0,0,0,0], "\xff": 0}', "'utf-8' codec can't decode"),
        (b'{"m": ' + b"9" * 5000 + b', "p": 2, "e": 1, "upper": []}', "an integer has too many digits"),
    ):
        form.write_bytes(data)
        capsys.readouterr()
        assert cli.run([command, "--form", str(form), "-q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: malformed form file: {why}")


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


def test_spectrum_csv_and_metadata(tmp_path, capsys):
    assert cli.run(["spectrum", "-m", "4", "-q", "2", "--exhaustive", "--jobs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "weight,count"
    assert lines[1] == "0,1"
    # to stdout the metadata follows the rows as one JSON line
    meta = json.loads(lines[-1])
    assert meta["mode"] == "exhaustive" and meta["forms_scanned"] == 4096
    assert "wall_time_s" not in meta
    out = tmp_path / "s.csv"
    assert cli.run(["spectrum", "-m", "4", "-q", "2", "--exhaustive", "--jobs", "1", "--out", str(out)]) == 0
    assert out.read_text().splitlines() == lines[:-1]
    assert json.loads((tmp_path / "s.csv.meta.json").read_text()) == meta


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
    assert out[3] == "3,189,0,4032"
    # the CSV rows are the JSON rows, dLower the ceiling of the exact bound
    assert cli.run(["bounds", "-m", "6", "-q", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert out[1:] == [f"{r['i']},{r['xi']},{r['muMax']},{r['dLower']}" for r in rows]


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


def _fails_with(capsys, argv, message):
    """min-word at (4,2) exits 1 with ``message`` as its one error line."""
    assert cli.run(["min-word", "-m", "4", "-q", "2", "--jobs", "1", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("flag,kind", [("--exhaustive", "exhaustive"), ("--construct", "constructed")])
def test_min_word_witness_of_wrong_weight_exits_1(capsys, monkeypatch, flag, kind):
    # a witness whose direct weight is not d fails its certification, and
    # a constructed one fails it before any form is sampled
    monkeypatch.setattr(code, "weight_direct", lambda phi, system: 13)
    scan = mock.Mock(wraps=code.spectrum)
    monkeypatch.setattr(code, "spectrum", scan)
    _fails_with(capsys, [flag], f"{kind} witness has weight 13, expected 12")
    assert [c.kwargs["mode"] for c in scan.call_args_list] == (["exhaustive"] if kind == "exhaustive" else [])


def test_min_word_sample_below_minimum_exits_1(capsys, monkeypatch):
    # a sample scan reporting a form below the closed-form d_min = 12
    scan = code.spectrum
    monkeypatch.setattr(
        code, "spectrum", lambda *a, **kw: dataclasses.replace(scan(*a, **kw), min_nonzero_weight=11)
    )
    _fails_with(capsys, ["--samples", "50"], "sampled a form below the closed-form minimum; arithmetic bug")


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


def test_verify_turns_a_failed_macwilliams_gate_into_one_error_line(monkeypatch, capsys):
    # a tampered histogram fails the exhaustive scan's MacWilliams gate,
    # which raises RuntimeError inside the library; verify prints it as
    # that check's one FAIL line and exits 1, a failed check, not a usage
    # error
    tally = code._tally

    def tampered(n, blocks):
        hist, best_w, best = tally(n, blocks)
        hist[-1] += 1
        return hist, best_w, best

    monkeypatch.setattr(code, "_tally", tampered)
    assert cli.run(["verify", "-m", "4", "-q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[-1].startswith("FAIL exhaustive minimum distance: spectrum fails MacWilliams: B_0")
    assert len(lines) == 9 and all(line.startswith("PASS ") for line in lines[:-1])


def test_verify_turns_a_failed_witness_certification_into_one_error_line(monkeypatch, capsys):
    # class sizes shifted by one vector: the permutable witness fails its
    # certification (classify._certified raises RuntimeError); both checks
    # that read the witness fail with its message, and the exhaustive
    # scan after them still runs
    sizes = classify._class_counts

    def shifted(phi, space):
        a, b, c, fixed = sizes(phi, space)
        return a + 1, b - 1, c, fixed

    monkeypatch.setattr(classify, "_class_counts", shifted)
    assert cli.run(["verify", "-m", "4", "-q", "2", "--samples", "3", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    why = "witness at m = 4, q = 2 fails _is_permutable: rank=4, A=46, B=-1"
    assert captured.out.splitlines()[-3:] == [
        f"FAIL permutable witness: {why}",
        f"FAIL minimum-word profile (permutable): {why}",
        "PASS exhaustive minimum distance: min weight 12 over 4096 forms",
    ]


def test_verify_reports_a_rank_deficient_generator_in_every_check_that_reads_it(monkeypatch, capsys):
    # three lines give a 6 x 3 generator of rank 2: build_system raises
    # RuntimeError once, and each check that reads the system fails with
    # its message
    space = hg.HermitianSpace(4, hg.make_field(2, 1))
    a, b = space.line_pair_indices()
    monkeypatch.setattr(space, "line_pair_indices", lambda: (a[:3], b[:3]))
    monkeypatch.setattr(cli, "_space_for", lambda args: space)
    assert cli.run(["verify", "-m", "4", "-q", "2", "--samples", "3", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    why = "generator matrix rank 2, expected 6"
    lines = captured.out.splitlines()
    assert lines[1:3] == ["FAIL line count: 3 totally isotropic lines", f"FAIL generator rank: {why}"]
    assert f"FAIL three weight routes + conservation + case values: {why}" in lines
    assert lines[-1] == f"FAIL exhaustive minimum distance: {why}"


def test_weight_reports_disagreeing_routes(monkeypatch, tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text('{"m": 4, "p": 2, "e": 1, "upper": [1, 0, 0, 0, 0, 0]}\n')
    monkeypatch.setattr(code, "weight_recursive", lambda phi, space: 0)
    assert cli.run(["weight", "--form", str(form), "-q", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[2] == "recursive,0"
    assert captured.err == "weight routes disagree\n"


ROUTES = "three weight routes + conservation + case values"


@pytest.mark.parametrize(
    "route,value,line",
    [
        ("weight_recursive", lambda phi, space: 0, f"{ROUTES}: disagreement at upper=["),
        ("point_weight_values", lambda m, q: (), f"{ROUTES}: per-point value outside the case set"),
        ("stratum_weight_bound", lambda m, i, q: 10**9, "per-rank lower bounds: weights >= stratum bounds"),
    ],
    ids=["routes", "case-values", "bounds"],
)
def test_verify_reports_a_failing_route(monkeypatch, capsys, route, value, line):
    monkeypatch.setattr(code if route == "weight_recursive" else counts, route, value)
    assert cli.run(["verify", "-m", "4", "-q", "2", "--samples", "3", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    fails = [x for x in captured.out.splitlines() if x.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL " + line)


def test_verify_sizes_the_generator_before_enumerating_lines(capsys, monkeypatch):
    # at (6,2) the points fit in 80000 bytes, the 23520 bytes of the
    # generator's planes and the 6237 lines not; verify refuses them
    # before it enumerates a single line
    calls = []
    monkeypatch.setattr(polar, "_available_memory", lambda: 80000)
    monkeypatch.setattr(polar.HermitianSpace, "line_pair_indices", lambda self: calls.append(self))
    assert cli.run(["verify", "-m", "6", "-q", "2", "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == "PASS point count: 693 isotropic points\n"
    assert captured.err.splitlines() == [
        "error: the 15 x 6237 generator and its lines need 98364 bytes,"
        " more than the 80000 bytes of available memory"
    ]


def test_verify_reports_a_wrong_witness_weight(monkeypatch, capsys):
    # the witness constructors leave the weight to verify, which reports a
    # mismatch as one FAIL line and runs the checks after it
    monkeypatch.setattr(counts, "rank2_cone_weight", lambda m, q: 0)
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

    monkeypatch.setattr(classify, "make_rank2_cone_form", e0_e1)
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


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "-m--", "-q", "2"],
        ["bounds", "-m=--", "-q", "2"],
        ["params", "-m", "4", "-q", "2", "-q--"],
        ["spectrum", "-m", "4", "-q", "2", "--budget=--"],
        ["spectrum", "-m", "4", "-q", "2", "--sample=--"],
    ],
    ids=["m", "m-equals", "q-append", "budget", "sample"],
)
def test_attached_double_dash_exits_2(capsys, argv):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: an option was given '--' as its value"]


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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["points", "-q", "2"],
        ["points", "-m", "4", "-p", "3"],
        ["points", "-m", "4", "-q", "x"],
        ["spectrum", "-m", "4", "-q", "2", "--seed", "seven"],
        ["points", "-m", "4", "-q", "2", "--format", "xml"],
        ["spectrum", "-m", "4", "-q", "2", "--sample", "3", "--exhaustive"],
        ["points", "-m", "4", "-q", "2", "a\nb"],
    ],
    ids=["no-command", "unknown-command", "no-m", "p", "q-text", "seed-text", "format", "exclusive", "newline"],
)
def test_argparse_errors_are_one_error_line(capsys, argv):
    # argparse's own refusals take run()'s one path: exit 2, no usage text
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["points", "--help"]])
def test_help_exits_0_on_stdout(capsys, argv):
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: hermgrass") and captured.err == ""


@pytest.mark.parametrize(
    "shift",
    [lambda a, b, c: (a + 1, b, c), lambda a, b, c: (a - 3, b + 3, c)],
    ids=["not-conserved", "not-integral"],
)
def test_inconsistent_class_counts_fail_checks_not_usage(tmp_path, capsys, monkeypatch, shift):
    # class sizes that do not add up, or add up to no integral weight, are
    # a failed check: classify and weight exit 1, verify prints FAIL
    sizes = classify._class_counts
    monkeypatch.setattr(classify, "_class_counts", lambda phi, space: (*shift(*sizes(phi, space)[:3]), sizes(phi, space)[3]))
    form = tmp_path / "form.json"
    form.write_text('{"m": 4, "p": 2, "e": 1, "upper": [1, 0, 0, 0, 0, 1]}\n')
    assert cli.run(["classify", "--form", str(form), "-q", "2"]) == 1
    rep = json.loads(capsys.readouterr().out)
    conserved = sum(shift(0, 0, 0)) == 0
    assert rep["checks"] == {"conservation": conserved, "weight_agreement": False}
    assert rep["weightFromABC"] == -1 and rep["weightDirect"] > 0
    assert cli.run(["weight", "--form", str(form), "-q", "2"]) == 1
    assert "from_counts,-1\n" in capsys.readouterr().out
    # at m = 5 the witness is a rank-2 cone form, whose certificate reads no class sizes
    assert cli.run(["verify", "-m", "5", "-q", "2", "--samples", "3", "--jobs", "1"]) == 1
    captured = capsys.readouterr()
    assert "error:" not in captured.err
    fails = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    assert fails[0].startswith("FAIL three weight routes + conservation + case values: disagreement at")


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
        ["params", "-m", "4..100000000000", "-q", "2"],
        ["params", "-m", "4..100000", "-q", "2"],
        ["params", "-m", "4..5000", "-q", "2"],
        ["bounds", "-m", "100000000", "-q", "2"],
        ["points", "-m", "100000000", "-q", "2"],
        ["spectrum", "-m", "100000000", "-q", "2", "--sample", "5"],
    ],
    ids=["q", "p-e", "params-m-1e11", "params-m-1e5", "params-m-5000", "bounds-m", "points-m", "spectrum-m"],
)
def test_oversized_field_exits_2_at_once(capsys, argv):
    # rejected before any trial division of q or p and before p**e, and
    # an m whose values would not print before any row, list or space
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
    # at (6,2) the 6237 lines fit in 80000 bytes, the lines and the 23520
    # bytes of the generator's planes not
    monkeypatch.setattr(polar, "_available_memory", lambda: 80000)
    assert cli.run(["genmat", "-m", "6", "-q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the 15 x 6237 generator and its lines need 98364 bytes,"
        " more than the 80000 bytes of available memory"
    ]


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "-m", "4", "-q", "2", "--sample", "5"], ["min-word", "-m", "4", "-q", "2", "--construct"]],
    ids=["spectrum-sample", "min-word-construct"],
)
def test_scan_tables_beyond_available_memory_exit_2(capsys, monkeypatch, argv):
    # at (4,2) the geometry and the 6 x 27 generator fit in 4351 bytes,
    # the scan kernel's 16 + 256 table rows of 16 bytes not
    space = hg.HermitianSpace(4, hg.make_field(2, 1))
    monkeypatch.setattr(cli, "_space_for", lambda args: space)
    monkeypatch.setattr(polar, "_available_memory", lambda: 4351)
    assert cli.run(argv + ["--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: the scan tables of the 6 x 27 matrix need 4352 bytes,"
        " more than the 4351 bytes of available memory"
    ]
    assert "scan_kernel" not in vars(hg.build_system(space))


@pytest.mark.parametrize("command", ["spectrum", "min-word"])
def test_exhaustive_scan_over_its_floor_is_refused_before_labelling(capsys, monkeypatch, command):
    # (5,8) scans at least 2.6e9 forms, one per orbit, over the default
    # budget: refused from the closed form, with no row labelled
    monkeypatch.setattr(code, "_orbits", mock.Mock(side_effect=AssertionError("a row was labelled")))
    assert cli.run([command, "-m", "5", "-q", "8", "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: exhaustive scan at m = 5, q = 8 exceeds budget {1 << 24} or the available memory"
    ]


@pytest.mark.parametrize("m", ["1", "2", "3"])
@pytest.mark.parametrize("command", ["spectrum", "min-word"])
def test_exhaustive_scan_below_m4_refuses_the_m(capsys, command, m):
    # the scan gate answers m < 4, and build_system then refuses the m
    assert cli.run([command, "-m", m, "-q", "2", "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the line system requires m >= 4"]


def test_exhaustive_labelling_beyond_available_memory_exits_2(capsys, monkeypatch):
    # the (4,2) system is built beforehand; labelling its 4^3 first rows
    # needs 4^3 (2 * 3 + 48) = 3456 bytes
    space = hg.HermitianSpace(4, hg.make_field(2, 1))
    hg.build_system(space)
    monkeypatch.setattr(cli, "_space_for", lambda args: space)
    monkeypatch.setattr(polar, "_available_memory", lambda: 3455)
    code._first_row_classes.cache_clear()
    code._two_row_orbits.cache_clear()
    assert cli.run(["spectrum", "-m", "4", "-q", "2", "--exhaustive"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: exhaustive scan at m = 4, q = 2 exceeds budget {1 << 24} or the available memory"
    ]


def test_verify_refuses_samples_over_budget_before_building(capsys, monkeypatch):
    # the count is refused in the flags: no space is made, let alone scanned
    monkeypatch.setattr(cli, "_space_for", mock.Mock(side_effect=AssertionError("a space was made")))
    assert cli.run(["verify", "-m", "4", "-q", "2", "--samples", "100000000000000000000"]) == 2
    assert cli.run(["verify", "-m", "4", "-q", "2", "--samples", "6", "--budget", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: sample count 1.00e+20 exceeds budget {1 << 24}",
        "error: sample count 6 exceeds budget 5",
    ]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "-m", "6", "-q", "2", "--exhaustive", "--budget", "100"],
         "exhaustive scan at m = 6, q = 2 exceeds budget 100 or the available memory"),
        (["min-word", "-m", "6", "-q", "2", "--exhaustive", "--budget", "100"],
         "exhaustive scan at m = 6, q = 2 exceeds budget 100 or the available memory"),
        (["spectrum", "-m", "4", "-q", "2", "--sample", "6", "--budget", "5"], "sample count 6 exceeds budget 5"),
        (["min-word", "-m", "4", "-q", "2", "--samples", "6", "--budget", "5"], "sample count 6 exceeds budget 5"),
    ],
    ids=["spectrum-exhaustive", "min-word-exhaustive", "spectrum-sample", "min-word-construct"],
)
def test_scans_over_budget_are_refused_before_building(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(pluecker, "build_system", mock.Mock(side_effect=AssertionError("a system was built")))
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("samples", ["101", "0"])
def test_min_word_exhaustive_ignores_samples(capsys, samples):
    # --samples belongs to the construct strategy; the exhaustive scan of
    # (4,2) scans 60 forms, within the budget of 100
    argv = ["min-word", "-m", "4", "-q", "2", "--exhaustive", "--samples", samples, "--budget", "100", "--jobs", "1"]
    assert cli.run(argv) == 0
    assert json.loads(capsys.readouterr().out)["d_min"] == 12


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, n))


def _field_order(q, p, e):
    """q when -q alone names the field GF(q), q a prime power, else None:
    the command line has no -p or -e flag, so either is refused."""
    if q is None or p is not None or e is not None:
        return None
    powers = {b**k for b in range(2, q + 1) if _is_prime(b) for k in range(1, q)}
    return q if q in powers else None


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


# Any m drawn is at most 40 or refused (m > 1187 at q = 8), so no drawn
# table is large; digit strings past int()'s 4300 and text that is no
# integer are usage errors.
m_text = st.one_of(
    (st.integers(-10, 40) | st.integers(4000, 10**30) | st.integers(-(10**30), -10)).map(str),
    st.integers(4295, 4305).map(lambda n: "9" * n),
    st.text("0123456789.-x ", min_size=1, max_size=6),
)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from(["params", "bounds"]),
    m_text | st.tuples(m_text, m_text).map("..".join),
    st.sampled_from([2, 3, 4, 8, 4294967291]),
)
def test_m_flag_exits_0_or_2(command, m, q):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # "-m<text>" keeps a leading "-" from reading as an option
        code = cli.run([command, f"-m{m}", "-q", str(q)])
    assert code in (0, 2)
    event(f"exit {code}")
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert err.getvalue() == ""


json_leaf = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.integers(-3, 6),
    st.integers(min_value=-(2**80), max_value=2**80),
)
json_value = st.recursive(
    json_leaf,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


# Near misses of each form file key, for m up to 5 and -q 2.
near_values = {
    "m": st.integers(-2, 6) | st.integers(min_value=2**63),
    "p": st.integers(-1, 5),
    "e": st.integers(-1, 3),
    "upper": st.lists(st.integers(-1, 4), max_size=12),
}


@st.composite
def form_documents(draw):
    """A JSON document for --form: any value; a form file of m up to 5
    over GF(4); or such a file with some of m, p, e and upper dropped or
    replaced by a near miss or by any value."""
    kind = draw(st.sampled_from(["any", "form", "disturbed"]))
    if kind == "any":
        return draw(json_value)
    m = draw(st.sampled_from([4, 5]) | st.integers(-1, 5))
    n = max(0, m * (m - 1) // 2)
    doc = {"m": m, "p": 2, "e": 1, "upper": draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))}
    if kind == "disturbed":
        for key in draw(st.sets(st.sampled_from(sorted(doc)), min_size=1)):
            if draw(st.booleans()):
                del doc[key]
            else:
                doc[key] = draw(near_values[key] | json_value)
    doc.update(draw(st.dictionaries(st.text(max_size=3), json_leaf, max_size=2)))
    return doc


@st.composite
def form_file_bytes(draw):
    """The bytes of a --form file: a ``form_documents`` document as JSON;
    one with a byte of 0x80 and up spliced in, so rarely UTF-8; any
    bytes; or a form file with m, e or the first upper entry replaced by
    a digit string about as long as the 4300 digits that int() takes."""
    kind = draw(st.sampled_from(["json", "spliced", "bytes", "digits"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "digits":
        field = draw(st.sampled_from(['"m": 4', '"e": 1', '"upper": [0']))
        digits = draw(st.sampled_from(["", "-"])) + "9" * draw(st.integers(4295, 4305))
        text = '{"m": 4, "p": 2, "e": 1, "upper": [0, 0, 0, 0, 0, 0]}'
        return text.replace(field, field[:-1] + digits).encode()
    data = json.dumps(draw(form_documents())).encode()
    if kind == "spliced":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    return data


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(["weight", "classify"]), form_file_bytes())
def test_fuzzed_form_files_exit_0_1_or_2(tmp_path_factory, command, data):
    form = tmp_path_factory.getbasetemp() / "fuzzed-form.json"
    form.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([command, "--form", str(form), "-q", "2"])
    assert code in (0, 1, 2)
    event(f"exit {code}")
    try:
        json.loads(data.decode("utf-8"))
        decodes = True
    except (ValueError, RecursionError):  # not UTF-8, not JSON or past int()'s digit limit
        decodes = False
    assert code == 2 or decodes
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:" if decodes else "error: malformed form file:")


def test_closed_form_commands_start_without_numpy():
    # params, bounds, --help, a bad -m and an exhaustive scan over its
    # floor run from the standard library alone: a fresh interpreter ends
    # each with neither numpy nor multiprocessing loaded
    script = """
import contextlib, io, json, sys
from hermgrass import cli
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    runs.append([code, [m for m in ("numpy", "multiprocessing") if m in sys.modules]])
print(json.dumps(runs))
"""
    commands = [
        ["params", "-m", "4..8", "-q", "2", "-q", "3"],
        ["bounds", "-m", "6", "-q", "2"],
        ["--help"],
        ["points", "-m", "four", "-q", "2"],
        ["spectrum", "-m", "5", "-q", "8", "--exhaustive"],
        ["min-word", "-m", "5", "-q", "8", "--exhaustive"],
    ]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, []], [0, []], [0, []], [2, []], [2, []], [2, []]]


@pytest.mark.parametrize(
    "argv",
    [
        ["points", "-m", "3562", "-q", "2"],
        ["lines", "-m", "3562", "-q", "2"],
        ["genmat", "-m", "3562", "-q", "2"],
        ["spectrum", "-m", "3562", "-q", "2", "--sample", "5"],
        ["spectrum", "-m", "4", "-q", "2", "--sample", "9" * 4000, "--budget", "9" * 3999],
    ],
    ids=["points", "lines", "genmat", "spectrum", "sample-budget"],
)
def test_refusals_of_huge_counts_are_short(capsys, argv):
    # the largest m accepted at q = 2 has counts of over 2000 digits, which
    # the refusal prints to three significant digits
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and len(err[0]) < 200
    assert "e+" in err[0]


def test_refusal_counts_keep_three_significant_digits():
    assert counts._short(10**15 - 1) == "999999999999999"
    assert counts._short(4095 * 10**2141) == "4.10e+2144"
    assert counts._short(10**15) == "1.00e+15"


# Scan option values: negative, zero, small, past the default budget,
# longer than int()'s 4300 digits, and not integers at all.
scan_value = st.one_of(
    st.integers(-(10**40), 0),
    st.integers(1, 3000),
    st.integers((1 << 24) + 1, 10**40),
    st.integers(4301, 4310).map(lambda n: "9" * n),
    st.sampled_from(["", "1.5", "1e3", "0x10", "seven", "--"]),
).map(str)


@st.composite
def scan_argv(draw):
    """spectrum, min-word or verify at (4,2) with --jobs 1 and some of
    --seed, --budget and the sample count, each given a ``scan_value``."""
    command = draw(st.sampled_from(["spectrum", "min-word", "verify"]))
    argv = [command, "-m", "4", "-q", "2", "--jobs", "1"]
    if command == "min-word":
        argv += draw(st.sampled_from([[], ["--construct"], ["--exhaustive"]]))
    count = "--sample" if command == "spectrum" else "--samples"
    values = {}
    for flag in ["--seed", "--budget", count]:
        if draw(st.booleans()):
            values[flag] = draw(scan_value)
            argv.append(f"{flag}={values[flag]}")
    return argv, values


def _int_or_none(text):
    try:
        return int(text)
    except ValueError:
        return None


@settings(deadline=None, max_examples=150)
@given(scan_argv())
def test_scan_options_exit_0_or_2(drawn):
    argv, values = drawn
    default = "200" if argv[0] == "verify" else "100000"
    samples = _int_or_none(values.get("--sample", values.get("--samples", default)))
    budget = _int_or_none(values.get("--budget", str(1 << 24)))
    sampling = "--sample" in values or argv[0] == "min-word" and "--exhaustive" not in argv
    # a sample the budget admits is scanned in full, and verify checks
    # each of its forms by every route: valid, and only slow
    assume(not (sampling and samples and budget and 10**5 < samples <= budget))
    assume(not (argv[0] == "verify" and samples and budget and 200 < samples <= budget))
    out, err = io.StringIO(), io.StringIO()
    # --jobs 1 runs every scan in this process: starting a pool fails the test
    no_pool = mock.patch("multiprocessing.get_context", side_effect=AssertionError("a pool was started"))
    with no_pool, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 2)
    event(f"exit {code}")
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if code == 2:
        assert out.getvalue() == "" and len(errors) == 1
    else:
        assert errors == [] and out.getvalue()
    # a seed that is negative or no integer, beside values that parse,
    # is refused by a message that names the flag, in every scan mode
    seed = values.get("--seed", "1")
    if seed != "--" and (_int_or_none(seed) is None or int(seed) < 0):
        if all(_int_or_none(v) is not None for f, v in values.items() if f != "--seed"):
            assert code == 2 and "--seed" in errors[0]
