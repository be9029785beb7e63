"""In-memory span recorder and the wrappers that feed it.

The wrappers are installed from outside the package: every public
function of ff, linalg, polar, pluecker, code, classify and cli, and
every public HermitianSpace method, is replaced by a timing wrapper.
Names bound elsewhere by ``from .x import y`` (classify's imports from
code, cli's ``make_field``, the package re-exports, cli's dispatch
table) are rebound to the same wrapper, so a call is timed whichever
name it goes through.  The elementwise helpers (fadd, fsub, fneg, fmul)
and the FieldCtx scalar methods are left alone: they run millions of
times and would time the wrapper, not the work.

A span is a row [id, parent, name, start, end, size, items, nbytes, tag].
``size`` is "m<m>q<q>" taken from the first argument that carries a
space (a HermitianSpace, a ProjectiveSystem or an AlternatingForm), or
inherited from the parent span.  ``items`` and ``nbytes`` describe the
result where it is an array, a tuple of arrays, a projective system or
a spectrum report (whose mode goes into ``tag``); they are None
otherwise.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from contextlib import contextmanager
from time import perf_counter

MODULES = ("ff", "linalg", "polar", "pluecker", "code", "classify", "cli")
ELEMENTWISE = frozenset({"fadd", "fsub", "fneg", "fmul"})
FIELDS = ("id", "parent", "name", "start", "end", "size", "items", "nbytes", "tag")


class Recorder:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.active = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, size: str | None = None):
        """Span around a block of the benchmark's own code."""
        row = self._open(name, size)
        try:
            yield
        finally:
            self._close(row)

    @contextmanager
    def paused(self):
        """Run a block untraced (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _open(self, name, size):
        parent = self._stack[-1] if self._stack else None
        if size is None and parent is not None:
            size = self.spans[parent][5]
        row = [len(self.spans), parent, name, 0.0, 0.0, size, None, None, None]
        self.spans.append(row)
        self._stack.append(row[0])
        row[3] = perf_counter()
        return row

    def _close(self, row):
        row[4] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            row = rec._open(name, _size_of(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(row)
            row[6], row[7], row[8] = _describe(result)
            return result

        return traced

    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = {"run": self.run_id, "fields": list(FIELDS), "spans": self.spans}
        doc.update(extra or {})
        with open(path, "w") as f:
            json.dump(doc, f)


def _size_of(args) -> str | None:
    for a in args:
        obj = getattr(a, "space", a)
        m = getattr(obj, "m", None)
        ctx = getattr(obj, "ctx", None)
        if isinstance(m, int) and ctx is not None:
            return f"m{m}q{ctx.q}"
    return None


def _describe(result):
    """(items, nbytes, tag) of a result; None where it does not apply."""
    nbytes = getattr(result, "nbytes", None)
    if isinstance(nbytes, int) and getattr(result, "ndim", 0) >= 1:
        return len(result), nbytes, None
    if isinstance(result, tuple) and result and all(hasattr(x, "nbytes") for x in result):
        return len(result[0]), sum(x.nbytes for x in result), None
    matrix = getattr(result, "matrix", None)
    if matrix is not None and hasattr(matrix, "nbytes"):
        return matrix.shape[1], matrix.nbytes, None
    scanned = getattr(result, "forms_scanned", None)
    if isinstance(scanned, int):
        return scanned, None, getattr(result, "mode", None)
    return None, None, None


def install(rec: Recorder) -> int:
    """Wrap the package's public functions; returns how many were wrapped."""
    import importlib

    package = importlib.import_module("hermgrass")
    modules = {name: importlib.import_module(f"hermgrass.{name}") for name in MODULES}
    wrapped = {}
    for short, mod in modules.items():
        for attr, val in list(vars(mod).items()):
            if attr.startswith("_") or attr in ELEMENTWISE:
                continue
            if inspect.isfunction(val) and val.__module__ == mod.__name__:
                wrapped[val] = rec.wrap(f"{short}.{attr}", val)
    space_cls = getattr(modules["polar"], "HermitianSpace", None)
    if space_cls is not None:
        for attr, val in list(vars(space_cls).items()):
            if not attr.startswith("_") and inspect.isfunction(val):
                setattr(space_cls, attr, rec.wrap(f"polar.{attr}", val))
    for mod in (package, *modules.values()):
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
    handlers = getattr(modules["cli"], "_HANDLERS", None)
    if isinstance(handlers, dict):
        for key, val in list(handlers.items()):
            if val in wrapped:
                handlers[key] = wrapped[val]
    return len(wrapped)


# -- summaries --------------------------------------------------------------


def rows_of(doc: dict) -> list[dict]:
    """Span rows of a dumped trace as dicts, with self time added."""
    rows = [dict(zip(doc["fields"], r)) for r in doc["spans"]]
    child = [0.0] * len(rows)
    for r in rows:
        r["dur"] = r["end"] - r["start"]
        if r["parent"] is not None:
            child[r["parent"]] += r["dur"]
    for r, c in zip(rows, child):
        r["self"] = r["dur"] - c
        r["parent_name"] = rows[r["parent"]]["name"] if r["parent"] is not None else None
    return rows


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, samples); the value is the 11th largest sample, and
    0.0 when there are fewer than 11 samples.
    """
    n = len(values)
    if n < 11:
        return 0.0, n
    return sorted(values)[n - 11], n


def by_function(rows: list[dict]) -> dict:
    """Calls, total and self seconds, p50 and tail per (name, size)."""
    groups: dict[tuple, list[dict]] = {}
    for r in rows:
        groups.setdefault((r["name"], r["size"]), []).append(r)
    out = {}
    for (name, size), rs in sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")):
        durs = [r["dur"] for r in rs]
        t, n = tail(durs)
        out[f"{name}@{size}"] = {
            "calls": len(rs),
            "total_s": sum(durs),
            "self_s": sum(r["self"] for r in rs),
            "p50_s": statistics.median(durs),
            "tail_s": t,
            "tail_samples": n,
        }
    return out
