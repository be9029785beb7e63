"""Command line front end.

Subcommands: params, points, lines, genmat, weight, spectrum,
classify, bounds, min-word, verify; the subparsers are the one command
table, and each runs the handler ``cmd_<name>``.  The field is always
named by -q Q, a prime power.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  Every usage error, argparse's own included,
is one "error: .." line on stderr with nothing on stdout; --help prints
to stdout and exits 0.  An internal check that fails with RuntimeError
(a MacWilliams gate, a witness certification) is also one "error: .."
line, with exit 1; inside verify it is the FAIL line of the check it
ran in, and the later checks still run.

All randomized paths take a seed (default 1) and echo it into the
output metadata.  Identical invocations, seed included, write
byte-identical output files; wall-clock timing is reported on stderr
only.

Every file format is written and read here; the library modules return
arrays and records.  A field element is its integer code 0 .. q^2 - 1.
JSON output has sorted keys.

* points: a "# points m=.. p=.. e=.. count=.." header line, then one
  comma-separated row of m coordinates per isotropic point; JSON
  {"e", "m", "p", "points"}.
* lines: the "# lines .." header, then per line the 2m entries of its
  two canonical basis vectors, concatenated; JSON {"e", "m", "p",
  "lines"}, each line a pair of basis vectors.
* genmat: header "m p e N K", then K rows of N space-separated
  entries.
* params: "m, q, N, K, d_min" rows; JSON a list of objects.
* weight: "route,weight" rows; JSON {"m", "q", "weight_direct",
  "weight_recursive", "weight_from_counts", "agree"}.
* spectrum: "weight,count" rows, then the metadata as one JSON line,
  or with --out in the sidecar <out>.meta.json; JSON {"histogram",
  "meta"}.  The metadata leaves out the wall time.
* bounds: "i,xi,muMax,dLower" rows, dLower the ceiling of the exact
  rational bound; JSON {"m", "q", "rows"}.
* classify and min-word: JSON only.
* form files (weight and classify --form): {"m": .., "p": .., "e": ..,
  "upper": [..]}, the strict upper triangle in pair order.  The top
  level must be an object, m, p, e and every upper entry JSON integers
  (not true, false or null), and upper a list; anything else, nesting
  too deep for the decoder, bytes that are not UTF-8 and integers of
  more digits than Python converts included, is a usage error.

Points, lines and genmat rows are written by ``_write_table`` in one
loop over blocks of about DOT_BLOCK / 4 codes, in both formats, so
neither the text nor the Python lists of a JSON dump hold every row.

Start-up: this module imports only the standard library and ``counts``,
so params, bounds, --help and every error in the flags finish without
numpy.  Each other command imports numpy and the modules it runs inside
its handler, after its flags are checked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext

from . import counts

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _parse_range(text: str, q: int) -> range:
    """The m of ``text``, one value or a range lo..hi, refused before
    anything is built when the largest is too large for q.  Every value a
    command prints is below q^(4m), and Python prints an int of at most
    4300 digits; the memory messages' K x N bytes need a few digits more."""
    lo, dots, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if dots else lo
    except ValueError:  # int() also refuses more than 4300 digits
        raise ValueError(f"-m takes an integer m or a range lo..hi, not {text[:20]!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    if hi > (4300 - 10) / (4 * math.log10(q)):
        raise ValueError(f"m = {hi} is too large for q = {q}: its values would pass 4300 digits")
    return range(lo, hi + 1)


def _add_field_args(sp, m_help="space dimension m", q_action="store"):
    if m_help:
        sp.add_argument("-m", required=True, help=m_help)
    sp.add_argument("-q", type=int, action=q_action, help="subfield order (prime power)")


def _add_output_args(sp, with_format=True):
    sp.add_argument("--out", help="output path (default: stdout)")
    if with_format:
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")


def _add_scan_args(sp):
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--budget", type=int, default=1 << 24)
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1, help="scan worker processes")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subparsers included, whose usage errors
    raise ValueError, so run() prints them as its one error line."""

    def error(self, message):
        raise ValueError(" ".join(message.splitlines()))  # argv echoed into it may hold newlines


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hermgrass", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("params", help="N, K, d_min table over ranges of m and q")
    _add_field_args(sp, "dimension or range, like 4..8", q_action="append")
    _add_output_args(sp)

    for name, desc in (
        ("points", "dump the canonical isotropic point enumeration"),
        ("lines", "dump the canonical totally isotropic line enumeration"),
        ("genmat", "dump the generator matrix"),
    ):
        sp = sub.add_parser(name, help=desc)
        _add_field_args(sp)
        _add_output_args(sp, with_format=name != "genmat")

    sp = sub.add_parser("weight", help="weights of one form, computed three ways")
    _add_field_args(sp, m_help=None)
    sp.add_argument("--form", required=True, help="form JSON file")
    _add_output_args(sp)

    sp = sub.add_parser("spectrum", help="weight histogram over forms")
    _add_field_args(sp)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--exhaustive", action="store_true", default=None)
    g.add_argument("--sample", type=int, metavar="N")
    _add_scan_args(sp)
    _add_output_args(sp)

    sp = sub.add_parser("classify", help="class sizes and cross-checks for one form")
    _add_field_args(sp, m_help=None)
    sp.add_argument("--form", required=True)
    _add_output_args(sp, with_format=False)

    sp = sub.add_parser("bounds", help="per-rank zero-class bounds and weight bounds")
    _add_field_args(sp)
    _add_output_args(sp)

    sp = sub.add_parser("min-word", help="minimum distance with certificate")
    _add_field_args(sp)
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--construct", action="store_true", default=None)
    g.add_argument("--exhaustive", action="store_true", default=None)
    sp.add_argument("--samples", type=int, default=100_000)
    _add_scan_args(sp)
    _add_output_args(sp, with_format=False)

    sp = sub.add_parser("verify", help="run every claim check feasible at (m, q)")
    _add_field_args(sp)
    sp.add_argument("--samples", type=int, default=200)
    _add_scan_args(sp)
    return ap


# The largest subfield order -q takes: it keeps the trial division of q
# instant.
_MAX_Q = 1 << 32


def _resolve_field(q) -> tuple[int, int]:
    """(p, e) with p prime and p**e the -q value q, at most _MAX_Q, which
    is checked first, so an oversized q is refused before any trial
    division: p is the smallest factor of q up to isqrt(q), or q itself,
    and e = round(log_p q)."""
    if q is None:
        raise ValueError("a field is required: -q Q")
    if q > _MAX_Q:
        raise ValueError(f"q = {q} exceeds the largest supported order {_MAX_Q}")
    if q >= 2:
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        e = round(math.log(q, p))
        if p**e == q:
            return p, e
    raise ValueError(f"q = {q} is not a prime power")


def _single_m(text: str, q: int) -> int:
    m = _parse_range(text, q)
    if m.stop - m.start != 1:
        raise ValueError("this command takes a single m")
    return m.start


def _output(args):
    """--out opened for writing, or stdout."""
    return nullcontext(sys.stdout) if args.out is None else open(args.out, "w")


def _write(args, payload, indent=None, write_csv=None) -> None:
    """Write a command's output to --out or stdout: ``write_csv(f)``, the
    CSV or plain-text format, or without it or with ``--format json`` the
    sorted-key JSON of ``payload()``, which is built only then."""
    with _output(args) as f:
        if write_csv is not None and getattr(args, "fmt", "csv") == "csv":
            write_csv(f)
        else:
            json.dump(payload(), f, indent=indent, sort_keys=True)
            f.write("\n")


def _csv_text(codes, sep: str) -> str:
    """The rows of ``codes`` as lines of ``sep``-separated decimals.  A
    code, below q^2 <= 64 < 100, fills three byte slots (tens digit or 0,
    units digit, sep or newline), and the nonzero slots are the text."""
    import numpy as np

    tens, units = np.divmod(codes, 10)
    slots = np.empty((*codes.shape, 3), dtype=np.uint8)
    slots[..., 0] = np.where(tens, tens + 48, 0)
    slots[..., 1] = units + 48
    slots[..., 2] = ord(sep)
    slots[:, -1, 2] = ord("\n")
    flat = slots.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def _write_table(args, space, key: str, n_rows: int, width: int, block, header=None, sep=","):
    """Write the rows ``block(lo, hi)``, of ``width`` codes each, to --out
    or stdout in one loop over blocks of about DOT_BLOCK / 4 codes: a
    JSON block's rows become Python lists of about 20 bytes a code, and
    this keeps them to some 0.3 MB (2048 points at (8,2)).

    CSV: ``header``, by default "# key m=.. p=.. e=.. count=..", then
    one ``_csv_text`` string per block.  With ``--format json``: the
    sorted-key dump of {"m", "p", "e", key: block(0, n_rows)}, with each
    block's rows listed and written in turn.
    """
    ctx, as_json = space.ctx, getattr(args, "fmt", "csv") == "json"
    if as_json:
        doc = json.dumps({"m": space.m, "p": ctx.p, "e": ctx.e, key: None}, sort_keys=True)
        header, _, tail = doc.partition("null")
        header += "["
    elif header is None:
        header = f"# {key} m={space.m} p={ctx.p} e={ctx.e} count={n_rows}\n"
    from .linalg import DOT_BLOCK

    step = max(1, DOT_BLOCK // 4 // width)
    with _output(args) as f:
        f.write(header)
        for lo in range(0, n_rows, step):
            codes = block(lo, lo + step)
            if as_json:
                f.write((", " if lo else "") + json.dumps(codes.tolist())[1:-1])
            else:
                f.write(_csv_text(codes.reshape(len(codes), width), sep))
        if as_json:
            f.write(f"]{tail}\n")


# -- command handlers ---------------------------------------------------------


def cmd_params(args) -> int:
    fields = [_resolve_field(q) for q in args.q or [None]]
    m_values = _parse_range(args.m, max(p**e for p, e in fields))
    rows = [counts.code_params(m, p**e) for p, e in fields for m in m_values]
    _write(
        args,
        lambda: [{"m": r.m, "q": r.q, "N": r.n, "K": r.k, "d_min": r.d_min} for r in rows],
        indent=2,
        write_csv=lambda f: f.writelines(
            ["m, q, N, K, d_min\n"] + [f"{r.m}, {r.q}, {r.n}, {r.k}, {r.d_min}\n" for r in rows]
        ),
    )
    return EXIT_OK


def _space_for(args):
    """The HermitianSpace of the flags, which are checked before numpy is imported."""
    p, e = _resolve_field(args.q)
    m = _single_m(args.m, p**e)
    from . import ff, polar

    return polar.HermitianSpace(m, ff.make_field(p, e))


def cmd_points(args) -> int:
    space = _space_for(args)
    pts = space.points()
    _write_table(args, space, "points", len(pts), space.m, lambda lo, hi: pts[lo:hi])
    return EXIT_OK


def cmd_lines(args) -> int:
    import numpy as np

    space = _space_for(args)
    (a_idx, b_idx), pts = space.line_pair_indices(), space.points()

    def lines(lo, hi):
        return np.stack([pts[a_idx[lo:hi]], pts[b_idx[lo:hi]]], axis=1)

    _write_table(args, space, "lines", len(a_idx), 2 * space.m, lines)
    return EXIT_OK


def cmd_genmat(args) -> int:
    from . import pluecker

    space = _space_for(args)
    system, ctx = pluecker.build_system(space), space.ctx
    header = f"{space.m} {ctx.p} {ctx.e} {system.n} {system.k}\n"
    _write_table(args, space, "genmat", system.k, system.n, system.rows, header, " ")
    return EXIT_OK


def _json_int(value, what: str) -> int:
    # bool is a subclass of int, but true/false are not form entries
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"malformed form file: {what} must be an integer")
    return value


def _load_form(args):
    """The form of the --form file, checked against -q as the module
    docstring states (ValueError on any mismatch), with its space and
    that space's system."""
    field = _resolve_field(args.q)
    from . import code, ff, pluecker, polar

    ctx = ff.make_field(*field)
    with open(args.form, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"malformed form file: {exc}") from None
        except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
            raise ValueError("malformed form file: an integer has too many digits") from None
    if not isinstance(data, dict):
        raise ValueError("malformed form file: expected a JSON object")
    for key in ("m", "p", "e", "upper"):
        if key not in data:
            raise ValueError(f"malformed form file: missing {key!r}")
    m, p, e = (_json_int(data[key], repr(key)) for key in ("m", "p", "e"))
    upper = data["upper"]
    if not isinstance(upper, list):
        raise ValueError("malformed form file: 'upper' must be a list")
    upper = [_json_int(x, "'upper' entry") for x in upper]
    if (ctx.p, ctx.e) != (p, e):
        raise ValueError("form file field does not match the requested field")
    if m < 1:
        raise ValueError("malformed form file: 'm' must be positive")
    if any(not 0 <= x < ctx.q2 for x in upper):
        raise ValueError("malformed form file: upper entries out of range")
    phi = code.AlternatingForm.from_upper(ctx, m, upper)
    space = polar.HermitianSpace(m, ctx)
    return phi, space, pluecker.build_system(space)


def cmd_weight(args) -> int:
    from . import classify, code

    phi, space, system = _load_form(args)
    wd, wr = code.weight_direct(phi, system), code.weight_recursive(phi, space)
    # classify_points reads the direct weight the form keeps
    wfc = 0 if phi.is_zero() else classify.classify_points(phi, space, system).weight_from_counts
    payload = {
        "m": phi.m,
        "q": space.ctx.q,
        "weight_direct": wd,
        "weight_recursive": wr,
        "weight_from_counts": wfc,
        "agree": wd == wr == wfc,
    }
    csv = f"route,weight\ndirect,{wd}\nrecursive,{wr}\nfrom_counts,{wfc}\n"
    _write(args, lambda: payload, write_csv=lambda f: f.write(csv))
    if not payload["agree"]:
        print("weight routes disagree", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def cmd_spectrum(args) -> int:
    from . import code, pluecker

    space = _space_for(args)
    system = pluecker.build_system(space)
    mode = "exhaustive" if args.sample is None else "sample"
    rep = code.spectrum(system, mode, args.budget, args.seed, args.sample, args.jobs)
    meta = {
        "mode": rep.mode,
        "m": rep.m,
        "q": rep.q,
        "seed": rep.seed,
        "forms_scanned": rep.forms_scanned,
        "min_nonzero_weight": rep.min_nonzero_weight,
    }  # no wall time, so written files stay byte-identical between reruns
    if rep.min_weight_radical_dims is not None:
        meta["min_weight_radical_dims"] = {
            str(k): v for k, v in sorted(rep.min_weight_radical_dims.items())
        }
    rows = sorted(rep.histogram.items())

    def write_csv(f):
        f.writelines(["weight,count\n"] + [f"{w},{c}\n" for w, c in rows])
        if args.out:
            with open(args.out + ".meta.json", "w") as mf:
                json.dump(meta, mf, indent=2, sort_keys=True)
                mf.write("\n")
        else:
            f.write(json.dumps(meta, sort_keys=True) + "\n")

    _write(
        args,
        lambda: {"histogram": {str(w): c for w, c in rows}, "meta": meta},
        indent=2,
        write_csv=write_csv,
    )
    print(
        f"spectrum: {rep.forms_scanned} forms in {rep.wall_time_s:.2f}s "
        f"(mode={rep.mode}, seed={rep.seed})",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_classify(args) -> int:
    from . import classify

    phi, space, system = _load_form(args)
    if phi.is_zero():
        raise ValueError("the zero form has no classification report")
    rep = classify.classify_points(phi, space, system)
    payload = {
        "A": rep.A,
        "B": rep.B,
        "C": rep.C,
        "radDim": rep.rad_dim,
        "profile": rep.profile.label,
        "fixCount": rep.fix_count,
        "weightFromABC": rep.weight_from_counts,
        "weightDirect": rep.weight_direct,
        "checks": rep.checks,
    }
    _write(args, lambda: payload, indent=2)
    return EXIT_OK if all(rep.checks.values()) else EXIT_FAIL


def cmd_bounds(args) -> int:
    p, e = _resolve_field(args.q)
    table = counts.bound_table(_single_m(args.m, p**e), p**e)
    rows = [
        {"i": r.i, "xi": r.xi, "muMax": r.mu_max, "dLower": math.ceil(r.d_lower)}
        for r in table.rows
    ]
    csv = ["i,xi,muMax,dLower\n"] + [",".join(map(str, r.values())) + "\n" for r in rows]
    _write(
        args,
        lambda: {"m": table.m, "q": table.q, "rows": rows},
        indent=2,
        write_csv=lambda f: f.writelines(csv),
    )
    return EXIT_OK


def cmd_min_word(args) -> int:
    from . import code, pluecker

    space = _space_for(args)
    system = pluecker.build_system(space)
    strategy = "exhaustive" if args.exhaustive else "construct+sample"
    d, cert = code.min_distance(
        system,
        strategy=strategy,
        seed=args.seed,
        samples=args.samples,
        budget=args.budget,
        jobs=args.jobs,
    )
    _write(args, lambda: {"d_min": d, "certificate": cert}, indent=2)
    return EXIT_OK


# -- verify -------------------------------------------------------------------


def _verify_checks(space, seed: int, samples: int, budget: int, jobs: int):
    """Yield (name, ok, detail) for every claim feasible at this size.

    Each check runs apart: a RuntimeError raised inside one, a failed
    internal gate, gives that check's record (name, False, message), and
    the checks after it still run.  What several checks read (the
    generator, the sampled forms, the witness, the exhaustive scan) is
    made on first use and kept; what raised is made again by the next
    check that reads it, which fails alike.
    """
    from functools import cache, partial

    import numpy as np

    from . import classify, code, pluecker

    ctx = space.ctx
    m, q = space.m, ctx.q
    params = counts.code_params(m, q)

    def check(name, run):
        try:
            return (name, *run())
        except RuntimeError as exc:
            return name, False, str(exc)

    n_points = space.num_points
    yield check("point count", lambda: (n_points == counts.isotropic_point_count(m, q), f"{n_points} isotropic points"))
    system = partial(pluecker.build_system, space)  # kept on the space
    # built first, so a generator too large is refused (ValueError) before
    # the lines are enumerated; the rank check reports a RuntimeError
    check("generator", lambda: (system(), ""))
    n_lines = space.num_lines
    yield check("line count", lambda: (n_lines == params.n, f"{n_lines} totally isotropic lines"))
    yield check("generator rank", lambda: (system().k == params.k, f"rank {system().k} = C(m,2)"))

    table = counts.bound_table(m, q)
    maxima = table.max_indices()
    yield check("bound table maximum", lambda: (maxima == table.expected_max_indices(), f"max at i={maxima}"))

    @cache
    def sampled():
        """(routes agree, detail, weights within the stratum bounds)"""
        rng = np.random.default_rng(seed)
        values = set(counts.point_weight_values(m, q))
        bound_ok = True
        for _ in range(samples):
            upper = rng.integers(0, ctx.q2, size=params.k, dtype=np.uint8)
            if not upper.any():
                continue
            phi = code.AlternatingForm.from_upper(ctx, m, upper)
            rep = classify.classify_points(phi, space, system())
            wd, wr = rep.weight_direct, code.weight_recursive(phi, space)
            pw = set(code.point_weights(phi, space).tolist())
            if not (wd == wr == rep.weight_from_counts and rep.checks["conservation"]):
                return False, f"disagreement at upper={list(map(int, upper))}", bound_ok
            if not pw <= values:
                return False, f"per-point value outside the case set: {sorted(pw)}", bound_ok
            bound_ok &= wd >= counts.stratum_weight_bound(m, phi.rank // 2, q)
        return True, f"{samples} seeded forms", bound_ok

    yield check("three weight routes + conservation + case values", lambda: sampled()[:2])
    yield check("per-rank lower bounds", lambda: (sampled()[2], "weights >= stratum bounds"))

    kind = "permutable" if m in (4, 6) else "rank2-cone"  # as classify.min_word_witness chooses
    witness = cache(lambda: classify.min_word_witness(space)[1])

    def weight_is(form, want):
        w = code.weight_direct(form(), system())  # kept on the form
        return w == want, f"weight {w}"

    if m >= 5:
        cone = witness if kind == "rank2-cone" else partial(classify.make_rank2_cone_form, space)
        yield check("rank-2 cone witness", lambda: weight_is(cone, counts.rank2_cone_weight(m, q)))
    if kind == "permutable":
        yield check("permutable witness", lambda: weight_is(witness, params.d_min))

    def profile():
        w = code.weight_direct(witness(), system())
        if w != params.d_min:
            return False, f"weight {w} is not d_min = {params.d_min}"
        return classify.check_min_weight_profile(witness(), space, w)

    yield check(f"minimum-word profile ({'rank-2' if kind == 'rank2-cone' else kind})", profile)

    if code._scan_prefixes(ctx, m, budget) is not None:
        rep = cache(lambda: code.spectrum(system(), mode="exhaustive", budget=budget, jobs=jobs))

        def minimum():
            w = rep().min_nonzero_weight
            return w == params.d_min, f"min weight {w} over {ctx.q2**params.k} forms"

        def spectrum52():
            hist, dims = rep().histogram, rep().min_weight_radical_dims
            ok = sorted(hist) == [0, 192, 216, 224, 232, 256] and hist[192] == 24948 and dims == {3: 5940, 1: 19008}
            return ok, f"weights {sorted(hist)}, min multiplicity {hist.get(192)}, radical split {dims}"

        yield check("exhaustive minimum distance", minimum)
        if (m, q) == (5, 2):
            yield check("exhaustive (5,2) spectrum", spectrum52)


def cmd_verify(args) -> int:
    from .polar import _short

    # refused before anything is built; code.spectrum refuses its samples alike
    if args.samples > args.budget:
        raise ValueError(f"sample count {_short(args.samples)} exceeds budget {_short(args.budget)}")
    space = _space_for(args)
    failures = 0
    for name, ok, detail in _verify_checks(space, args.seed, args.samples, args.budget, args.jobs):
        tag = "PASS" if ok else "FAIL"
        print(f"{tag} {name}: {detail}")
        if not ok:
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_FAIL


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # argparse reads an attached "--" (-m--, --seed=--) as an empty list
        if any(v == [] or isinstance(v, list) and [] in v for v in vars(args).values()):
            raise ValueError("an option was given '--' as its value")
        if getattr(args, "seed", 0) < 0:  # numpy seeds take no negative value
            raise ValueError("--seed must be non-negative")
        if getattr(args, "budget", 1) <= 0:
            raise ValueError("budget must be positive")
        if getattr(args, "jobs", 1) < 1:
            raise ValueError("jobs must be at least 1")
        samples = getattr(args, "samples", getattr(args, "sample", None))
        if samples is not None and samples < 1:
            raise ValueError("sample count must be positive")
        # looked up at call time, so a rebound cmd_* function is the one run
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit:  # --help, the one exit left to argparse
        return EXIT_OK
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # a failed internal check, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
