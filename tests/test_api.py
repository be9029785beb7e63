"""The public API: every module's ``__all__`` names real objects, the
package re-exports only public names, and deleted names stay deleted."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hermgrass as hg

MODULES = ("counts", "ff", "linalg", "polar", "pluecker", "code", "classify")
INIT = Path(hg.__file__)

# Object wrappers and scalar helpers that only tests and demos used,
# replaced by the point and line arrays and the GF(q^2) tables; the
# polar-image wrappers and Gram rows that only tests used once the form
# was fixed to conj(x)^T y; the codeword record (``codeword`` returns the
# value array), the cached point leads of one caller, and the rank
# wrapper whose column-subset certificate moved into ``linalg.rank``; the
# section table's block sequence, whose short leads are rows of the scan
# kernel's last table, and the field's trial division, which the keys of
# its primitive polynomials replace; the file readers and writers,
# whose formats the command line front end now owns; and the rows of the
# isotropic points in the whole point table, which the classification no
# longer reads since it passes over the isotropic points alone; and the
# command line's second command table and prime-power helper, replaced by
# the subparsers and the one check of -q.
DELETED = (
    "ProjectivePoint",
    "IsotropicLine",
    "enumerate_points",
    "enumerate_lines",
    "line_bases",
    "frobenius",
    "hermitian_norm",
    "solve_membership",
    "form_from_index",
    "form_to_index",
    "Subspace",
    "polar_image",
    "fixed_point_count",
    "conj_gram_rows",
    "Codeword",
    "point_leads",
    "_row_rank",
    "_RepBlocks",
    "_is_prime",
    "dot",
    "write_points_csv",
    "write_lines_csv",
    "write_genmat",
    "write_spectrum_csv",
    "spectrum_metadata",
    "write_bounds_csv",
    "write_form_json",
    "read_form_json",
    "point_rows",
    "_HANDLERS",
    "_factor_prime_power",
)
# FieldCtx scalar wrappers that the tables replaced, and the discrete-log
# walk that the products of coefficient vectors replaced.
DELETED_FIELD_WRAPPERS = (
    "add_s",
    "sub_s",
    "mul_s",
    "inv_s",
    "conj_s",
    "elements",
    "coeffs",
    "from_coeffs",
    "_build_power_tables",
)

# Parameter names of calls whose options were deleted: a new one needs a
# deliberate edit here.
SIGNATURES = {
    "code.spectrum": ["system", "mode", "budget", "seed", "samples", "jobs"],
    "classify.make_rank2_cone_form": ["space"],
    "classify.make_permutable_form": ["space"],
    "classify.min_word_witness": ["space"],
    "classify.check_min_weight_profile": ["phi", "space", "weight"],
    "linalg._ScanKernel.nonzero_masks": ["self", "ranges"],
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"hermgrass.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
    namespace = {}
    exec(f"from hermgrass.{name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


def test_package_imports_are_in_module_all():
    tree = ast.parse(INIT.read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    exported = {}
    for node in imports:
        exported[node.module] = [alias.name for alias in node.names]
    # the numpy-backed names that __getattr__ imports on first use
    for name, module in hg._LAZY.items():
        exported.setdefault(module, []).append(name)
    for module, names in exported.items():
        mod = importlib.import_module(f"hermgrass.{module}")
        assert set(names) <= set(mod.__all__), (module, set(names) - set(mod.__all__))
        assert all(getattr(hg, n) is getattr(mod, n) for n in names)
    public = {n for names in exported.values() for n in names}
    assert set(hg.__all__) == public | {"counts", *hg._SUBMODULES}
    assert len(public) == sum(map(len, exported.values()))  # each name from one module
    assert set(hg.__all__) <= set(dir(hg))
    for name in hg._SUBMODULES:
        assert getattr(hg, name) is importlib.import_module(f"hermgrass.{name}")


def test_closed_forms_have_one_home():
    # the numpy-free closed forms live in counts alone, with no alias left
    # in the modules they came from
    counts = importlib.import_module("hermgrass.counts")
    for name in ("polar", "code", "classify", "cli"):
        mod = importlib.import_module(f"hermgrass.{name}")
        assert not set(counts.__all__) & set(vars(mod)), name


def _fresh_import(preload: str) -> dict:
    """What a fresh interpreter holds after ``preload`` and ``import
    hermgrass``, and after it then reads hg.make_field."""
    script = (
        f"{preload}\n"
        "import json, sys\n"
        "import hermgrass as hg\n"
        "before = ['numpy' in sys.modules, sorted(set(hg._LAZY) & set(vars(hg)))]\n"
        "ctx = hg.make_field(2, 1)\n"
        "print(json.dumps([before, 'numpy' in sys.modules, 'make_field' in vars(hg), ctx.q2]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(INIT.parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_package_imports_numpy_on_first_use():
    (numpy_loaded, resolved), numpy_after, kept, q2 = _fresh_import("")
    assert not numpy_loaded and resolved == []
    assert numpy_after and kept and q2 == 4


def test_package_resolves_every_name_when_numpy_is_loaded():
    (numpy_loaded, resolved), _, kept, q2 = _fresh_import("import numpy")
    assert numpy_loaded and resolved == sorted(hg._LAZY)
    assert kept and q2 == 4


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    for mod in (hg, *(importlib.import_module(f"hermgrass.{m}") for m in (*MODULES, "cli"))):
        assert not hasattr(mod, name), f"{mod.__name__}.{name}"
        assert name not in getattr(mod, "__all__", ())
    assert not hasattr(hg.HermitianSpace, name)
    with pytest.raises(ImportError):
        exec(f"from hermgrass import {name}", {})


def test_deleted_field_wrappers_are_gone(ctx2):
    for name in DELETED_FIELD_WRAPPERS:
        assert not hasattr(ctx2, name), name
        assert not hasattr(hg.FieldCtx, name), name


@pytest.mark.parametrize("path", SIGNATURES)
def test_signatures_are_pinned(path):
    obj = importlib.import_module(f"hermgrass.{path.split('.')[0]}")
    for attr in path.split(".")[1:]:
        obj = getattr(obj, attr)
    assert list(inspect.signature(obj).parameters) == SIGNATURES[path]
