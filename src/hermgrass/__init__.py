"""Line Hermitian Grassmann codes over GF(q^2).

Build the projective system of totally isotropic lines of a Hermitian
polar space under the Pluecker embedding, compute codeword weights by
three independent routes, scan weight spectra exhaustively or by
seeded sampling, and certify minimum-weight codewords and their
structure.

The paper's closed forms (``counts``) load with the package.  The names
that need numpy, and the modules that hold them, load on first use
(PEP 562), so a command that prints closed forms starts without numpy.
When numpy is loaded already, importing the package loads them at once,
as it always did, and a first call pays for no import.
"""

import importlib
import sys

from .counts import (
    BoundRow, BoundTable, CodeParams, bound_table, code_params, cone_count_max, cone_point_count,
    isotropic_point_count, line_count, point_weight_values, rank2_cone_weight, stratum_weight_bound,
    weight_from_class_counts, zero_class_bound,
)

# The module of each name that needs numpy, imported by __getattr__.
_LAZY = {
    name: module
    for module, names in {
        "classify": "ClassificationReport check_min_weight_profile classify_points"
        " make_permutable_form make_rank2_cone_form min_word_witness point_classes",
        "code": "AlternatingForm SpectrumReport codeword evaluate min_distance point_weights"
        " spectrum weight_direct weight_recursive",
        "ff": "SUPPORTED_Q FieldCtx make_field",
        "linalg": "kernel rank rref",
        "pluecker": "ProjectiveSystem build_system pair_indices pluecker_point",
        "polar": "HermitianSpace RadicalProfile perp radical_profile",
    }.items()
    for name in names.split()
}
_SUBMODULES = ("classify", "code", "ff", "linalg", "pluecker", "polar")

__all__ = sorted([*counts.__all__, *_LAZY, "counts", *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    """A numpy-backed name or module, imported now and kept in the
    package namespace, so later lookups do not come here."""
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _LAZY:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


if "numpy" in sys.modules:
    for _name in _LAZY:
        __getattr__(_name)
