"""Line Hermitian Grassmann codes over GF(q^2).

Build the projective system of totally isotropic lines of a Hermitian
polar space under the Pluecker embedding, compute codeword weights by
three independent routes, scan weight spectra exhaustively or by
seeded sampling, and certify minimum-weight codewords and their
structure.
"""

from .classify import (
    BoundRow,
    BoundTable,
    ClassificationReport,
    bound_table,
    check_min_weight_profile,
    classify_points,
    cone_count_max,
    make_permutable_form,
    make_rank2_cone_form,
    min_word_witness,
    point_classes,
    rank2_cone_weight,
    stratum_weight_bound,
    weight_from_class_counts,
    zero_class_bound,
)
from .code import (
    AlternatingForm,
    CodeParams,
    SpectrumReport,
    code_params,
    codeword,
    evaluate,
    min_distance,
    point_weight_values,
    point_weights,
    spectrum,
    weight_direct,
    weight_recursive,
)
from .ff import SUPPORTED_Q, FieldCtx, make_field
from .linalg import kernel, rank, rref
from .pluecker import ProjectiveSystem, build_system, pair_indices, pluecker_point
from .polar import (
    HermitianSpace,
    RadicalProfile,
    cone_point_count,
    isotropic_point_count,
    line_count,
    perp,
    radical_profile,
)

__version__ = "0.1.0"
