"""Finite-dimensional calculus for matrix-centre realizations of NC functions.

Build realizations from non-commutative rational expressions, evaluate the
quantized transfer functions they define, minimize and translate them,
certify NC-function-hood through the linearized Lost-Abbey conditions, and
construct realizations from truncated matricial Fock-space data.
"""

from .core import (
    CentrePoint,
    MatrixTuple,
    SingularMatrixError,
    ampliate,
    apply_similarity,
    column_norm,
)
from .linmap import (
    MatrixLinearMap,
    ampliated_apply,
    cb_row_norm_bound,
    word_apply,
)
from .realization import (
    DescriptorRealization,
    Evaluation,
    FMRealization,
    evaluate,
    in_domain,
    load_realization,
    moment,
    pencil,
    pole_order,
    save_realization,
    transfer,
    transfer_fm,
)
from .algebra import (
    constant_fm,
    coordinate_fm,
    desc_to_fm,
    fm_add,
    fm_inv,
    fm_mul,
    fm_neg,
    fm_to_desc,
)
from .analysis import (
    analytically_equivalent,
    controllable_basis,
    is_minimal,
    kalman_minimize,
    llac_residual,
    max_moment_deviation,
    moment_via_nilpotent,
    nilpotent_point,
    observable_basis,
    recover_similarity,
    translate,
    tree_point,
)
from .parser import (
    ParseError,
    UndefinedAtCentreError,
    eval_expression,
    parse,
    realize_expression,
)
from .fock import (
    TruncatedFockVector,
    coeffs_from_nc_function,
    eval_fock,
    flip_unitary,
    fock_basis,
    fock_realization,
    kernel_vector,
    left_creation,
    right_creation,
)

__version__ = "0.1.0"
