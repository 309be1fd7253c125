"""Secure distributed matrix multiplication over finite fields.

Two polynomial code families for computing A @ B across N workers so that
any T colluding workers learn nothing about A or B and the product is
recoverable from a subset of the responses:

- the modular layout groups workers into hypernodes of M evaluations and
  decodes from a root-of-unity average (``mp:`` schemes);
- the grouped layout packs the noise exponents into runs and decodes by
  plain interpolation (``ggasp:`` schemes).

The library covers exact finite-field arithmetic (prime and extension),
block-matrix polynomials, recovery-threshold calculators with a
support-counting oracle, evaluation-point search with decodability and
security certification, and an end-to-end protocol simulator. The ``sdmm``
console script exposes the same operations on the command line.
"""

from .errors import (
    BadD,
    BadR,
    BadSpec,
    BudgetExceeded,
    BudgetExhausted,
    DecodeFailed,
    InconsistentResponses,
    InsufficientResponses,
    NoSuchRoot,
    NotPrime,
    PlanInvalid,
    SdmmError,
    ShapeMismatch,
    SingularSystem,
)
from .fields import (
    FieldCtx,
    FieldElement,
    MultCounter,
    make_field,
    parse_field_spec,
    primitive_root_of_unity,
    subgroup_elements,
)
from .linalg import (
    EvaluationPlan,
    MdsResult,
    SecurityResult,
    decodability_check,
    find_evaluation_vector,
    ggasp_plan,
    gv_matrix,
    is_mds,
    mp_plan,
    security_check,
    security_matrices,
)
from .matpoly import (
    BlockMatrix,
    MatPoly,
    interpolate,
    mod_m_transform,
)
from .protocol import (
    RecoveryReport,
    SimReport,
    assemble_product,
    decode,
    mp_recovery_threshold_with_security,
    p_of_s_empirical,
    p_of_s_lower_bound,
    resolve_stragglers,
    run_protocol,
)
from .schemes import (
    SchemeParams,
    build_f,
    build_g,
    parse_scheme_spec,
    partition,
    product_block_positions,
)
from .thresholds import (
    ThresholdReport,
    optimal_r,
    product_class_support,
    rate_sweep,
    rate_sweep_fixed_n,
    symbolic_support,
    threshold,
)

__version__ = "0.1.0"

__all__ = [
    "BadD",
    "BadR",
    "BadSpec",
    "BlockMatrix",
    "BudgetExceeded",
    "BudgetExhausted",
    "DecodeFailed",
    "InconsistentResponses",
    "EvaluationPlan",
    "FieldCtx",
    "FieldElement",
    "InsufficientResponses",
    "MatPoly",
    "MdsResult",
    "MultCounter",
    "NoSuchRoot",
    "NotPrime",
    "PlanInvalid",
    "RecoveryReport",
    "SchemeParams",
    "SdmmError",
    "SecurityResult",
    "ShapeMismatch",
    "SimReport",
    "SingularSystem",
    "ThresholdReport",
    "assemble_product",
    "build_f",
    "build_g",
    "decodability_check",
    "decode",
    "find_evaluation_vector",
    "ggasp_plan",
    "gv_matrix",
    "interpolate",
    "is_mds",
    "make_field",
    "mod_m_transform",
    "mp_plan",
    "mp_recovery_threshold_with_security",
    "optimal_r",
    "p_of_s_empirical",
    "p_of_s_lower_bound",
    "parse_field_spec",
    "parse_scheme_spec",
    "partition",
    "primitive_root_of_unity",
    "product_block_positions",
    "product_class_support",
    "rate_sweep",
    "rate_sweep_fixed_n",
    "resolve_stragglers",
    "run_protocol",
    "security_check",
    "security_matrices",
    "subgroup_elements",
    "symbolic_support",
    "threshold",
    "__version__",
]
