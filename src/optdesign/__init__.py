"""Approximate optimal experimental design on discretized design spaces.

Solvers for the matrix-mean criterion family, duality certificates via the
equivalence theorem, supporting-hyperplane geometry of optimal supports,
saturation (norm-injectivity) bounds, and Loewner-order admissibility audits
through conditional-model decompositions.
"""

import os as _os

# Cap BLAS pools before numpy is first imported anywhere in the package.
if "OPTDESIGN_THREADS" in _os.environ:
    _threads = _os.environ["OPTDESIGN_THREADS"]
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

from .certificates import (  # noqa: E402
    Certificate,
    CertifyReport,
    GarzaReport,
    PolytopeReport,
    build_certificate,
    certify,
    exp_saturation_check,
    garza_report,
    polytope_report,
    rescale_invariance_check,
)
from .conditional import (  # noqa: E402
    AdmissibilityVerdict,
    ConditionalModel,
    ProductAuditReport,
    SliceDecomposition,
    SliceMap,
    conditional_audit,
    decompose,
    dominates,
    find_dominator,
    marginal_design,
    marginal_model,
    product_audit,
    recompose_check,
)
from .criteria import Criterion, parse_criterion, phi, polar  # noqa: E402
from .designs import (  # noqa: E402
    Design,
    design,
    info_matrix,
    load_design,
    merge_close,
    mix_designs,
    prune,
)
from .errors import (  # noqa: E402
    DegenerateModelError,
    DomainError,
    EmptyDesignError,
    InconsistencyError,
    MustTruncateError,
    NoConditionalModelError,
    OptDesignError,
    TruncationSlackError,
    ValidationError,
)
from .models import (  # noqa: E402
    CandidateSet,
    DesignSpace,
    ModelSpec,
    default_candidates,
    discretize,
    eval_f,
    interval,
    load_model,
    make_model,
    truncate,
)
from .solver import SolveReport, SolverOptions, refine_weights, solve  # noqa: E402
