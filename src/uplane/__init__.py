"""uplane: periods, regularized determinants, Kodaira fibers and
determinant-line holonomies for Weierstrass elliptic families over the u-plane.
"""

from .curves import (
    ComplexPoly,
    CurveFamily,
    WeierstrassCurve,
    discriminant,
    discriminant_poly,
    family_from_dict,
    family_to_dict,
    j_invariant,
    load_family,
    to_v_chart,
)
from .errors import (
    AgmBranchFailure,
    BadNf,
    ConvergenceFailure,
    CrossCheckFailed,
    DegreeMismatch,
    DivisionByZero,
    EulerMismatch,
    LoopTooCloseToSingularity,
    NonIntegerWinding,
    NonMinimal,
    NotSingular,
    OddStructure,
    SchemaError,
    SingularCurve,
    SingularFiber,
    StencilCrossesSingularity,
    UPlaneError,
)
from .families import (
    coalesced_family,
    isotrivial_family,
    sample_family,
)
from .geometry import (
    ANOMALY_RATIO,
    AnomalyRecord,
    UPlanePoint,
    anomaly_check,
    d_tau_du,
    f1,
    is_isotrivial,
    scalar_curvature,
    uplane_point,
)
from .holonomy import (
    Chart,
    CurvatureLedger,
    HolonomyResult,
    LoopSpec,
    Operator,
    Orientation,
    canonical_trivialization_check,
    curvature_ledger,
    signature_from_monodromy,
)
from .kodaira import (
    AT_INFINITY,
    FiberConfiguration,
    FiberReport,
    KodairaType,
    SurfaceReport,
    classify_fiber,
    find_singular_fibers,
    surface_report,
    table1_expected,
)
from .modular import (
    EVEN_STRUCTURES,
    ODD_STRUCTURE,
    SpinStructure,
    dedekind_eta,
    eisenstein_e4,
    eisenstein_e6,
    epstein_zeta_logdet,
    epstein_zeta_prime0,
    j_from_tau,
    reduce_tau,
    theta_ab,
)
from .periods import (
    Periods,
    agm,
    compute_periods,
    cubic_roots,
    periods_along_family,
    reduce_periods,
)
from .spectral import (
    CONTINUATION_OVER_CLOSED_FORM,
    det_dirichlet_annulus,
    det_dirichlet_flat,
    det_prime_laplacian,
    det_twisted,
    modular_discriminant,
    quillen_norm_from_periods,
    quillen_norm_sigma_hat,
)

__version__ = "0.1.0"
