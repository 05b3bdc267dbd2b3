"""Exact-arithmetic classification of supersingular filtered phi-modules over
Q_p: canonical families, the coarse moduli coordinate, Wintenberger types,
and neutral-component monodromy groups.
"""

from .classify import (
    Branch,
    CInvariant,
    IsoClass,
    ModuliPoint,
    MuDegenerateClass,
    MuGenericClass,
    NuInfinityClass,
    ProdClass,
    WintenbergerType,
    canonical_class,
    c_of_module,
    c_of_mu_params,
    c_of_point,
    is_isomorphic,
    mu_roots,
    point_from_module,
    wintenberger_type,
)
from .lattices import (
    LatticeBasis,
    Region,
    RegionWithoutLattice,
    c_in_pZp,
    construct_lattice,
    valuation_region,
    verify_lattice,
)
from .linalg import (
    LieAlgebraBasis,
    Matrix,
    SubspaceBasis,
    bracket,
    char_poly,
    is_solvable,
    kernel,
    lie_closure,
    minimal_polynomial,
    row_reduce,
)
from .moduli import (
    EigenData,
    NotSemistable,
    PluckerPoint,
    c_intrinsic,
    companion_phi,
    crosscheck_c_definitions,
    iota,
    is_semistable,
    mu_inverse,
    mu_map,
    nu_map,
    plucker_c,
    plucker_of_plane,
    verify_invariant_ring,
)
from .modules import (
    AdmissibilityReport,
    DegenerateDenominator,
    FilteredPhiModule,
    InadmissibleModule,
    InvariantViolation,
    Iso,
    Mu,
    Nu,
    PreconditionFailed,
    Prod,
    SkewForm,
    build_family,
    check_s1_s2,
    construct_skew_form,
    is_admissible,
    module_from_record,
    module_to_record,
    validate_geometric_params,
    verify_s3,
)
from .monodromy import (
    BlockData,
    GroupType,
    NoCentralPower,
    ScalarsMissing,
    UnclassifiedDimension,
    group_type,
    is_semisimple_module,
    monodromy_group,
    monodromy_lie,
    phi_central_order,
    structural_membership_check,
    toric_generators,
)
from .scalars import (
    INF,
    Cyclotomic,
    NoRootError,
    PrecisionExhausted,
    PrimeContext,
    hensel_root,
    normalize,
    valuation,
    zeta,
)
from .scan import ScanRow, scan
from .weil import (
    PrimeTooSmall,
    WeilPolynomial,
    brute_force_ss_weil_deg4,
    conjugacy_orbit,
    enumerate_ss_weil_deg4,
    is_ss_weil,
)

__version__ = "0.1.0"
