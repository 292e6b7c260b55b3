"""Exact symbolic analysis of codimension-one complete-intersection webs
on complex projective n-space: critical schemes, dicriticity and
linearizability verdicts, bi-degrees, and the cohomological certificates
that witness algebraicity and non-empty caustics."""

from .cohomcalc import (
    CausticCertificate,
    CohomClass,
    MultiDegreeData,
    bott_number,
    caustic_certificate,
    chern_T,
    integrate,
    nf,
    script_N,
)
from .contactgeom import (
    BiHomogPde,
    Chart,
    ChartForm,
    ChartTransition,
    RatFunc,
    chart_form,
    covariance_check,
    dual_pde,
    incidence_form,
    is_algebraic_pde,
    pde_equiv,
    rehomogenize,
    standard_atlas,
    transition,
    transport_form,
    transport_point,
)
from .idealcalc import (
    GREVLEX,
    LEX,
    IdealBasis,
    MonomialOrder,
    PairCapExceeded,
    block_order,
    buchberger,
    eliminate,
    is_trivial_ideal,
    normal_form,
)
from .polycore import (
    MultiPoly,
    PolyMatrix,
    UsageError,
    VarTable,
    exact_divide,
    is_bihomogeneous,
    multivar_gcd,
    partial_derivative,
    poly_adjugate,
    poly_det,
    scalar_equal,
    substitute,
)
from .webanalysis import (
    CertificationReport,
    ChartWebData,
    CiWeb,
    WebVerdict,
    caustic_generators,
    certify_algebraicity,
    chart_web_data,
    is_algebraic_web,
    is_dicritical,
    is_hyperdicritical,
    is_linearizable_pde,
    multidegree,
    multidegree_data,
    smoothness_chart_check,
    weight,
)

__version__ = "0.1.0"
