"""Exact plethysm and Kronecker coefficients, discrete-tomography counters,
and the parsimonious reduction chain connecting them."""

__version__ = "0.1.0"

from .coefficients import (
    CoefficientResult,
    check_duality,
    general_plethysm,
    jacobi_trudi_coeff,
    kronecker,
    m2_closed_form,
    plethysm_coeff,
    weight_multiplicity,
)
from .partitions import (
    Composition,
    Partition,
    canonical,
    format_partition,
    is_partition,
    parse_partition,
    partitions_of,
    size,
    transpose,
)
from .reductions import (
    PlethysmInstance,
    TriviallyZero,
    embed_pyramid_3d,
    gamma_embed,
    gamma_extract,
    inner_lift,
    kronecker_plethysm_triple,
    promise_to_plethysm,
    resolve_coefficient,
    symmetrize_2d,
)
from .restricted import (
    PsiDecomposition,
    count_cone_ssyt,
    psi_decompose,
    psi_membership,
)
from .sympoly import NotSchurPositiveError, SymPoly, decompose_schur, plethysm_poly, schur_poly
from .tableaux import dim_weyl, kostka
from .tomography import (
    AXIS_STATE_CAP,
    SizeCapError,
    SymInstance,
    XRayInstance2D,
    axis_marginals,
    beta,
    complete_pyramid,
    coordinate_sum,
    count_2dxray,
    count_3dxray,
    count_instance,
    count_point_sets,
    count_pyramids,
    count_sym_2dxray,
    in_cone,
    iota,
    is_promise_instance,
    is_pyramid,
    sum_marginal,
    xi,
)
from .characters import sn_character
