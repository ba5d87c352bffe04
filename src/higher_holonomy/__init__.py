"""Numerical higher parallel transport for matrix Lie 2-groups.

The package realizes the two directions of the dictionary between surface
transport and pairs (A, B) of Lie-algebra-valued differential forms:
reconstruction by nested initial value problems, and extraction by
difference quotients, together with the BF criticality check and
loop-space transgression built on top of them.
"""

__version__ = "0.1.0"

from .bf_theory import (
    GridSpec,
    PairingSpec,
    action_decomposition,
    beta_field,
    bf_action,
    criticality_check,
)
from .errors import (
    CompositionError,
    ConfigError,
    DomainError,
    ExpressionError,
    FakeCurvatureError,
    HolonomyError,
    MembershipError,
    NumericalError,
    TargetMatchingError,
)
from .extraction import (
    FdConfig,
    compose_z2_morphisms,
    extract_one_form,
    extract_transformation,
    extract_two_form,
    residual_prop1,
    residual_prop2,
    residual_prop3,
)
from .forms import (
    ConnectionPair,
    GroupValuedMap,
    OneFormField,
    TwoFormField,
    alpha_wedge,
    curvature_three_form,
    curvature_two_form,
    eg_pair,
    fake_curvature_residual,
    one_form_from_expressions,
    symbolic_curvature,
    two_form_from_expressions,
    zero_one_form,
)
from .geometry import (
    Bigon,
    Loop,
    Path,
    SmoothingProfile,
    affine_chart,
    bigon_between,
    bigon_hcompose,
    bigon_vcompose,
    constant_path,
    contraction_bigon,
    identity_bigon,
    line_path,
    loop_from_expressions,
    loop_to_path,
    path_compose,
    path_from_expressions,
    path_reverse,
    reparameterize,
    standard_bigon,
)
from .higher_group import (
    CrossedModule,
    TwoMorphismValue,
    alpha_g_star,
    alpha_star,
    hcompose,
    make_aut_inner,
    make_b_abelian,
    make_eg,
    t_star,
    two_morphism,
    vcompose,
    verify_axioms,
)
from .lie_core import (
    AlgebraElement,
    GroupDescriptor,
    GroupElement,
    adjoint,
    bracket,
    exp_map,
    gl,
    so,
    su,
    u1,
    unipotent,
)
from .transgression import (
    LoopTangent,
    loop_holonomy,
    loop_path_two_morphism,
    transgressed_A,
    transgressed_phi,
    transgression_consistency,
)
from .transport import (
    IntegratorConfig,
    derivative_2functor,
    modification_whisker,
    path_transport,
    stokes_check,
    surface_driver,
    surface_transport,
    transformation_transport,
    two_functor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
