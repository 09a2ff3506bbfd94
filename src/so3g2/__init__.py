"""SO(3)-structures on six-dimensional Lie algebras with invariant torsion.

Modules cover the exterior algebra scaffolding, the binary-form
calculus, the torsion variety and its classification, curvature, the
half-flat evolution in closed form and by direct integration, and the
assembly of the resulting seven-dimensional metrics.
"""

from .exterior import KForm, CEOperator, wedge, interior, apply_d, d_squared_residual
from .binaryform import (
    BinaryForm,
    GL2,
    act,
    discriminant,
    resultant,
    split_b1_b2,
    q_map,
    q_invert,
    sigma3_element,
)
from .stableform import standard_forms, hitchin_dual, volume_gamma
from .variety import (
    ModelPoint,
    TorsionData,
    LieAlgebraClass,
    structure_constants,
    torsion_of,
    membership_rank,
    classify,
    killing_form,
)
from .curvature import TCoords, levi_civita_oracle, ricci_closed_form
from .flow import (
    FlowState,
    EndpointInfo,
    direct_ode_oracle,
    endpoint_classify,
    flow_torsion_cubic,
    frame_change_torsion,
    hamiltonian,
)
from .g2 import assemble_g2, bs_metric, check_closedness, smoothness_check, triality_action

__version__ = "0.1.0"
