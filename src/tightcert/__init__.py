"""Contact surgery diagram calculus with machine-checkable tightness
certificates for rational surgeries on the right-handed trefoil."""

from .errors import (
    CalculusError,
    ExcludedSlopeError,
    NoExactTriangleError,
    NormalizationRequiredError,
    NoTightExtensionError,
    ParseError,
)
from .rationals import (
    INF,
    NegContinuedFraction,
    SurgeryCoeff,
    coeff,
    eval_continued_fraction,
    min_split_count,
    neg_continued_fraction,
    pushoff_coeff_from_slope,
    residual_coeff,
    slope_from_pushoff_coeff,
)
from .diagrams import (
    ContactDiagram,
    LegendrianComponent,
    add_trefoil,
    add_unknot,
    cancel_pushoff_pairs,
    contact_pushoff,
    convert_negative,
    convert_positive,
    count_presentations,
    diagram_iso,
    empty_diagram,
    normalize_diagram,
    plus_one_surgery,
    remove_component,
    set_coeff,
    stabilize,
    tower_diagram,
    trefoil_surgery_diagram,
)
from .topology import (
    FramedLink,
    HomologyResult,
    Manifold,
    det_signed,
    h1,
    linking_matrix,
    smith_normal_form,
    triangle_det_check,
)
from .floer import (
    Contradiction,
    Interval,
    Propagation,
    RankDb,
    TriangleInstance,
    TriangleSolution,
    base_facts,
    engine_triangles,
    propagate,
    tower_triangles,
    triangle_solve,
    unknot_triangle,
)
from .certify import (
    Certificate,
    ContactNode,
    Step,
    SurgeryEdge,
    VerificationResult,
    build_tower_chain,
    certify_tight,
    check_certificate,
    rules,
)

__version__ = "0.1.0"
