"""Numerical toolkit for axisymmetric bubble-ring cross-sections.

Geometry functionals and inequalities of convex meridional sections, an
exterior stream-function boundary-integral solver with circulation
normalization, residual probes of the overdetermined dynamic condition,
and an explicit low-Weber non-existence certificate.  The solver's ring
kernel reads the complete elliptic integrals only through their
logarithmic split (`elliptic._log_split`, through
`kernel._modulus_factors`), from one arithmetic-geometric mean; the
package exports no general K(k), E(k).
"""

from .elliptic import ModulusError
from .shapes import (
    CrossSection,
    Disk,
    Ellipse,
    FourierStar,
    InvalidShapeError,
    Polygon,
    boundary_nodes,
    load_shape,
    shape_from_dict,
    shape_to_dict,
)
from .geometry import (
    GeometryReport,
    PhysicalParams,
    QuadratureError,
    geometry_report,
    outer_radius_ratio,
    normalize,
    surface_set_length,
    weber_number,
    width_height,
)
from .kernel import ring_kernel
from .solver import (
    BoundarySolution,
    ResidualReport,
    SolverError,
    dynamic_residual,
    evaluate_stream,
    solve_dirichlet,
)
from .search import SearchResult, ShapeFamily, residual_minimize
from .certify import (
    BoundCertificate,
    Terms,
    explicit_bound,
    norbury_scaling_probe,
    universal_bound,
    verdict,
)

__version__ = "0.1.0"
