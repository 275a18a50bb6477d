"""Numerical toolkit for axisymmetric bubble-ring cross-sections.

Geometry functionals and inequalities of convex meridional sections, an
exterior stream-function boundary-integral solver with circulation
normalization, residual probes of the overdetermined dynamic condition,
and an explicit low-Weber non-existence certificate.  The solver reads
the ring kernel's complete elliptic integrals only through one
arithmetic-geometric mean per orbit of node pairs (`elliptic._agm`,
through `elliptic._nome_agm`), whose A, T and nome sum give its
single-layer coefficient directly; the package exports no pointwise
kernel and no general K(k), E(k).
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
from .solver import (
    BoundarySolution,
    ResidualReport,
    SolverError,
    dynamic_residual,
    optimal_W_lam,
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
