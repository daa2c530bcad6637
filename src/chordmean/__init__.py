"""chordmean: chord-averaging Dirichlet solvers in disks and balls.

The value of a harmonic function at an interior point P is the average, over
all chords through P, of the linear interpolant of its boundary values at the
chord endpoints.  This package implements that averaging solver and its
biharmonic (Hermite-cubic) extension, Poisson-kernel reference solvers,
harmonic-measure geometry built on the same chords, and exact samplers for
the Brownian exit distributions the averages describe.
"""

from .errors import (
    BadBracket,
    BadDegree,
    BadIndex,
    BadParameter,
    BadResolution,
    ChordMeanError,
    ConfigError,
    DegenerateDirection,
    DimMismatch,
    EmptyCap,
    GradientRequired,
    MissingSeed,
    NotStarShapedFromP,
    NumericalError,
    PointNotInterior,
    PointNotOnBoundary,
    UnsupportedDegree,
)
from .geometry import (
    BallDomain,
    Chord,
    DirectionQuadrature,
    Ellipse2D,
    StarDomain2D,
    build_direction_quadrature,
    chord_through,
    default_direction_quadrature,
    mobius_involution,
    plane_section,
    ray_hit_star,
)
from .boundary import (
    BoundaryData,
    CapSpec,
    HarmonicPolynomial,
    almansi_assemble,
    arc_cap,
    basis_indices,
    cap_indicator,
    constant_data,
    from_callable,
    harmonic_poly,
)
from .poisson import (
    BoundaryQuadrature,
    SolveReport,
    build_boundary_quadrature,
    cap_measure_poisson,
    poisson_kernel,
    poisson_solve,
)
from .averaging import (
    ChordAverageResult,
    cross_section_solve,
    solve_harmonic,
    solve_on_domain,
    chord_interpolant_max,
)
from .biharmonic import (
    hermite_monomial_at_zero,
    solve_biharmonic,
)
from .measure import (
    cap_measure_ratio,
    center_of_mass_check,
    cone_identity_check,
    involution_image_measure,
    star_angle_measure_check,
    subtended_moment,
)
from .brownian import (
    ExperimentReport,
    TravelerStats,
    compare_exit_distributions,
)

__version__ = "0.1.0"
