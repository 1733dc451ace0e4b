"""Conservative view-frustum culling of curved bounding bins.

An axis-aligned box in parameter space ("bin") is pushed through a
twice-differentiable mapping; the image is classified against the six
frustum planes via second-order approximation and quadratic box extrema,
with a configurable inflation factor keeping the test conservative.
Includes a geodetic terrain quadtree application, the classic 8-corner
bounding-box baseline, sampling oracles, and a benchmark CLI.
"""

from .baseline import (
    ClassificationRun,
    ComparisonReport,
    UnsoundFlag,
    classify_aabb8,
    compare_classifications,
    sample_oracle,
    world_aabb_of_bin,
)
from .cull import (
    Classification,
    CullConfig,
    ExtremaMode,
    PlaneState,
    classify_against_plane,
    classify_bin,
    inflate_bin,
    plane_quadratic,
)
from .frustum import (
    CameraPose,
    Frustum,
    Plane,
    frustum_corners,
    frustum_from_camera,
)
from .mapping import (
    EARTH_RADIUS_M,
    GeodeticParams,
    MapJet,
    identity_jet,
    identity_point,
    jet_fd_error,
    sphere_fd_error,
    sphere_jet,
    sphere_point,
)
from .quadratic import (
    Box3,
    Extrema,
    ScalarQuadratic,
    box_extrema_exact,
    box_extrema_grid,
    box_extrema_nine_point,
    stationary_point,
)
from .scenario import (
    Scenario,
    ScenarioError,
    load_scenario,
    orbit_cameras,
    parse_scenario,
)
from .terrain import (
    GeoTile,
    HeightField,
    IngestError,
    Method,
    MinMaxPyramid,
    SynthKind,
    TerrainConfig,
    TraversalStats,
    build_minmax_pyramid,
    classify_tile,
    load_heightfield,
    root_tiles,
    subdivide,
    synth_heightfield,
    tile_bin,
    tile_from_indices,
    traverse,
    write_heightfield,
)

__version__ = "0.1.0"
