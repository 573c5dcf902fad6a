"""Elastic latent shape analysis on triangle meshes.

Core pipeline: load meshes, compare them with a parametrization-blind
varifold distance, measure deformations with a second-order invariant
Sobolev metric, restrict deformations to a data-driven latent basis with a
pullback Riemannian metric, and solve registration / interpolation /
extrapolation / generation problems in that latent space.
"""

from .mesh import (
    DegenerateFaceError,
    MeshError,
    MeshParseError,
    TriangleMesh,
    cotan_laplacian,
    face_frames,
    load_mesh,
    mesh_diameter,
    normalize_unit_diameter,
    save_mesh,
    vertex_volumes,
)
from .metric import MetricCoefficients, MetricTerms, h2_inner, h2_inner_terms, metric_terms, path_energy
from .varifold import VarifoldTarget, varifold_sqdist, varifold_value_and_grad
from .latent import (
    LatentBasis,
    decode,
    gram,
    latent_path_energy,
    load_basis,
    save_basis,
    substitute_shape_block,
)
from .solvers import (
    MultiscaleSchedule,
    OptimizerConfig,
    SolveReport,
    SolverFailure,
    geodesic_bvp,
    geodesic_ivp,
    minimize,
    parametrized_geodesic,
    relaxed_geodesic,
    retrieve_latent,
)
from .basis_builder import PCAResult, TangentSample, assemble_basis, pca, pose_tangents, shape_tangents
from .generation import GmmModel, fit_gmm, generate_shape, load_gmm, sample_code, save_gmm
from .evaluation import EvalReport, registered_mse

__version__ = "0.1.0"
