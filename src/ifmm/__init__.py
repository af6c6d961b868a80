"""Inverse fast multipole method: an O(N) approximate direct solver and
preconditioner for dense kernel matrices in hierarchical (H2) format."""

from .factor import IFMMFactorization, SingularPivotError, factorize
from .graph import ExtendedGraph, assemble_extended_graph, estimate_sigma0, h2_dense
from .h2 import H2Operators, chebyshev_operators, initialize_weights
from .kernels import (Kernel, Scene, benchmark_kernel, concentric_shells,
                      cube_uniform, icosphere, nonsymmetric_kernel, rpy_kernel,
                      scaled_d, sphere_lattice, sphere_surface)
from .krylov import IterationTrace, block_diag_preconditioner, gmres, h2_matvec
from .lowrank import BasisUpdate, weighted_basis_union
from .tree import (Cluster, ClusterTopology, DegenerateGeometryError,
                   DuplicatePointsError, NonFiniteGeometryError, Octree,
                   build_octree, compute_topology)

__version__ = "0.1.0"
