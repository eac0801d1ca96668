"""Deterministic influence maximization on graphs via kernel variance minimization.

Select influential nodes by greedily minimizing the posterior standard
deviation (power function) of a Gaussian process whose covariance is a graph
basis function kernel, and compare against Independent Cascade, PageRank, and
degree baselines.
"""

__version__ = "0.1.0"

from .baselines import ICConfig, SpreadEstimate, ic_greedy_select, ic_score, ic_spread, pagerank, pagerank_top_n
from .compare import ComparisonReport, run_comparison, write_report_csv
from .gpr import GprModel, fit, fit_coefficients, power_direct, predict
from .graphs import (
    Graph,
    LaplacianKind,
    degree_top_n,
    generate_points_graph,
    graph_hash,
    laplacian,
    load_graph,
    save_graph,
    uniform_points,
)
from .kernels import (
    GbfKernel,
    clamp_spectrum,
    custom_kernel,
    diffusion_kernel,
    kernel_column,
    kernel_diag,
    kernel_matrix,
    parse_kernel_spec,
    read_kernel_spec,
    spectral_coefficients,
    spline_kernel,
)
from .pgreedy import SelectionState, SelectorConfig, power_update_step, select_nodes
from .spectral import Spectrum, eigendecompose, gft
from .tuning import CvResult, CvSpec, cv_error, grid_search, kfold_partition, log_grid
