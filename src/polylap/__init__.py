"""Graph poly-Laplacian regression on torus point clouds.

Build epsilon-kernel graphs on sampled clouds, solve the regularized
denoising system (tau * Delta^s + I) u = y matrix-free, and compare against
exact continuum references to measure bias, variance, and convergence rates.
"""

from .geometry import (
    INDICATOR,
    PLATEAU,
    UNIFORM,
    DensitySpec,
    KernelProfile,
    sample_cloud,
    sigma_eta,
    torus_distance,
)
from .graph import (
    IntervalLaplacian,
    KernelGraph,
    apply_poly_laplacian,
    build_graph,
    degree_statistics,
    dense_spectrum,
    dirichlet_energy,
    l2_mu_n,
)
from .solver import (
    SolveReport,
    SolverError,
    ansatz_signal,
    check_residual,
    solve_resolvent,
    solve_resolvent_dense,
)
from .continuum import (
    FourierFunction,
    bias_bound,
    continuum_laplacian_uniform,
    continuum_solve_uniform,
    exact_bias,
)
from .experiments import (
    ExperimentRecord,
    NoiseSpec,
    Schedule,
    TrialConfig,
    consistency_sweep,
    degree_concentration_check,
    gen_labels,
    make_operator,
    rate_sweep,
    run_trial,
    write_records_csv,
)

__version__ = "0.1.0"
