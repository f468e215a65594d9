"""Spectral variational multiscale solvers for 1D transient
advection-diffusion, with Galerkin and tau-stabilized baselines, offline
kernel tables and experiment tooling."""

from .analysis import (ErrorReport, ExperimentPreset, PRESETS, error_norms,
                       convergence_order, reference_solution, run_experiment,
                       run_method)
from .baselines import StabChoice, cfl_bound, run_galerkin, run_stabilized, tau
from .kernels import (ElementParams, closed_form_kernels, element_params,
                      beta, mode_value)
from .mesh_fem import (DirichletBC, Mesh1D, TimeGrid, TriDiag, TriDiagSystem,
                       build_uniform_mesh, solve_tridiag)
from .table import (KernelTable, TableGrid, generate_table, interpolate,
                    load_table, save_table)
from .vms_feasible import (DirectKernelProvider, FeasibleConfig,
                           NullKernelProvider, TableKernelProvider,
                           run_feasible)
from .vms_full import FullVmsConfig, run_full

__version__ = "0.1.0"
