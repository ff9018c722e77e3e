"""Stochastic linear complementarity solver on extended second order cones."""

from .cone import classify_complementarity
from .merit import merit_theta
from .problem import ProblemSpec, builtin_example, load_problem
from .risk import cvar_empirical, theta_star, var_empirical
from .solver import SolverConfig, StageResult, solve, wolfe_search

__version__ = "0.1.0"

__all__ = [
    "classify_complementarity",
    "merit_theta",
    "ProblemSpec",
    "builtin_example",
    "load_problem",
    "cvar_empirical",
    "var_empirical",
    "theta_star",
    "SolverConfig",
    "StageResult",
    "solve",
    "wolfe_search",
]
