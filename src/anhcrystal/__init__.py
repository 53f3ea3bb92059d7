"""Euclidean Gibbs measure toolkit for a quantum anharmonic crystal.

A desk-scale simulator and verifier for the trajectory-field Gibbs measure of
a lattice of quantum oscillators with a Gaussian double-well one-site
potential: exact spectral sampling of the reference Gaussian field,
importance-sampled and MCMC estimators for the perturbed measure, the
rod-cluster expansion with its interpolation calculus, light-mass and
high-temperature thresholds, and an exact-diagonalization oracle.
"""

from .covariance import CovarianceKernel, convex_decomposition
from .grid import FieldGrid
from .lattice import Boundary, Lattice, RodMode
from .params import (ModelParams, RescaledParams, beta_threshold, epsilon_of_m,
                     field_threshold, mass_threshold, rescale, unrescale)
from .potential import auxiliary_potential, nth_derivative
from .sampler import BoundaryCondition, Ensemble, EstimatorResult, expectation

__version__ = "0.1.0"

__all__ = [
    "Boundary", "BoundaryCondition", "CovarianceKernel", "Ensemble",
    "EstimatorResult", "FieldGrid", "Lattice", "ModelParams",
    "RescaledParams", "RodMode", "auxiliary_potential",
    "beta_threshold", "convex_decomposition", "epsilon_of_m", "expectation",
    "field_threshold", "mass_threshold", "nth_derivative", "rescale",
    "unrescale",
]
