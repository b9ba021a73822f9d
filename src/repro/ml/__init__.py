"""Machine-learning substrate, implemented from scratch.

The paper's two surrogate families — Gaussian Process regression with
RBF/Matérn kernels (Naive BO, per CherryPick) and Extra-Trees ensembles
(Augmented BO) — plus the quasi-random initial design and feature scaling
both optimisers rely on.  No external ML library is used.
"""

from repro.ml.kernels import (
    RBF,
    Kernel,
    Matern12,
    Matern32,
    Matern52,
    Product,
    Sum,
    White,
    kernel_by_name,
)
from repro.ml.gp import GaussianProcessRegressor
from repro.ml.extra_trees import ExtraTreesRegressor
from repro.ml.random_forest import RandomForestRegressor
from repro.ml.sampling import (
    SobolSequence,
    latin_hypercube,
    quasi_random_distinct,
)
from repro.ml.scaling import MinMaxScaler, StandardScaler

__all__ = [
    "Kernel",
    "RBF",
    "Matern12",
    "Matern32",
    "Matern52",
    "Sum",
    "Product",
    "White",
    "kernel_by_name",
    "GaussianProcessRegressor",
    "ExtraTreesRegressor",
    "RandomForestRegressor",
    "SobolSequence",
    "latin_hypercube",
    "quasi_random_distinct",
    "MinMaxScaler",
    "StandardScaler",
]
