"""Tumor growth dynamics: Gompertz, neural ODE, and UDE fits with
forecasting and sparse symbolic recovery."""

from .dataio import (
    NormalizationMap,
    SigmoidFit,
    TumorSeries,
    fit_sigmoid,
    load_series,
    make_norm_map,
    sample_interpolant,
)
from .forecast import ForecastResult, SplitSpec, forecast, split
from .models import (
    DynamicsModel,
    GompertzModel,
    NeuralODEModel,
    TrainConfig,
    TrainReport,
    UDEModel,
    train,
)
from .neuralnet import MLPArch, MLPParams, init_params
from .odeint import GompertzParams, Trajectory, gompertz_exact, gompertz_rhs
from .symrec import (
    BasisSet,
    SparseFit,
    build_design_matrix,
    format_expression,
    sample_physical_derivatives,
    sparse_regress,
)

__version__ = "0.1.0"
