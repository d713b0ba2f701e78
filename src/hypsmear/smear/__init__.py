"""Smearing simulator for explicit hyperbolic surfaces."""

from hypsmear.smear.surface import SurfaceModel, load_model
from hypsmear.smear.net import GammaNet, build_net
from hypsmear.smear.chain import (
    SmearChain,
    RatioReport,
    FaceResiduals,
    haar_sample,
    accumulate_chain,
    boundary_residuals,
    ratio_report,
    measure_sandwich,
)

__all__ = [
    "SurfaceModel",
    "load_model",
    "GammaNet",
    "build_net",
    "SmearChain",
    "RatioReport",
    "FaceResiduals",
    "haar_sample",
    "accumulate_chain",
    "boundary_residuals",
    "ratio_report",
    "measure_sandwich",
]
