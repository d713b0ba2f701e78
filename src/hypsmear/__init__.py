"""hypsmear: hyperbolic straight-simplex volumes, volume bounds through
tube-packing arguments, and a smearing Monte-Carlo simulator for hyperbolic
surfaces."""

from hypsmear.hypgeom import (
    HPoint,
    Isometry,
    minkowski,
    to_klein,
    origin,
)
from hypsmear.volume import (
    QuadratureSpec,
    VolumeResult,
    VolumeConstants,
    klein_volume,
    signed_volume,
    lobachevsky,
    ideal_regular_volume,
    regular_simplex,
    regular_simplex_volume,
    triangle_signed_area,
)
from hypsmear.bounds import (
    VLEstimate,
    GapCertificate,
    tube_factor,
    vl_estimate,
    l0_estimate,
    gap_bound,
    solve_k,
)

__version__ = "0.1.0"

__all__ = [
    "HPoint",
    "Isometry",
    "minkowski",
    "to_klein",
    "origin",
    "QuadratureSpec",
    "VolumeResult",
    "VolumeConstants",
    "klein_volume",
    "signed_volume",
    "lobachevsky",
    "ideal_regular_volume",
    "regular_simplex",
    "regular_simplex_volume",
    "triangle_signed_area",
    "VLEstimate",
    "GapCertificate",
    "tube_factor",
    "vl_estimate",
    "l0_estimate",
    "gap_bound",
    "solve_k",
]
