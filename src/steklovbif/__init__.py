"""Steklov spectra on meshed manifolds-with-boundary and bifurcation of
product Yamabe metrics."""

from .bifurcation import (
    DegeneracyRecord,
    certify_bifurcation,
    classify,
    enumerate_instants,
    find_degeneracy_instant,
)
from .factors import ClosedFactorSpectrum, flat_torus_spectrum, from_list
from .fem import AssembledForms, assemble, scale_metric_forms
from .mesh import Mesh, generate_disk, generate_interval, load_mesh, refine_uniform, validate
from .product import (
    ProductModel,
    conformal_mean_curvature,
    load_model,
    mean_curvature_gt,
    morse_index,
    nullity,
    yamabe_residual,
)
from .spectral import SpectrumSlice, robin_steklov_spectrum, steklov_spectrum

__all__ = [
    "AssembledForms",
    "ClosedFactorSpectrum",
    "DegeneracyRecord",
    "Mesh",
    "ProductModel",
    "SpectrumSlice",
    "assemble",
    "certify_bifurcation",
    "classify",
    "conformal_mean_curvature",
    "enumerate_instants",
    "find_degeneracy_instant",
    "flat_torus_spectrum",
    "from_list",
    "generate_disk",
    "generate_interval",
    "load_mesh",
    "load_model",
    "mean_curvature_gt",
    "morse_index",
    "nullity",
    "refine_uniform",
    "robin_steklov_spectrum",
    "scale_metric_forms",
    "steklov_spectrum",
    "validate",
    "yamabe_residual",
]

__version__ = "0.1.0"
