"""The product model (M1 x M2, g1 + t*g2) and its Jacobi spectrum.

The closed factor enters through its Laplace spectrum, the boundary factor
through assembled P1 forms; separation of variables turns the Jacobi
operator at parameter t into the family of boundary eigenvalues rho_j at
bulk coefficients c = t * rho_i.  Morse index and nullity count branches
below / at the rescaled mean curvature Hhat = (m2-1)/(m-1) * H2.  Branch
(i, j) lies below Hhat at t exactly when t * rho_i < c_j*, where branch j
meets Hhat, so Morse indices and nullities are arithmetic on the table of
c_j*: one linear eigensolve per model (``spectral.level_crossings``), on
one S(0) that also counts the c_j* and refuses an Hhat on a Steklov
eigenvalue.  It returns each c_j* with the window [low, high] in which it
is proved, by a residual bound or by inertia counts where the bound cannot
tell; this layer reads the windows and forms none.  ``InstantTable`` lists
every instant c_j* / rho_i, i >= 1, once per model, the one place where t,
rho_i and c_j* meet; its edge is the one cutoff rule.  ``check_edge`` tests
every t, positive and finite; ``anchor_index`` checks the table by inertia.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import spectral
from .errors import (ConfigError, CutoffExhaustedError, DegenerateInstantError, NumericalError,
                     PreconditionError)
from .factors import ClosedFactorSpectrum, flat_torus_spectrum, load_spectrum, spectrum_from_dict
from .fem import AssembledForms, assemble
from .mesh import Mesh, mesh_from_dict
from .serialize import read_json_object, typed, typed_rows

# conformal_mean_curvature's checks of harmonicity and of the boundary normalization
HARMONIC_TOL = 1e-8
NORM_TOL = 1e-8


class InstantTable(NamedTuple):
    """Every degeneracy instant t = c_j* / rho_i, i >= 1, of a model,
    descending, ties by i, then j, with i, j, mu_i, rho_i and the window
    [low, high] that ``level_crossings`` proved c_j* in, indexed alike.  Branch
    (i, j) at t is certainly below Hhat when t * rho_i < low, and possibly
    when t * rho_i <= high.  ``steklov`` is the row i = 0: the c_j* less
    the constant's.  ``edge`` is (rho_i, high) of the last factor index's
    highest instant, j = 0, the top of its window; with no c_j* nothing,
    and with the constant alone listed (rho_i = 0) everything, lies at or
    below it."""

    t: np.ndarray
    i: np.ndarray
    j: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    low: np.ndarray
    high: np.ndarray
    steklov: int
    edge: tuple

    def truncated(self, t: float) -> bool:
        """Whether t lies at or below the edge: t * rho_i <= high."""
        return bool(t * self.edge[0] <= self.edge[1])

    def sides(self, t: float) -> tuple:
        """(below, near): masks of the entries whose branch at t is certainly
        below Hhat, and of those whose window holds t * rho_i."""
        c = t * self.rho
        below = c < self.low
        return below, ~below & (c <= self.high)


@dataclass(frozen=True, eq=False)
class ProductModel:
    """Product of a closed factor (spectrum) with a meshed boundary factor."""

    factor: ClosedFactorSpectrum
    boundary_mesh: Mesh
    boundary_forms: AssembledForms
    H2: float

    def __post_init__(self):
        if self.m < 3:
            raise PreconditionError(f"product dimension m = m1+m2 = {self.m} must be >= 3")

    @property
    def m1(self) -> int:
        return self.factor.dim

    @property
    def m2(self) -> int:
        return self.boundary_mesh.dim

    @property
    def m(self) -> int:
        return self.m1 + self.m2

    @property
    def Hhat(self) -> float:
        return (self.m2 - 1) / (self.m - 1) * self.H2

    @cached_property
    def critical_windows(self) -> np.ndarray:
        """The rows (c_j*, low, high) of ``level_crossings``: each c_j* with
        rho_j(c_j*) = Hhat, one per Steklov eigenvalue sigma_j < Hhat,
        descending in j, and the window [low, high] it is proved in; none
        for Hhat <= 0.  Solved once per model, on first use, from one S(0):
        the number of c_j* above c is certain at every c outside the
        windows.  When the inertias of S(0) - Hhat B_bb just below and just
        above Hhat differ, Hhat is a Steklov eigenvalue and the operator is
        degenerate for every t.  A group of c_j* that the residual bound
        cannot prove, such as one at rounding level, takes inertia counts
        beside it, which prove it only when the solved root is accurate to
        its window (on disk level 2, not 4); otherwise EigensolverError.
        """
        hhat = self.Hhat
        return spectral.level_crossings(self.boundary_forms, hhat) if hhat > 0 else np.empty((0, 3))

    @cached_property
    def instants(self) -> InstantTable:
        """The ``InstantTable`` of the c_j*, built once, on first use."""
        c_star, low, high = self.critical_windows.T
        rho, mu = map(np.array, zip(*self.factor.entries))
        i, j = np.indices((len(rho), len(c_star)))[:, 1:].reshape(2, -1)  # i >= 1, then j
        t = c_star[j] / rho[i]
        order = np.argsort(-t, kind="stable")  # ties keep i, then j
        i, j = i[order], j[order]
        return InstantTable(t[order], i, j, mu[i], rho[i], low[j], high[j],
                            max(len(c_star) - 1, 0), (rho[-1], high[0] if len(c_star) else -np.inf))


def _check_t(t: float) -> None:
    """Raise PreconditionError unless t, a metric scale, is positive and finite."""
    if not 0 < t < math.inf:  # a NaN fails every comparison
        raise PreconditionError(f"metric parameter t must be positive and finite, got {t}")


def mean_curvature_gt(model: ProductModel, t: float) -> float:
    """Constant boundary mean curvature of the product metric at parameter t."""
    _check_t(t)
    return model.Hhat / math.sqrt(t)


def check_edge(model: ProductModel, t: float) -> None:
    """Raise PreconditionError unless t is positive and finite, and
    CutoffExhaustedError when it lies at or below the instant table's edge."""
    _check_t(t)
    if model.instants.truncated(t):
        raise CutoffExhaustedError(f"factor spectrum cutoff {model.factor.cutoff:g} exhausted at "
                                   f"t={t:g} before the lowest branch cleared Hhat={model.Hhat:g}")


def branch_sides(model: ProductModel, t: float) -> tuple:
    """``InstantTable.sides`` of the model at t, which ``check_edge`` must
    pass; nothing is counted or solved."""
    check_edge(model, t)
    return model.instants.sides(t)


def morse_index(model: ProductModel, t: float) -> int:
    """Multiplicity-weighted count of Jacobi branches strictly below Hhat.

    Ill-defined where some t * rho_i lies in the window of a c_j*, where the
    table cannot tell; that raises rather than returning a coin flip.
    """
    below, near = branch_sides(model, t)
    table = model.instants
    if near.any():
        i = table.i[near].min()
        raise DegenerateInstantError(f"degenerate at t={t:.12g}: {np.sum(table.i[near] == i)} "
                                     f"branch(es) of factor index i={i} meet Hhat="
                                     f"{model.Hhat:.12g} within the proved window of c_j*")
    return int(table.steklov + table.mu @ below)


def nullity(model: ProductModel, t: float) -> int:
    """Multiplicity-weighted count of branches that may meet Hhat at t: those
    whose c_j*'s window holds t * rho_i."""
    return int(model.instants.mu @ branch_sides(model, t)[1])


def anchor_index(model: ProductModel, t: float, index: int) -> None:
    """Count by inertia the branches below Hhat of each factor index from 1
    through the first whose row of the instant table is empty; raise unless
    every count equals its row and, with the Steklov row, they sum to index."""
    table, factor = model.instants, model.factor
    rows = np.bincount(table.i[branch_sides(model, t)[0]], minlength=len(factor)).tolist()
    last = next((i for i in range(1, len(rows)) if rows[i] == 0), 0)  # 0: no index i >= 1
    counts = [spectral.count_below(model.boundary_forms, t * factor.value(i), model.Hhat)
              for i in range(1, last + 1)]
    summed = table.steklov + sum(factor.multiplicity(i) * n for i, n in enumerate(counts, 1))
    if counts != rows[1:last + 1] or summed != index:
        raise NumericalError(f"anchor at t={t:.12g}: inertia counts {counts} and Morse index "
                             f"{summed} for factor indices 1..{last}, the c_j* table "
                             f"{rows[1:last + 1]} and {index}")


def _boundary_power_integral(forms: AssembledForms, phi: np.ndarray, m: int) -> tuple:
    """(p, lumped boundary integral of phi^p) with p = 2(m-1)/(m-2): the
    boundary measure is lumped to the row sums of B; phi must be positive on
    the boundary."""
    p = 2.0 * (m - 1) / (m - 2)
    phi_b = phi[forms.boundary_dofs]
    if np.any(phi_b <= 0):
        raise PreconditionError("conformal factor must be positive on the boundary")
    weights = np.asarray(forms.B.sum(axis=1)).ravel()[forms.boundary_dofs]
    return p, float(weights @ phi_b**p)


def normalize_boundary_power(forms: AssembledForms, phi: np.ndarray, m: int) -> np.ndarray:
    """Rescale phi so the lumped integral of phi^(2(m-1)/(m-2)) over the
    boundary equals 1."""
    p, integral = _boundary_power_integral(forms, phi, m)
    return phi / integral ** (1.0 / p)


def conformal_mean_curvature(forms: AssembledForms, phi: np.ndarray, H_g: float, m: int) -> float:
    """Mean curvature of the normalized conformal metric phi^(4/(m-2)) g.

    phi must be discretely harmonic and satisfy the boundary-volume
    constraint; the value is 2/(m-2) * Dirichlet energy + H_g * boundary
    L2 mass.  Harmonicity is measured by the interior residual r = (K phi)_i
    in the mass-dual norm, bounded without a solve: every P1 element mass is
    vol/((d+1)(d+2)) (11' + I), so diag(M)/2 <= M <= (d+2)/2 diag(M), and
    sqrt(2 r' diag(M_ii)^-1 r) lies between the norm and sqrt(d+2) times it:
    the check is stricter than the exact norm's, by at most a factor 2 in 2-D.
    """
    if m < 3:
        raise PreconditionError("requires product dimension m >= 3")
    phi = np.asarray(phi, dtype=float)
    K, M, B = forms.K, forms.M, forms.B

    interior = forms.interior_dofs
    if len(interior):
        r = (K @ phi)[interior]
        dual = math.sqrt(2.0 * float(r @ (r / M.diagonal()[interior])))
        scale = max(1.0, math.sqrt(float(phi @ (M @ phi))))
        if dual > HARMONIC_TOL * scale:
            raise PreconditionError(
                f"phi is not discretely harmonic: interior residual {dual:.3e} "
                f"exceeds {HARMONIC_TOL:g} * {scale:.3g}"
            )

    p, integral = _boundary_power_integral(forms, phi, m)
    if abs(integral - 1.0) > NORM_TOL:
        raise PreconditionError(
            f"boundary normalization violated: integral of phi^{p:g} is "
            f"{integral:.12g}, not 1"
        )
    return 2.0 / (m - 2) * float(phi @ (K @ phi)) + H_g * float(phi @ (B @ phi))


def yamabe_residual(
    forms: AssembledForms, phi: np.ndarray, H_candidate: float, H_g: float, m: int
) -> float:
    """Euclidean norm of the weak residual of the zero-scalar-curvature
    boundary system at (phi, H_candidate).  Diagnostic only."""
    if m < 3:
        raise PreconditionError("requires product dimension m >= 3")
    phi = np.asarray(phi, dtype=float)
    p = m / (m - 2)
    powered = np.sign(phi) * np.abs(phi) ** p  # odd extension of the power
    half = 0.5 * (m - 2)
    K, B = forms.K, forms.B
    r = K @ phi + half * H_g * (B @ phi)
    r -= half * H_candidate * (B @ powered)
    return float(np.linalg.norm(r))


# ---------------------------------------------------------------------------
# model description files

def model_from_dict(doc: dict, base_dir=None) -> ProductModel:
    """Build a model from its JSON description (factor + boundary +
    dimensions); the stated m1 and m2 must be the factor's and the boundary
    mesh's dimensions."""
    base = Path(base_dir) if base_dir is not None else Path(".")
    try:
        m1, m2 = typed(doc["m1"], int, "m1"), typed(doc["m2"], int, "m2")
        H2 = typed(doc["H2"], float, "H2")
        factor_doc, boundary_doc = doc["factor"], doc["boundary"]
    except KeyError as exc:
        raise ConfigError(f"model description missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model description has a mistyped m1, m2 or H2: {exc}") from exc
    if not (isinstance(factor_doc, dict) and isinstance(boundary_doc, dict)):
        raise ConfigError("model description keys 'factor' and 'boundary' must hold objects")

    try:
        if "path" in factor_doc:
            factor = load_spectrum(base / factor_doc["path"])
        elif "flat_torus" in factor_doc:
            ft = factor_doc["flat_torus"]
            factor = flat_torus_spectrum(typed_rows(ft["basis"], float, "basis"),
                                         typed(ft["cutoff"], float, "cutoff"))
        else:
            factor = spectrum_from_dict(factor_doc)
    except KeyError as exc:
        raise ConfigError(f"model description's factor misses key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model description's factor has a mistyped value: {exc}") from exc
    mesh = mesh_from_dict(boundary_doc, base)
    if m1 != factor.dim:
        raise PreconditionError(f"m1={m1} does not match factor dimension {factor.dim}")
    if m2 != mesh.dim:
        raise PreconditionError(f"m2={m2} does not match boundary mesh dimension {mesh.dim}")
    return ProductModel(factor=factor, boundary_mesh=mesh, boundary_forms=assemble(mesh), H2=H2)


def load_model(path, doc: dict | None = None) -> ProductModel:
    """Build the model described by the JSON file at path; doc, when given,
    is that file already parsed.  Relative paths resolve against its folder."""
    path = Path(path)
    doc = read_json_object(path, "model description") if doc is None else doc
    return model_from_dict(doc, base_dir=path.parent)

