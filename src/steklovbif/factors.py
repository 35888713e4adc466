"""Laplace spectra of the closed factor.

Flat tori have closed-form spectra 4 pi^2 |mu|^2 over the dual lattice and
satisfy the zero-scalar-curvature hypothesis exactly; anything else enters
through a validated (value, multiplicity) list.  A spectrum is complete up
to its cutoff; consumers that would need eigenvalues beyond it must fail
loudly instead of truncating silently.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CutoffExhaustedError, PreconditionError
from .serialize import read_json_object, typed

_GROUP_RTOL = 1e-9


@dataclass(frozen=True)
class ClosedFactorSpectrum:
    """Distinct Laplace eigenvalues of a connected closed manifold.

    entries: ascending (eigenvalue, multiplicity) pairs starting at (0, 1);
    complete below ``cutoff``.
    """

    dim: int
    entries: tuple
    cutoff: float

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((float(v), int(m)) for v, m in self.entries)
        )
        _validate_entries(self.entries)
        if not math.isfinite(self.cutoff):
            raise PreconditionError(f"cutoff must be finite, got {self.cutoff}")

    def value(self, i: int) -> float:
        return self._entry(i)[0]

    def multiplicity(self, i: int) -> int:
        return self._entry(i)[1]

    def _entry(self, i: int) -> tuple:
        if i < 0:
            raise PreconditionError(f"factor index must be non-negative, got {i}")
        if i >= len(self.entries):
            raise CutoffExhaustedError(
                f"factor index {i} beyond spectrum cutoff {self.cutoff:g} "
                f"({len(self.entries)} entries)"
            )
        return self.entries[i]

    def __len__(self) -> int:
        return len(self.entries)


def _validate_entries(entries) -> None:
    if not entries:
        raise PreconditionError("spectrum needs at least the zero eigenvalue")
    v0, m0 = entries[0]
    if v0 != 0.0:
        raise PreconditionError("first eigenvalue must be 0 (constants)")
    if m0 != 1:
        raise PreconditionError("connected manifold requires mu(0) = 1")
    values = [v for v, _ in entries]
    if not all(map(math.isfinite, values)):
        raise PreconditionError("eigenvalues must be finite")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise PreconditionError("eigenvalues must be strictly ascending and distinct")
    if any(m < 1 for _, m in entries):
        raise PreconditionError("multiplicities must be >= 1")


def from_list(entries, m1: int) -> ClosedFactorSpectrum:
    """Validated spectrum from explicit (value, multiplicity) pairs;
    cutoff is the last listed value."""
    entries = [(float(v), int(m)) for v, m in entries]
    _validate_entries(entries)
    return ClosedFactorSpectrum(dim=m1, entries=tuple(entries), cutoff=entries[-1][0])


def flat_torus_spectrum(lattice_basis, cutoff: float) -> ClosedFactorSpectrum:
    """Spectrum of the flat torus R^m / (Z-span of the basis rows) up to cutoff.

    Eigenvalues are 4 pi^2 |mu|^2 over dual-lattice vectors mu, grouped into
    distinct values with counted multiplicities.
    """
    basis = np.asarray(lattice_basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise PreconditionError("lattice basis must be a square matrix")
    if not np.isfinite(basis).all():
        raise PreconditionError("lattice basis must be finite")
    if not 0 < cutoff < math.inf:  # a NaN fails every comparison
        raise PreconditionError(f"cutoff must be positive and finite, got {cutoff}")
    m1 = basis.shape[0]
    det = np.linalg.det(basis)
    if abs(det) < 1e-12 * np.linalg.norm(basis) ** m1:
        raise PreconditionError("singular lattice basis")

    # mu = k @ D with D = inv(basis)^T; |k_i| <= |mu| * ||b_i|| bounds the search box.
    dual = np.linalg.inv(basis).T
    gram_dual = dual @ dual.T
    radius = math.sqrt(cutoff) / (2.0 * math.pi)
    bounds = [int(math.floor(radius * np.linalg.norm(row))) for row in basis]

    tol = _GROUP_RTOL * max(1.0, cutoff)
    values = []
    for k in itertools.product(*[range(-b, b + 1) for b in bounds]):
        kv = np.array(k, dtype=float)
        val = 4.0 * math.pi**2 * float(kv @ gram_dual @ kv)
        if val <= cutoff + tol:
            values.append(val)
    values.sort()

    entries = []
    for val in values:
        if entries and val - entries[-1][0] <= _GROUP_RTOL * max(1.0, val):
            entries[-1][1] += 1
        else:
            entries.append([val, 1])
    return ClosedFactorSpectrum(
        dim=m1, entries=tuple((v, m) for v, m in entries), cutoff=float(cutoff)
    )


def save_spectrum(spectrum: ClosedFactorSpectrum, path) -> None:
    doc = {
        "dim": spectrum.dim,
        "entries": [[v, m] for v, m in spectrum.entries],
        "cutoff": spectrum.cutoff,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_spectrum(path) -> ClosedFactorSpectrum:
    return spectrum_from_dict(read_json_object(path, "factor spectrum"))


def spectrum_from_dict(doc: dict) -> ClosedFactorSpectrum:
    try:
        return ClosedFactorSpectrum(
            dim=typed(doc["dim"], int, "dim"),
            entries=tuple((typed(v, float, "an entry's value"), typed(m, int, "a multiplicity"))
                          for v, m in doc["entries"]),
            cutoff=typed(doc["cutoff"], float, "cutoff"),
        )
    except KeyError as exc:
        raise ConfigError(f"spectrum document missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # a value that is no number, an entry no pair
        raise ConfigError(f"spectrum document has a mistyped value: {exc}") from exc
