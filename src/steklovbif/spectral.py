"""Boundary-reduced generalized eigenproblems.

The discrete Dirichlet-to-Neumann spectrum and its bulk-shifted family come
from the pencil (K + c M) u = rho B u.  B is supported on the boundary, so
the problem is reduced to boundary degrees of freedom with the Schur
complement S(c) = A_bb - A_bi A_ii^-1 A_ib, A = K + c M: eigenvectors are
traces of discrete (modified-)harmonic extensions.

Below ``dense_limit`` boundary dofs the reduced pencil is solved densely;
above it, by shift-invert iteration with the full matrix factorized once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigensolverError, PreconditionError
from .fem import AssembledForms, SparseSymMatrix
from .serialize import read_csv, write_csv

DENSE_LIMIT = 2000
_SHIFT_INVERT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SpectrumSlice:
    """Eigenvalues of one bulk coefficient c, ascending, with B-orthonormal
    boundary-trace eigenvectors as columns."""

    c: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class EigenCurve:
    """Samples (t, rho) of one branch, t ascending."""

    factor_index: int | None
    branch_index: int
    rho_factor: float
    samples: tuple

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.samples])

    @property
    def t_grid(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])


def _dense_gevp(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    try:
        w, v = la.eigh(a, b, subset_by_index=[0, k - 1])
    except la.LinAlgError as exc:
        raise EigensolverError(f"dense generalized eigensolver failed: {exc}") from exc
    return w, v


def solve_dense_gevp(A: SparseSymMatrix, B: SparseSymMatrix, k: int):
    """k smallest eigenpairs of A u = rho B u, B positive definite on its span.

    Vectors are B-orthonormal.  Residuals ||A u - rho B u|| are verified
    against 1e-9 * ||A||; failures raise with the offending norms.
    """
    if k < 1 or k > A.n:
        raise PreconditionError(f"need 1 <= k <= {A.n}, got {k}")
    a, b = A.toarray(), B.toarray()
    w, v = _dense_gevp(a, b, k)
    scale = np.linalg.norm(a, 2) if A.n else 1.0
    residuals = np.linalg.norm(a @ v - b @ v * w, axis=0)
    if np.any(residuals > 1e-9 * max(scale, 1.0)):
        raise EigensolverError(
            f"eigenpair residuals {residuals.tolist()} exceed 1e-9 * ||A|| = {1e-9 * scale:.3e}"
        )
    return w, v


def robin_steklov_spectrum(
    forms: AssembledForms, c: float, k: int, *, dense_limit: int = DENSE_LIMIT
) -> SpectrumSlice:
    """k smallest boundary eigenvalues of (K + c M) u = rho B u.

    For c = 0 this is the Steklov (Dirichlet-to-Neumann) spectrum; the zero
    eigenvalue of the constant is kept at index 0.
    """
    if c < 0:
        raise PreconditionError(f"bulk coefficient must be non-negative, got {c}")
    bnd = forms.boundary_dofs
    n_b = len(bnd)
    if n_b == 0:
        raise PreconditionError("mesh has no boundary degrees of freedom")
    if k < 1 or k > n_b:
        raise PreconditionError(f"need 1 <= k <= {n_b} boundary dofs, got k={k}")

    A = forms.K.to_csr() + c * forms.M.to_csr() if c != 0.0 else forms.K.to_csr()
    B_bb = forms.B.to_csr()[np.ix_(bnd, bnd)]
    interior = forms.interior_dofs

    # ARPACK needs k strictly inside the subspace; near-full requests go dense
    if n_b <= dense_limit or k > n_b - 2:
        S = _schur_complement(A, interior, bnd)
        w, v = _dense_gevp(S, B_bb.toarray(), k)
        return SpectrumSlice(c=c, eigenvalues=w, eigenvectors=v)
    return _shift_invert_slice(A, forms.B.to_csr(), B_bb, interior, bnd, c, k)


def _schur_complement(A: sp.csr_matrix, interior: np.ndarray, bnd: np.ndarray) -> np.ndarray:
    A_bb = A[np.ix_(bnd, bnd)].toarray()
    if len(interior) == 0:
        return A_bb
    A_ii = A[np.ix_(interior, interior)].tocsc()
    A_ib = A[np.ix_(interior, bnd)].toarray()
    try:
        lu = spla.splu(A_ii)
    except RuntimeError as exc:  # singular interior block cannot occur for c >= 0
        raise EigensolverError(f"interior block factorization failed: {exc}") from exc
    S = A_bb - A_ib.T @ lu.solve(A_ib)
    return 0.5 * (S + S.T)


def _shift_invert_slice(A, B_full, B_bb, interior, bnd, c, k) -> SpectrumSlice:
    """Shift-invert on the boundary-reduced pencil; (S - sigma*B_bb)^-1 is
    applied through one factorization of the full shifted matrix."""
    n = A.shape[0]
    scale = abs(A).sum() / max(A.nnz, 1)
    sigma = -1e-3 * max(scale, 1.0)
    lu_full = spla.splu((A - sigma * B_full).tocsc())
    lu_ii = spla.splu(A[np.ix_(interior, interior)].tocsc()) if len(interior) else None
    A_ib = A[np.ix_(interior, bnd)].tocsr()
    A_bb = A[np.ix_(bnd, bnd)].tocsr()

    def apply_schur(x):
        y = A_bb @ x
        if lu_ii is not None:
            y -= A_ib.T @ lu_ii.solve(A_ib @ x)
        return y

    def apply_opinv(x):
        rhs = np.zeros(n)
        rhs[bnd] = x
        return lu_full.solve(rhs)[bnd]

    n_b = len(bnd)
    S_op = spla.LinearOperator((n_b, n_b), matvec=apply_schur)
    OPinv = spla.LinearOperator((n_b, n_b), matvec=apply_opinv)
    try:
        w, v = spla.eigsh(
            S_op, k=k, M=B_bb, sigma=sigma, OPinv=OPinv, which="LM",
            tol=_SHIFT_INVERT_TOL,
        )
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"shift-invert iteration did not converge: {exc}") from exc
    order = np.argsort(w)
    return SpectrumSlice(c=c, eigenvalues=w[order], eigenvectors=v[:, order])


def steklov_spectrum(forms: AssembledForms, k: int, **kwargs) -> SpectrumSlice:
    """Discrete Dirichlet-to-Neumann spectrum (bulk coefficient zero)."""
    return robin_steklov_spectrum(forms, 0.0, k, **kwargs)


def harmonic_extension(forms: AssembledForms, trace: np.ndarray, c: float = 0.0) -> np.ndarray:
    """Discrete (modified-)harmonic extension of boundary values: the interior
    components minimize the quadratic form of K + c M for the given trace."""
    trace = np.asarray(trace, dtype=float)
    bnd = forms.boundary_dofs
    if trace.shape != (len(bnd),):
        raise PreconditionError(
            f"trace must have one value per boundary dof ({len(bnd)}), got {trace.shape}"
        )
    A = forms.K.to_csr() + c * forms.M.to_csr() if c != 0.0 else forms.K.to_csr()
    phi = np.zeros(forms.n)
    phi[bnd] = trace
    interior = forms.interior_dofs
    if len(interior):
        A_ii = A[np.ix_(interior, interior)].tocsc()
        rhs = -(A[np.ix_(interior, bnd)] @ trace)
        phi[interior] = spla.splu(A_ii).solve(rhs)
    return phi


def trace_eigencurve(
    forms: AssembledForms,
    rho_i: float,
    j: int,
    t_grid,
    *,
    factor_index: int | None = None,
) -> EigenCurve:
    """Sample the branch t -> rho_j at bulk coefficient c = t * rho_i.

    The branch is identified by sorted position j at each t.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise PreconditionError("t_grid must be nonempty")
    if np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise PreconditionError("t_grid must be ascending and positive")
    if rho_i < 0:
        raise PreconditionError("factor eigenvalue must be non-negative")
    samples = []
    for t in t_grid:
        s = robin_steklov_spectrum(forms, t * rho_i, j + 1)
        samples.append((float(t), float(s.eigenvalues[j])))
    return EigenCurve(
        factor_index=factor_index,
        branch_index=j,
        rho_factor=rho_i,
        samples=tuple(samples),
    )


def slice_to_csv(spectrum: SpectrumSlice, path) -> None:
    write_csv(path, ["j", "rho"], [(j, float(v)) for j, v in enumerate(spectrum.eigenvalues)])


def load_slice_csv(path) -> list[tuple[int, float]]:
    header, rows = read_csv(path)
    if header != ["j", "rho"]:
        raise PreconditionError(f"unexpected spectrum CSV header {header}")
    return [(int(r[0]), float(r[1])) for r in rows]


def curves_to_csv(curves, path) -> None:
    rows = []
    for curve in curves:
        if curve.factor_index is None:
            raise PreconditionError("curve export needs a factor index label")
        for t, rho in curve.samples:
            rows.append((t, curve.factor_index, curve.branch_index, rho))
    write_csv(path, ["t", "i", "j", "rho"], rows)


def load_curves_csv(path) -> list[tuple[float, int, int, float]]:
    header, rows = read_csv(path)
    if header != ["t", "i", "j", "rho"]:
        raise PreconditionError(f"unexpected curve CSV header {header}")
    return [(float(r[0]), int(r[1]), int(r[2]), float(r[3])) for r in rows]
