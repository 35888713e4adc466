"""Boundary-reduced generalized eigenproblems.

The discrete Dirichlet-to-Neumann spectrum and its bulk-shifted family come
from the pencil (K + c M) u = rho B u.  B is supported on the boundary, so
the problem is reduced to boundary degrees of freedom with the Schur
complement S(c) = A_bb - A_bi A_ii^-1 A_ib, A = K + c M: eigenvectors are
traces of discrete (modified-)harmonic extensions.

Up to ``DENSE_LIMIT`` boundary dofs, and for k > n_b - 2 at any size, the
reduced pencil is solved densely.  Above it, shift-invert Lanczos (ARPACK)
applies (S - sigma B_bb)^-1 through one factorization of the full shifted
matrix, from a fixed start vector, so that repeated calls agree bit for bit;
one more solve with that factorization and a k x k Rayleigh-Ritz give the
returned pairs.  Both paths check the residual of every returned pair.
Shift-invert also proves by one inertia count that its values are the k
lowest: Lanczos can skip one copy of a double eigenvalue, and no residual
shows that.  So a shift-invert slice costs two sparse factorizations and a
dense slice one.  How many eigenvalues lie below a level needs no
eigensolve: ``count_below`` reads it off the inertia of one sparse symmetric
factorization.  Every factorization takes its matrix from the forms' cached
``FactorInput``, already in one fill-reducing order, and orders nothing.

``DENSE_LIMIT`` is the crossover measured with three factorizations per
shift-invert slice.  Median time of one slice at c = 3 on the builtin disk,
dense / shift-invert with its count, in ms, now with two (one BLAS thread,
2-vCPU x86 machine, 9 interleaved repeats, 5 at L6):

    level  n_b   k = 1       k = 4       k = 16
    L4     128   17 / 17     17 / 19     17 / 25
    L5     256   145 / 61    150 / 94    154 / 129
    L6     512   1688 / 368  1680 / 531  1559 / 606

On Delaunay disks of 128 to 224 boundary dofs the tie now sits at about 144
for k <= 4 and 192 for k = 16 (it was about 192 for every k).  The dense
path also holds two dense n_i x n_b blocks, about 66 MB each at L6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .errors import EigensolverError, PreconditionError
from .fem import AssembledForms
from .serialize import read_csv, write_csv

# largest boundary-dof count solved densely: the crossover of three
# factorizations per shift-invert slice, kept while the tie moves (see above)
DENSE_LIMIT = 200
_SHIFT_INVERT_TOL = 1e-10
RESIDUAL_RTOL = 1e-8
PIVOT_RTOL = 1e-10
LOWEST_RTOL = 1e-6


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


def solve_dense_gevp(a, b, k: int):
    """k smallest eigenpairs of a u = rho b u for symmetric square arrays a, b,
    b positive definite on its span.

    Vectors are b-orthonormal.  Residuals are verified by the rule of the
    pencil slices (``_check_residuals``); failures raise with the norms.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    for x in (a, b):
        if x.ndim != 2 or x.shape != a.shape or a.shape[0] != a.shape[1]:
            raise PreconditionError("solve_dense_gevp needs two square matrices of one size")
        if not np.allclose(x, x.T, rtol=1e-12, atol=1e-12):
            raise PreconditionError("solve_dense_gevp needs symmetric matrices")
    n = a.shape[0]
    if k < 1 or k > n:
        raise PreconditionError(f"need 1 <= k <= {n}, got {k}")
    w, v = _dense_gevp(a, b, k)
    _check_residuals(a @ v, b @ v, w, v, _norm1(a), _norm1(b), "dense")
    return w, v


def robin_steklov_spectrum(forms: AssembledForms, c: float, k: int) -> SpectrumSlice:
    """k smallest boundary eigenvalues of (K + c M) u = rho B u.

    For c = 0 this is the Steklov (Dirichlet-to-Neumann) spectrum; the zero
    eigenvalue of the constant is kept at index 0.  Every returned pair is
    checked against the reduced pencil, on both solver paths.
    """
    if c < 0:
        raise PreconditionError(f"bulk coefficient must be non-negative, got {c}")
    n_b = len(forms.boundary_dofs)
    if n_b == 0:
        raise PreconditionError("mesh has no boundary degrees of freedom")
    if k < 1 or k > n_b:
        raise PreconditionError(f"need 1 <= k <= {n_b} boundary dofs, got k={k}")

    fi = forms.factor_input
    A_bb = fi.boundary(c)
    # ARPACK needs k strictly inside the subspace; near-full requests go dense
    if n_b <= DENSE_LIMIT or k > n_b - 2:
        S = _schur_complement(fi, c, A_bb)
        w, v = _dense_gevp(S, fi.B_bb, k)
        _check_residuals(S @ v, fi.B_bb @ v, w, v, _norm1(A_bb), fi.B_bb_norm1, "dense")
        return SpectrumSlice(c=c, eigenvalues=w, eigenvectors=v)
    return _shift_invert_slice(forms, c, A_bb, k)


def _factor(A):
    """SuperLU of a symmetric matrix whose rows and columns are already in
    the forms' cached order: no reordering and diagonal pivots only, so
    P A P' = L U with P = I unless a pivot vanished, and diag(U) holds the
    pivots of an L D L' factorization."""
    return spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0,
                     options={"SymmetricMode": True})


def _schur_complement(fi, c, A_bb) -> np.ndarray:
    """Dense S = A_bb - A_ib' A_ii^-1 A_ib, symmetrized."""
    if fi.interior.shape[0] == 0:
        return A_bb
    A_ib = fi.coupling.pencil(c).toarray()
    try:
        lu = _factor(fi.interior.pencil(c))
    except RuntimeError as exc:  # singular interior block cannot occur for c >= 0
        raise EigensolverError(f"interior block factorization failed: {exc}") from exc
    return _symmetrized(A_bb - A_ib.T @ lu.solve(A_ib))


def _check_residuals(Av, Bv, w, v, a_norm, b_norm, path) -> None:
    """Raise unless ||A v - rho B v|| <= RESIDUAL_RTOL * (a_norm + |rho| b_norm)
    * ||v|| for every pair.  The columns of Av and Bv hold A and B applied
    to v, or to its extension (then every row counts); a_norm is ||A_bb||_1
    and b_norm ||B_bb||_1.  A = K + c M is positive semidefinite with a
    definite interior block, so 0 <= S <= A_bb and the cheap 1-norm of A_bb
    bounds ||S||; a plain symmetric pencil passes its own norms."""
    residuals = np.linalg.norm(Av - Bv * w, axis=0)
    bound = RESIDUAL_RTOL * (a_norm + np.abs(w) * b_norm) * np.linalg.norm(v, axis=0)
    if np.any(residuals > bound):
        worst = int(np.argmax(residuals / bound))
        raise EigensolverError(
            f"{path} eigenpair residual {residuals[worst]:.3e} for rho={w[worst]:.12g} "
            f"exceeds {bound[worst]:.3e}"
        )


def _norm1(x) -> float:
    """Largest absolute column sum of a dense matrix."""
    return float(np.abs(x).sum(axis=0).max())


def _shift_invert_slice(forms, c, A_bb, k) -> SpectrumSlice:
    """Shift-invert on the boundary-reduced pencil, then one step of inverse
    iteration and Rayleigh-Ritz on the full pencil.

    (S - sigma B_bb)^-1 is applied through one factorization of the full
    shifted matrix: B has no interior rows, so the interior of each full
    solve is the discrete harmonic extension of its boundary part, and the
    boundary rows of A times it are S applied to that part.  ARPACK's k
    vectors, solved once more, span the extensions X; Rayleigh-Ritz of
    (A, B) on X gives B-orthonormal pairs, and their residual is read off
    A X and B X with no second factorization.  The residual takes every row,
    so it also shows an interior that is not harmonic.
    """
    fi = forms.factor_input
    full, bnd = fi.full, fi.boundary_positions
    A = full.pencil(c)
    n, n_b = full.shape[0], len(bnd)
    scale = np.abs(A.data).sum() / max(A.nnz, 1)
    sigma = -1e-3 * max(scale, 1.0)
    lu = _factor(full.pencil(c, sigma))

    def extend(x):
        rhs = np.zeros((n,) + x.shape[1:])
        rhs[bnd] = x
        return lu.solve(rhs)

    # shift-invert mode applies only OPinv and M; A only gives the shape
    shape_only = spla.LinearOperator((n_b, n_b), matvec=None, dtype=float)
    OPinv = spla.LinearOperator((n_b, n_b), matvec=lambda x: extend(x)[bnd], dtype=float)
    # a fixed start makes the result reproducible; a generic one has a
    # component along every eigenvector (a constant misses the disk's cos
    # modes, for one)
    v0 = np.random.default_rng(0).standard_normal(n_b)
    try:
        _, v = spla.eigsh(
            shape_only, k=k, M=fi.B_bb, sigma=sigma, OPinv=OPinv, which="LM",
            tol=_SHIFT_INVERT_TOL, v0=v0,
        )
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"shift-invert iteration did not converge: {exc}") from exc
    X = extend(fi.B_bb @ v)
    BX = np.zeros_like(X)
    BX[bnd] = fi.B_bb @ X[bnd]
    unit = np.sqrt(np.einsum("ij,ij->j", X, BX))
    X, BX = X / unit, BX / unit
    AX = A @ X
    w, y = _dense_gevp(_symmetrized(X.T @ AX), _symmetrized(X.T @ BX), k)
    v = X[bnd] @ y
    _check_residuals(AX @ y, BX @ y, w, v, _norm1(A_bb), fi.B_bb_norm1, "shift-invert")
    _check_lowest(forms, c, w)
    return SpectrumSlice(c=c, eigenvalues=w, eigenvectors=v)


def _symmetrized(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def _check_lowest(forms, c, w) -> None:
    """Raise unless the ascending values w are the len(w) lowest eigenvalues.

    Lanczos may skip one copy of a multiple eigenvalue (the disk has exact
    double ones), and the skipped pair leaves no residual.  The pairs are
    checked and B-orthonormal, so they are distinct eigenpairs; one inertia
    count just under the top value then shows that none below it is
    missing.  A value within LOWEST_RTOL of the top one is not resolved.
    """
    level = w[-1] - LOWEST_RTOL * max(1.0, abs(w[-1]))
    returned = int(np.count_nonzero(w < level))
    counted = count_below(forms, c, level)
    if counted != returned:
        raise EigensolverError(
            f"shift-invert at c={c:.12g} missed eigenvalues: {counted} lie below "
            f"{level:.12g}, {returned} of them returned"
        )


def count_below(forms: AssembledForms, c: float, lam: float) -> int:
    """Number of eigenvalues of (K + c M) u = rho B u strictly below lam,
    counted by Sylvester inertia instead of an eigensolve.

    For c >= 0 the interior block of A = K + c M is positive definite, so by
    Haynsworth additivity the negative inertia of A - lam B equals that of
    S(c) - lam B_bb, which by Sylvester's law (B_bb is positive definite) is
    the count.  A - lam B is factored in the forms' cached order, a
    symmetric permutation, which keeps its inertia.  When SuperLU raises,
    leaves the diagonal, or meets a pivot tiny next to the largest (lam at or
    near an eigenvalue), the count comes from a Bunch-Kaufman factorization
    of the dense block S(c) - lam B_bb instead.
    """
    if c < 0:
        raise PreconditionError(f"bulk coefficient must be non-negative, got {c}")
    fi = forms.factor_input
    try:
        lu = _factor(fi.full.pencil(c, lam))
    except RuntimeError:
        lu = None
    if lu is not None and np.array_equal(lu.perm_r, lu.perm_c):
        d = lu.U.diagonal()
        pivots = np.abs(d)
        if pivots.min() > PIVOT_RTOL * pivots.max():
            return int(np.count_nonzero(d < 0))
    S = _schur_complement(fi, c, fi.boundary(c)) - lam * fi.B_bb
    _, d, _ = la.ldl(S)
    # d is block diagonal with 1x1 and 2x2 blocks, hence tridiagonal
    return int(np.count_nonzero(la.eigvalsh_tridiagonal(np.diag(d), np.diag(d, 1)) < 0))


def steklov_spectrum(forms: AssembledForms, k: int) -> SpectrumSlice:
    """Discrete Dirichlet-to-Neumann spectrum (bulk coefficient zero)."""
    return robin_steklov_spectrum(forms, 0.0, k)


def harmonic_extension(forms: AssembledForms, trace: np.ndarray, c: float = 0.0) -> np.ndarray:
    """Discrete (modified-)harmonic extension of boundary values: the interior
    components minimize the quadratic form of K + c M for the given trace."""
    trace = np.asarray(trace, dtype=float)
    bnd = forms.boundary_dofs
    if trace.shape != (len(bnd),):
        raise PreconditionError(
            f"trace must have one value per boundary dof ({len(bnd)}), got {trace.shape}"
        )
    fi = forms.factor_input
    phi = np.zeros(forms.n)
    phi[bnd] = trace
    if len(fi.interior_order):
        lu = _factor(fi.interior.pencil(c))
        phi[fi.interior_order] = lu.solve(-(fi.coupling.pencil(c) @ trace))
    return phi


def trace_eigencurves(
    forms: AssembledForms,
    rho_i: float,
    j_list,
    t_grid,
    *,
    factor_index: int | None = None,
) -> list[EigenCurve]:
    """Sample the branches t -> rho_j, j in j_list, at bulk coefficient
    c = t * rho_i; one curve per entry of j_list, in its order.

    Each t costs one slice of the max(j_list) + 1 lowest eigenvalues, and
    every branch reads its sorted position j from it.
    """
    j_list = tuple(j_list)
    if not j_list or min(j_list) < 0:
        raise PreconditionError(f"branch positions must be non-negative and nonempty, got {j_list}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise PreconditionError("t_grid must be nonempty")
    if np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise PreconditionError("t_grid must be ascending and positive")
    if rho_i < 0:
        raise PreconditionError("factor eigenvalue must be non-negative")
    k = max(j_list) + 1
    values = [robin_steklov_spectrum(forms, t * rho_i, k).eigenvalues for t in t_grid]
    return [
        EigenCurve(
            factor_index=factor_index,
            branch_index=j,
            rho_factor=rho_i,
            samples=tuple((float(t), float(w[j])) for t, w in zip(t_grid, values)),
        )
        for j in j_list
    ]


def slice_to_csv(spectrum: SpectrumSlice, path) -> None:
    write_csv(path, ["j", "rho"], [(j, float(v)) for j, v in enumerate(spectrum.eigenvalues)])


def load_slice_csv(path) -> list[tuple[int, float]]:
    return [(int(r[0]), float(r[1])) for r in read_csv(path, ["j", "rho"])]


def curves_to_csv(curves, path) -> None:
    rows = []
    for curve in curves:
        if curve.factor_index is None:
            raise PreconditionError("curve export needs a factor index label")
        for t, rho in curve.samples:
            rows.append((t, curve.factor_index, curve.branch_index, rho))
    write_csv(path, ["t", "i", "j", "rho"], rows)


def load_curves_csv(path) -> list[tuple[float, int, int, float]]:
    rows = read_csv(path, ["t", "i", "j", "rho"])
    return [(float(r[0]), int(r[1]), int(r[2]), float(r[3])) for r in rows]
