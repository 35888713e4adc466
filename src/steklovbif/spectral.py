"""Boundary-reduced generalized eigenproblems.

The discrete Dirichlet-to-Neumann spectrum and its bulk-shifted family come
from the pencil (K + c M) u = rho B u.  B is supported on the boundary, so
the problem is reduced to boundary degrees of freedom with the Schur
complement S(c) = A_bb - A_bi A_ii^-1 A_ib, A = K + c M: eigenvectors are
traces of discrete (modified-)harmonic extensions.

A slice takes the k lowest pairs of S v = rho B_bb v from LAPACK's subset
eigensolver, which selects by index and so returns both copies of a double
eigenvalue, and checks every pair's residual.  Only how S is formed
depends on the mesh.  The banded Cholesky A_ii = U'U (dpbtrf, in the
reverse Cuthill-McKee order of the interior) and W = U^-T A_ib give
S = A_bb - W'W.  A multifrontal Cholesky of A_ii on the nested-dissection
tree of the interior (George 1973; Liu, SIAM Review 34, 1992) never pivots
on a boundary dof, and S is A_bb plus the fronts' boundary blocks.  Slices
and counts take the route with fewer flops, ``FactorInput.banded``: n_i bw^2 +
2 n_i bw n_b + n_i n_b^2 for n_i interior and n_b boundary dofs and a band
of half-width bw, against the sum of p^3/3 + p^2 u + p u^2 over fronts of
p pivots and u update dofs; a tie goes to the band.  The counts, exact,
and the routes they pick:

    mesh                 band flops   front flops   route
    interval, n = 1000   0.009M       5.3M          band
    disk L0, L2, L3      <= 1.95M     <= 2.35M      band
    disk L1              3969         3843          fronts
    disk L4              34.3M        10.3M         fronts
    disk L6              9439M        263M          fronts

``_schur`` forms every S(c), and takes the fronts on every mesh only for
``level_crossings``, which keeps them.  ``count_below`` reads eigenvalue
counts off the inertia of S(c) - lam B_bb.  The pencil is
linear in c, so ``level_crossings`` takes every c at which a branch meets
lam from one shift-invert Lanczos solve of (lam B - K) u = c M u at
sigma = 0.  One S(0) serves it whole: the inertia of S(0) - lam B_bb counts
the roots, two more beside lam refuse a lam on a Steklov eigenvalue, and
the fronts with that Bunch-Kaufman factor are the Lanczos operator.  It
proves each root to relative BRACKET_RTOL by Kahan's residual bound, and a
group of roots that the bound cannot prove (one at rounding level) by two
inertia counts beside the group, and returns each root with that window.
Every factorization takes its matrix from the forms' cached
``FactorInput``, already in its order or tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from .errors import (CutoffExhaustedError, EigensolverError, HhatIsSteklovEigenvalueError,
                     PreconditionError)
from .fem import AssembledForms

_SHIFT_INVERT_TOL = 1e-10
RESIDUAL_RTOL = 1e-8
# relative half-width of the window in which level_crossings proves each c_j*
BRACKET_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class SpectrumSlice:
    """Eigenvalues of one bulk coefficient c, ascending, with B-orthonormal
    boundary-trace eigenvectors as columns."""

    c: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _dense_gevp(a: np.ndarray, b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest pairs of a v = rho b v by dsygvx on the lower triangles and
    its own workspace query, as scipy.linalg.eigh(a, b, subset_by_index=[0, k - 1])."""
    lwork = int(lapack.dsygvx_lwork(len(a), uplo="L")[0])
    w, v, m, _, info = lapack.dsygvx(a, b, uplo="L", jobz="V", range="I", il=1, iu=k, lwork=lwork)
    if info != 0 or m != k:
        raise EigensolverError(f"dense generalized eigensolver failed: LAPACK info {info}, "
                               f"{m} of {k} pairs")
    return w[:k], v


def robin_steklov_spectrum(forms: AssembledForms, c: float, k: int) -> SpectrumSlice:
    """k smallest boundary eigenvalues of (K + c M) u = rho B u.

    For c = 0 this is the Steklov (Dirichlet-to-Neumann) spectrum; the zero
    eigenvalue of the constant is kept at index 0.  Every returned pair is
    checked against the reduced pencil, however S(c) was formed.
    """
    _check_coefficients(c)
    n_b = len(forms.boundary_dofs)
    if n_b == 0:
        raise PreconditionError("mesh has no boundary degrees of freedom")
    if k < 1 or k > n_b:
        raise PreconditionError(f"need 1 <= k <= {n_b} boundary dofs, got k={k}")

    fi = forms.factor_input
    S, a_norm = _schur(fi, c)
    w, v = _dense_gevp(S, fi.B_bb, k)
    _check_residuals(S @ v, fi.B_bb @ v, w, v, a_norm, fi.B_bb_norm1, "dense")
    return SpectrumSlice(c=c, eigenvalues=w, eigenvectors=v)


def _interior_cholesky(fi, c) -> np.ndarray:
    """Upper band factor U of A_ii = U'U (dpbtrf), in the band storage of
    ``fi.interior``.  A_ii is positive definite for c >= 0."""
    U, info = lapack.dpbtrf(fi.interior.pencil(c), overwrite_ab=1)
    if info != 0:
        raise EigensolverError(f"interior block factorization failed: leading minor {info} "
                               "is not positive definite")
    return U


def _schur_complement(fi, c, A_bb) -> np.ndarray:
    """Dense S = A_bb - A_ib' A_ii^-1 A_ib = A_bb - W'W, W = U^-T A_ib,
    symmetrized."""
    if fi.interior.shape[1] == 0:  # the band has bw + 1 rows, one per diagonal
        return A_bb
    U = _interior_cholesky(fi, c)
    W, info = lapack.dtbtrs(U, fi.coupling.pencil(c), uplo="U", trans="T", overwrite_b=1)
    if info != 0:  # a zero diagonal of U, which a successful Cholesky never leaves
        raise EigensolverError(f"interior triangular solve failed: LAPACK info {info}")
    return _symmetrized(A_bb - W.T @ W)


def _schur(fi, c, factors=None):
    """Dense S(c) and ||A_bb||_1: through the fronts when a list ``factors``
    is given to keep their (L, W) for ``_solve``, else by the route
    ``fi.banded`` picks."""
    if factors is not None or not fi.banded:
        return _multifrontal_schur(fi, c, factors)
    A_bb = fi.boundary(c)
    return _schur_complement(fi, c, A_bb), _norm1(A_bb)


def _multifrontal_schur(fi, c, factors=None):
    """Dense S(c) and ||A_bb||_1: in postorder, each front scatters A into
    its buffer, adds its children's contributions and factors its pivot
    block L L' (dpotrf, A_ii is positive definite for c >= 0); with W = A_21
    L^-T, the lower trapezoid of A_22 - W W' goes to the parent on its
    interior columns, and the lower triangle of its boundary block straight
    into S, built last in A_bb's buffer.  Each front's (L, W) is appended to
    ``factors`` when a list is given, for ``_solve``."""
    n_b = len(fi.boundary_dofs)
    lower = np.zeros(n_b * n_b)  # of S - A_bb, in Fortran order
    blocks, trapezoid = {}, fi.trapezoid
    for k, front in enumerate(fi.fronts):
        p, n_inner, u = front.pivots.stop - front.pivots.start, front.n_inner, len(front.update)
        buf = front.values.pencil(c)
        for j, at in zip(front.children, front.extend_add):
            buf[at] += blocks.pop(j)
        below = buf[p * p:].reshape((u, p + n_inner), order="F")
        L, info = lapack.dpotrf(buf[:p * p].reshape((p, p), order="F"), lower=1, clean=0,
                                overwrite_a=1)
        if info != 0:
            raise EigensolverError(f"interior factorization at c={c:.12g} failed: info {info}")
        W = blas.dtrsm(1.0, L, below[:, :p], side=1, lower=1, trans_a=1, overwrite_b=1)
        if factors is not None:  # copies, so that the buffer is freed
            factors.append((L.copy("F"), W.copy("F")))
        if n_inner:
            blocks[k] = blas.dgemm(-1.0, W, W[:n_inner], beta=1.0, c=below[:, p:], trans_b=1,
                                   overwrite_c=1).T[trapezoid[:n_inner, :u]]
        if n_inner < u:
            m = u - n_inner
            lower[front.boundary] -= blas.dsyrk(1.0, W[n_inner:], lower=1).T[trapezoid[:m, :m]]
    lower = lower.reshape((n_b, n_b), order="F")
    S = fi.boundary(c)
    a_norm = _norm1(S)
    S += lower
    S += np.tril(lower, -1).T
    return S, a_norm


def _check_residuals(Av, Bv, w, v, a_norm, b_norm, path) -> None:
    """Raise unless ||A v - rho B v|| <= RESIDUAL_RTOL * (a_norm + |rho| b_norm)
    * ||v|| for every pair, the columns of Av and Bv holding A and B applied
    to v.  A slice passes ||A_bb||_1 and ||B_bb||_1: A = K + c M is positive
    semidefinite with a definite interior block, so 0 <= S <= A_bb and the
    cheap 1-norm of A_bb bounds ||S||; any other pencil passes its own."""
    R = Av - Bv * w
    residuals = np.sqrt(np.einsum("ij,ij->j", R, R))
    bound = RESIDUAL_RTOL * (a_norm + np.abs(w) * b_norm) * np.sqrt(np.einsum("ij,ij->j", v, v))
    if not (residuals <= bound).all():  # a NaN residual fails too
        worst = int(np.argmax(residuals / bound))
        raise EigensolverError(
            f"{path} eigenpair residual {residuals[worst]:.3e} for rho={w[worst]:.12g} "
            f"exceeds {bound[worst]:.3e}"
        )


def _norm1(x) -> float:
    """Largest absolute column sum of a dense or sparse matrix."""
    return float(np.abs(x).sum(axis=0).max())


def _symmetrized(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.T)


def _check_coefficients(c, lam=0.0) -> None:
    """Raise unless the bulk coefficient c is finite and non-negative and the
    level lam one finite number: LAPACK is called without a finiteness
    check, and A_ii is positive definite only for c >= 0."""
    if not 0 <= c < np.inf:
        raise PreconditionError(f"bulk coefficient must be finite and non-negative, got {c}")
    if np.ndim(lam):
        raise PreconditionError(f"level must be one number, got {lam}")
    if not np.isfinite(lam):
        raise PreconditionError(f"level must be finite, got {lam}")


def _solve(fi, factors, boundary, x) -> np.ndarray:
    """(A - lam B)^-1 x, A = K + c M, for a vector or the columns of x, from
    the multifrontal Cholesky of A_ii that formed S(c), its fronts' (L, W),
    and the Bunch-Kaufman factor (ldu, ipiv) of S(c) - lam B_bb: in
    elimination order, forward through the fronts in postorder, the boundary
    block (dsytrs), back in reverse order."""
    z = np.asarray(x, dtype=float).reshape(len(x), -1)[fi.elimination]
    for front, (L, W) in zip(fi.fronts, factors):
        y = z[front.pivots] = blas.dtrsm(1.0, L, z[front.pivots], lower=1)
        z[front.update] -= W @ y
    bnd = slice(len(z) - len(fi.boundary_dofs), len(z))
    z[bnd] = lapack.dsytrs(*boundary, z[bnd], lower=1)[0]
    for front, (L, W) in zip(reversed(fi.fronts), reversed(factors)):
        z[front.pivots] = blas.dtrsm(1.0, L, z[front.pivots] - W.T @ z[front.update],
                                     lower=1, trans_a=1)
    out = np.empty_like(z)
    out[fi.elimination] = z
    return out.reshape(np.shape(x))


def _bunch_kaufman(S, B_bb, lam):
    """The Bunch-Kaufman factor (ldu, ipiv) of S - lam B_bb, L D L' (dsytrf;
    Math. Comp. 31, 1977), and its negative inertia.  The pivoting needs no
    threshold, even with lam on an eigenvalue.  D holds 1x1 and 2x2 blocks.
    A 2x2 block, marked by a pair of negative pivot indices, is taken only
    when |a_kk a_rr| < alpha^2 colmax^2 < a_rk^2, so its determinant is
    negative and it holds one negative eigenvalue: the inertia is the 1x1
    blocks below zero plus the 2x2 blocks.  dsytrf gets the workspace it
    asks for, so that it runs its blocked code, whose pivots are those of
    ``scipy.linalg.ldl``."""
    lwork = int(lapack.dsytrf_lwork(len(S), lower=1)[0])
    ldu, ipiv, _ = lapack.dsytrf(S - lam * B_bb, lower=1, lwork=lwork, overwrite_a=1)
    one_by_one = np.diagonal(ldu)[ipiv > 0]
    return (ldu, ipiv), int(np.count_nonzero(one_by_one < 0)) + int(np.count_nonzero(ipiv < 0)) // 2


def count_below(forms: AssembledForms, c: float, lam: float) -> int:
    """Number of eigenvalues of (K + c M) u = rho B u strictly below lam,
    counted by Sylvester inertia instead of an eigensolve.

    For c >= 0 the interior block of A = K + c M is positive definite, so by
    Haynsworth additivity the negative inertia of A - lam B equals that of
    S(c) - lam B_bb, which by Sylvester's law (B_bb is positive definite) is
    the count.  S(c) comes by the route of a slice, and the inertia of
    S(c) - lam B_bb from ``_bunch_kaufman``.
    """
    _check_coefficients(c, lam)
    fi = forms.factor_input
    return _bunch_kaufman(_schur(fi, c)[0], fi.B_bb, lam)[1]


def level_crossings(forms: AssembledForms, lam: float) -> np.ndarray:
    """Rows (c_j*, low, high), descending, one per Steklov eigenvalue below
    lam: the c_j* > 0 at which a branch rho_j(c) meets lam, each with the
    window [low, high] = c_j* (1 -/+ BRACKET_RTOL) in which it is proved.

    They are the positive eigenvalues of (lam B - K) u = c M u, and
    count_below(forms, c, lam) of them exceed c, a count that never increases
    in c (M is positive semidefinite).  One S(0), fronts kept, serves it all.
    The inertias of S(0) - lam B_bb at lam (1 -/+ BRACKET_RTOL) differ when
    lam lies that near a Steklov eigenvalue (HhatIsSteklovEigenvalueError);
    the inertia n at lam is the number of roots, below n_b or
    CutoffExhaustedError.  The fronts and the factor at lam are the
    shift-invert operator at sigma = 0 (Ericsson & Ruhe, Math. Comp. 35,
    1980), which maps each c to 1/c: the n largest are the n positive c.
    Rayleigh-Ritz on ARPACK's M-orthonormal Ritz vectors gives vectors Z and
    values theta, checked by their residuals, which must all be positive.
    The Lanczos basis holds 2n + 4 vectors (Lehoucq, Sorensen & Yang, ARPACK
    Users' Guide, 1998).

    By Kahan's theorem (1967; Parlett, The Symmetric Eigenvalue Problem,
    Thm 11.5.2), n distinct eigenvalues lie within eta = ||M^-1/2 R||_2 /
    sigma_min(M^1/2 Z) of the theta_j, R = A Z - M Z diag(theta), and
    ``_kahan_bound`` bounds eta without a solve.  Roots whose windows
    c_j* (1 -/+ BRACKET_RTOL) overlap form a group.  A group is proved when
    eta <= BRACKET_RTOL c_j* for each member, and any other (a root at
    rounding level, or a wrong value) when the counts just below and just
    above it equal the table's.  As exactly n eigenvalues are positive, the
    inertia of the factor in use, the n positive windows then hold all of
    them, each group's as many as it has members.  That proves the table at
    every c outside the windows, and each c_j* to relative BRACKET_RTOL; a
    skipped copy of a double root raises EigensolverError.
    """
    _check_coefficients(0.0, lam)
    fi = forms.factor_input
    factors = []
    S = _schur(fi, 0.0, factors)[0]
    below, above = (_bunch_kaufman(S, fi.B_bb, lam * (1 + side * BRACKET_RTOL))[1]
                    for side in (-1, 1))
    if below != above:
        raise HhatIsSteklovEigenvalueError(
            f"Hhat = {lam:.12g} lies within relative {BRACKET_RTOL:g} of {above - below} Steklov "
            "eigenvalue(s); the Jacobi operator is degenerate for all t and no bifurcation "
            "conclusion is drawn")
    boundary, n = _bunch_kaufman(S, fi.B_bb, lam)
    if n >= len(fi.boundary_dofs):
        raise CutoffExhaustedError(f"boundary spectrum exhausted below {lam:.12g}; refine the mesh")
    if n == 0:
        return np.empty((0, 3))
    M = forms.M
    A = lam * forms.B - forms.K
    # a fixed, generic start (a component along every eigenvector) makes the
    # result reproducible
    shape = M.shape
    OPinv = spla.LinearOperator(shape, matvec=lambda x: -_solve(fi, factors, boundary, x),
                                dtype=float)
    v0 = np.random.default_rng(0).standard_normal(shape[0])
    try:
        X = spla.eigsh(A, k=n, M=M, sigma=0.0, OPinv=OPinv, which="LA",
                       ncv=min(2 * n + 4, shape[0]), tol=_SHIFT_INVERT_TOL, v0=v0)[1]
    except spla.ArpackNoConvergence as exc:
        raise EigensolverError(f"level-crossing iteration did not converge: {exc}") from exc
    w, y = _dense_gevp(_symmetrized(X.T @ (A @ X)), _symmetrized(X.T @ (M @ X)), n)
    Z = X @ y
    AZ, MZ = A @ Z, M @ Z
    _check_residuals(AZ, MZ, w, Z, _norm1(A), _norm1(M), "level-crossing")
    if not w[0] > 0:
        raise EigensolverError(f"level crossings at {lam:.12g}: {n} are positive, "
                               f"the solve returned {', '.join(f'{x:.12g}' for x in w)}")
    lo, hi = w * (1 - BRACKET_RTOL), w * (1 + BRACKET_RTOL)
    starts = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1]])
    eta = _kahan_bound(A, M, w, Z, AZ, MZ)
    for first, end in zip(starts, np.r_[starts[1:], n]):
        if eta <= BRACKET_RTOL * w[first]:  # w ascends: the group's least member
            continue
        for c, above in ((lo[first], n - first), (hi[end - 1], n - end)):
            counted = count_below(forms, c, lam)
            if counted != above:
                raise EigensolverError(f"level crossings at {lam:.12g}: an inertia count puts "
                                       f"{counted} above c={c:.12g}, the solve {above}")
    return np.column_stack((w, lo, hi))[::-1]


def _kahan_bound(A, M, w, Z, AZ, MZ) -> float:
    """A bound, which needs no solve, on eta = ||M^-1/2 R||_2 / sigma_min(M^1/2
    Z), R = A Z - M Z diag(w), from AZ and MZ as computed.  Every P1 element
    mass is vol/((d+1)(d+2)) (11' + I), so M >= diag(M)/2, and eta <= sqrt(2)
    ||diag(M)^-1/2 (|R| + E)||_F / sqrt(1 - ||Z' M Z - I||_2 - F), where E
    bounds the rounding of R entrywise and F that of the Gram product Z' M Z
    in the 2-norm (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, sec. 3.5).  The remaining steps (the 2-norm, the scaling, the sum of
    squares and the roots) round to relative O(N n eps), and a factor
    1 + (N n + n + 8) eps covers them; inf when Z is too far from
    M-orthonormal."""
    eps = np.finfo(float).eps
    N, n = Z.shape
    terms = np.diff(A.indptr).max() + 2  # the most products in one entry, and w and the minus
    mass = abs(M) @ abs(Z)
    gram = (N + terms) * eps * np.linalg.norm(abs(Z).T @ mass)  # Frobenius >= 2-norm
    loss = np.linalg.norm(_symmetrized(Z.T @ MZ) - np.eye(n), 2) + gram
    if not loss < 1:
        return np.inf
    error = terms * eps * (abs(A) @ abs(Z) + mass * w)
    scaled = (abs(AZ - MZ * w) + error) / np.sqrt(M.diagonal())[:, None]
    rounding = 1 + (N * n + n + 8) * eps
    return float(rounding * np.sqrt(2 * np.einsum("ij,ij->", scaled, scaled) / (1 - loss)))


def steklov_spectrum(forms: AssembledForms, k: int) -> SpectrumSlice:
    """Discrete Dirichlet-to-Neumann spectrum (bulk coefficient zero)."""
    return robin_steklov_spectrum(forms, 0.0, k)


def harmonic_extension(forms: AssembledForms, trace: np.ndarray, c: float = 0.0) -> np.ndarray:
    """Discrete (modified-)harmonic extension of boundary values: the interior
    components minimize the quadratic form of K + c M for the given trace."""
    _check_coefficients(c)
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
        rhs = -(forms.K @ phi + c * (forms.M @ phi))[fi.interior_order]
        phi[fi.interior_order] = lapack.dpbtrs(_interior_cholesky(fi, c), rhs)[0]
    return phi
