"""Direct BLAS/LAPACK calls for the linear algebra done at every
(theta, lambda) point.

The matrices here are at most M x (K + M), far too small for threads.
``scipy.linalg.solve_triangular`` solves through LAPACK ``trtrs``, which
in OpenBLAS wakes the library's worker threads on every call, even at
3 x 3, and they then spin on the other cores; BLAS ``trsm`` does the
same solve on the calling thread.  Calling the routines directly also
skips the argument handling of the scipy and numpy wrappers, which at
these sizes costs more than the arithmetic.

Each function returns the same bits as the call named in its docstring:
it runs the same routine with the same arguments on the same memory
layout.  Inputs are trusted; :func:`apndoa.apn.apn_estimate` and
:func:`apndoa.workspace.build_workspace` validate at the boundary.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

__all__ = ["complete_qr", "solve_upper", "cholesky", "cho_solve", "per_lane"]

(_ztrsm,) = get_blas_funcs(("trsm",), dtype=complex)
_zgeqrf, _zungqr = get_lapack_funcs(("geqrf", "ungqr"), dtype=complex)
_POTRF = {
    np.dtype(t): get_lapack_funcs(("potrf",), dtype=t)[0] for t in (float, complex)
}
_POTRS = {
    np.dtype(t): get_lapack_funcs(("potrs",), dtype=t)[0] for t in (float, complex)
}


def _check(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


def complete_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """QR of a complex M x K matrix with M >= K, with the complete Q.

    Returns ``(q, r, q_perp)``.  ``q`` and ``r`` are the thin factors of
    ``np.linalg.qr(a)``, bit for bit and C-ordered as numpy returns them;
    ``q_perp`` holds the other M - K columns of the complete unitary Q,
    an orthonormal basis of the complement of ``a``'s range.

    ``zgeqrf`` then ``zungqr``, as numpy calls them, except that
    ``zungqr`` forms all M columns from the same K reflectors.  It
    applies each reflector to every column on its own, so the first K
    columns carry the bits of the thin Q.  Below LAPACK's block size (32
    columns) both routines run unblocked whatever the workspace size, so
    the default workspace gives numpy's bits.

    A (T, M, K) stack gives (T, ...) stacks whose lanes have the bits and
    the memory layout of their own calls (``q_perp``'s lanes are
    Fortran-ordered).  Two or more lanes come from one
    ``np.linalg.qr(mode="complete")`` call, which runs the same two
    routines: 27.6 us at five 11 x 3 lanes against 39.6 us for five
    calls here (2-core x86-64, OpenBLAS 0.3.31).
    """
    if a.ndim == 3:
        if a.shape[0] == 1:
            return tuple(f[None] for f in complete_qr(a[0]))
        k = a.shape[-1]
        q, r = np.linalg.qr(a, mode="complete")
        return (
            np.ascontiguousarray(q[..., :k]),
            np.ascontiguousarray(r[..., :k, :]),
            np.ascontiguousarray(q[..., k:].mT).mT,
        )
    qr, tau, _, info = _zgeqrf(a)
    _check(info, "zgeqrf")
    m, k = a.shape
    r = qr[:k].copy()                 # C-ordered, as np.triu returns it
    for i in range(1, k):
        r[i, :i] = 0.0
    full = np.zeros((m, m), dtype=complex, order="F")
    full[:, :k] = qr
    q, _, info = _zungqr(full, tau, overwrite_a=1)
    _check(info, "zungqr")
    return np.ascontiguousarray(q[:, :k]), r, q[:, k:]


def solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``R^-1 b`` for a nonsingular upper-triangular complex ``r`` and a
    2-D ``b``: ``scipy.linalg.solve_triangular(r, b)``, through ``ztrsm``.

    LAPACK ``ztrtrs``, which scipy calls, is a singularity check followed
    by this ``ztrsm`` call.  Like scipy, a C-ordered ``r`` is passed as
    the lower-triangular transpose, so no copy is made and the operation
    order is scipy's.  The caller guarantees a nonzero diagonal.
    """
    if r.flags.f_contiguous:
        return _ztrsm(1.0, r, b)
    return _ztrsm(1.0, r.T, b, lower=1, trans_a=1)


def cholesky(a: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """Lower Cholesky factor of a Hermitian (or real symmetric) matrix, or
    ``None`` if it is not positive definite.

    The factor is ``scipy.linalg.cho_factor(a, lower=True)``: a
    ``(c, True)`` pair whose upper triangle keeps the entries of ``a``,
    which ``scipy.linalg.cho_solve`` and :func:`cho_solve` accept.
    """
    c, info = _POTRF[a.dtype](a, lower=1, clean=0)
    if info > 0:
        return None
    _check(info, "potrf")
    return c, True


def cho_solve(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from :func:`cholesky`'s factor of ``A``:
    ``scipy.linalg.cho_solve(factor, b)``, without its finiteness check."""
    c, lower = factor
    x, info = _POTRS[c.dtype](c, b, lower=lower)
    _check(info, "potrs")
    return x


def per_lane(solve, factors, b: np.ndarray) -> np.ndarray:
    """``solve(f, b)`` for each lane's factor ``f``, as a stack.

    The routines here return Fortran-ordered arrays, and a matrix
    product can round differently with the layout of its operands, so
    each lane of the stack keeps that layout.
    """
    if len(factors) == 1:
        return solve(factors[0], b)[None]
    out = np.empty((len(factors),) + b.shape[::-1], dtype=complex).mT
    for i, f in enumerate(factors):
        out[i] = solve(f, b)
    return out
