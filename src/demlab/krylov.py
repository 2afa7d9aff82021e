"""Preconditioned Krylov loops for the linear systems of the solvers.

Two methods, both started from x = 0 and both reporting ``(x, info)`` with
``info == 0`` on convergence and ``info = maxiter`` otherwise:

* ``cg``: preconditioned conjugate gradients for symmetric positive definite
  operators (Hestenes & Stiefel 1952).  Each iteration applies the operator
  and the preconditioner once.
* ``gmres``: left-preconditioned restarted GMRES (Saad & Schultz 1986) with
  modified Gram-Schmidt and Givens rotations.  The inner loop stops on the
  preconditioned residual; after each restart the true residual decides,
  and the inner tolerance is rescaled from it: cut by 4 when the inner test
  passed but the true one failed, relaxed by 1.5 otherwise.  One
  preconditioner application gives |M b| and the first cycle's starting
  vector, then one per later restart and one per inner step.  The operator
  is applied once per inner step and once after each cycle that does not
  converge, so once per restart in a converged run.  A cycle's true
  residual is r - sum_k y_k (A v_k), with r the residual it started from
  and A v_k the products its inner steps already took (Saad, Iterative
  Methods for Sparse Linear Systems, 2003, 6.5 and 9.3); only when that
  misses the tolerance is b - A x taken afresh, and the next cycle starts
  from it, so rounding in the update decides at most when to stop and
  never steers the iteration.  A converged run thus applies M once more
  than A.  scipy takes b - A x after every cycle and applies M to b twice,
  one call more of each, and otherwise does the same arithmetic.

Operators and preconditioners are anything with a ``matvec`` method;
``LinearMap`` wraps a function and also carries ``shape`` and ``dtype``.
Both methods take the tolerance, the iteration budget and the
preconditioner ``M`` as keywords, with no defaults.
Convergence means ``|b - A x| <= rtol |b|`` in the 2-norm.  ``cg`` measures
it on the residual its recurrence updates, which tracks b - A x up to
rounding of the order eps |A| |x|; at rtol near 1e-13 that drift is as large
as the target, so a caller that needs the tolerance there checks b - A x
itself, as the default ``solve_helmholtz`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)
# Inside these bounds the Givens radius sqrt(f^2 + g^2) neither overflows nor
# underflows (LAPACK dlartg's rtmin and rtmax).
_RT_MIN = math.sqrt(float(np.finfo(float).tiny))
_RT_MAX = math.sqrt(float(np.finfo(float).max) / 2.0)


@dataclass(frozen=True)
class LinearMap:
    """A real square operator on vectors of length ``size``, given by its action.

    ``matvec`` must return a new array that nothing else holds: ``gmres``
    keeps the operator's products and writes into the preconditioner's.
    """

    size: int
    matvec: Callable[[np.ndarray], np.ndarray]
    dtype = np.dtype(float)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)


def _start(b, rtol):
    b = np.asarray(b, dtype=float).ravel()
    b_norm = float(np.linalg.norm(b))
    return b, b_norm, float(rtol) * b_norm


def cg(A, b, *, rtol, maxiter, M):
    """Preconditioned conjugate gradients for A x = b, A and M symmetric positive definite."""
    b, b_norm, tol = _start(b, rtol)
    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x, 0
    psolve = M.matvec
    r = b.copy()
    rho_prev = p = None
    for iteration in range(maxiter):
        if np.linalg.norm(r) < tol:
            return x, 0
        z = psolve(r)
        rho = np.dot(r, z)
        if iteration:
            p *= rho / rho_prev
            p += z
        else:
            p = np.array(z, dtype=float)
        q = A.matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter


def _givens(f: float, g: float) -> tuple[float, float, float]:
    """(c, s, rho) with c >= 0 and [[c, s], [-s, c]] (f, g) = (rho, 0), as in dlartg."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    if _RT_MIN < abs(f) < _RT_MAX and _RT_MIN < abs(g) < _RT_MAX:
        d = math.sqrt(f * f + g * g)
    else:
        d = float(np.hypot(f, g))
    rho = math.copysign(d, f)
    return abs(f) / d, g / rho, rho


def gmres(A, b, *, rtol, restart, maxiter, M):
    """Left-preconditioned GMRES(restart) for A x = b; ``maxiter`` counts restarts."""
    b, b_norm, tol = _start(b, rtol)
    n = b.size
    x = np.zeros_like(b)
    if b_norm == 0.0:
        return x, 0
    psolve = M.matvec
    restart = min(restart, n)
    # The inner loop runs on the preconditioned residual: its tolerance is
    # the outer one carried over through |M b| / |b|, then rescaled per restart.
    ptol_factor = 1.0
    # The first cycle starts from r = b, so M b is also its first vector.
    z = psolve(b)
    ptol = float(np.linalg.norm(z)) * min(ptol_factor, tol / b_norm)
    presid = 0.0
    v = np.empty((restart + 1, n))
    h = np.zeros((restart, restart + 1))
    rotations = np.zeros((restart, 2))
    r, r_norm = b, b_norm
    for cycle in range(maxiter):
        v[0] = z if cycle == 0 else psolve(r)
        beta = np.linalg.norm(v[0])
        v[0] *= 1.0 / beta
        g = np.zeros(restart + 1)  # rotated right side of the Hessenberg problem
        g[0] = beta
        breakdown = False
        av = []  # A v_k of this cycle, before the preconditioner
        for col in range(restart):
            av.append(A.matvec(v[col]))
            w = psolve(av[col])
            h0 = np.linalg.norm(w)
            for k in range(col + 1):
                hk = np.dot(v[k], w)
                h[col, k] = hk
                w -= hk * v[k]
            h1 = np.linalg.norm(w)
            h[col, col + 1] = h1
            v[col + 1] = w
            if h1 <= _EPS * h0:  # the Krylov space holds the exact solution
                h[col, col + 1] = 0.0
                breakdown = True
            else:
                v[col + 1] *= 1.0 / h1
            for k in range(col):
                c, s = rotations[k]
                n0, n1 = h[col, k], h[col, k + 1]
                h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
            c, s, h[col, col] = _givens(float(h[col, col]), float(h[col, col + 1]))
            h[col, col + 1] = 0.0
            rotations[col] = c, s
            g[col], g[col + 1] = c * g[col], -s * g[col]
            presid = abs(g[col + 1])
            if presid <= ptol or breakdown:
                break
        # Back substitution on the triangular (col+1)-square system.
        if h[col, col] == 0.0:
            g[col] = 0.0
        y = g[: col + 1].copy()
        for k in range(col, 0, -1):
            if y[k] != 0.0:
                y[k] /= h[k, k]
                y[:k] -= y[k] * h[k, :k]
        if y[0] != 0.0:
            y[0] /= h[0, 0]
        x += y @ v[: col + 1]
        # r was the true residual of the cycle's start, and A x moved by
        # sum_k y_k A v_k: that update decides convergence without a matvec.
        # A cycle that goes on starts from a fresh b - A x, so rounding in
        # the update never steers the iteration.
        r = r.copy()
        for yk, avk in zip(y, av):
            r -= yk * avk
        r_norm = np.linalg.norm(r)
        if r_norm > tol:
            r = b - A.matvec(x)
            r_norm = np.linalg.norm(r)
        if r_norm <= tol or breakdown:
            break
        if presid <= ptol:  # the inner test passed but the true residual did not
            ptol_factor = max(_EPS, 0.25 * ptol_factor)
        else:
            ptol_factor = min(1.0, 1.5 * ptol_factor)
        ptol = presid * min(ptol_factor, tol / r_norm)
    return x, 0 if r_norm <= tol else maxiter
