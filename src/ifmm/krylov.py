"""Non-restarted GMRES with pluggable matvec and preconditioner.

Arnoldi with modified Gram-Schmidt and Givens-rotation least squares;
right preconditioning is flexible (FGMRES, Saad 1993). The residual
history holds the quantity GMRES minimizes: the true relative residual
for right (or no) preconditioning, the preconditioned one for left.

Also provides the fast hierarchical matvec over H2Operators (the same
operators the factorization consumes), applied through their compiled
layout: per-leaf near rows and per-level coupling stacks. And a
block-diagonal preconditioner built from dense diagonal sub-blocks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla

from .h2 import H2Operators


@dataclass
class IterationTrace:
    residual_history: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    side: str = "none"


def gmres(apply_A: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          tol: float = 1e-10, max_iters: int = 500,
          precond: Callable[[np.ndarray], np.ndarray] | None = None,
          side: str = "right") -> tuple[np.ndarray, IterationTrace]:
    """Solve A x = b; returns the iterate and its residual trace.

    `precond` applies P^{-1}. On the right side, once per iteration: A
    multiplies its outputs z_k and x = sum y_k z_k, so the residual history
    is the true residual of x for any preconditioner, linear or not. The
    outputs are kept: `precond` must return arrays it does not modify
    later. Without `precond` the solve is unpreconditioned and the trace's
    side is "none". A `side` other than "left" or "right", or a `b` that
    is not 1-D or not finite, raises ValueError.
    Zero-vector Arnoldi breakdown returns the current iterate (converged
    if the residual estimate met tol).
    """
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be > 0 and max_iters >= 1")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}; "
                         "pass no precond for an unpreconditioned solve")
    if precond is None:
        side = "none"
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"b must be 1-D, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("b must be finite (it has nan or inf entries)")
    trace = IterationTrace(side=side)

    n = len(b)
    r0 = precond(b) if side == "left" else b
    beta = np.linalg.norm(r0)
    if beta == 0.0:
        trace.converged = True
        return np.zeros(n), trace

    # the Krylov basis, the vectors A multiplied and the rotated Hessenberg
    # columns grow with the iterations taken, not with max_iters
    V = [r0 / beta]
    Z: list[np.ndarray] = []            # z_k = P^{-1} v_k on the right side
    R: list[np.ndarray] = []            # column k holds H[:k+1, k]
    cs: list[float] = []
    sn: list[float] = []
    g = [beta]

    breakdown = False
    for k in range(max_iters):
        Z.append(precond(V[k]) if side == "right" else V[k])
        w = apply_A(Z[k])
        if side == "left":
            w = precond(w)
        h = np.zeros(k + 2)
        for i in range(k + 1):          # modified Gram-Schmidt
            h[i] = V[i] @ w
            w = w - h[i] * V[i]
        h_sub = np.linalg.norm(w)
        h[k + 1] = h_sub

        for i in range(k):              # apply stored rotations
            h0 = cs[i] * h[i] + sn[i] * h[i + 1]
            h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1]
            h[i] = h0
        nu = np.hypot(h[k], h[k + 1])
        if nu == 0.0:
            breakdown = True
            break
        cs.append(h[k] / nu)
        sn.append(h[k + 1] / nu)
        h[k] = nu
        R.append(h[:k + 1])
        g.append(-sn[k] * g[k])
        g[k] = cs[k] * g[k]

        rel = abs(g[k + 1]) / beta
        trace.residual_history.append(float(rel))
        if rel <= tol:
            trace.converged = True
            break
        if h_sub == 0.0:                # exact breakdown: Krylov space exhausted
            breakdown = True
            break
        V.append(w / h_sub)

    if breakdown and trace.residual_history:
        trace.converged = trace.residual_history[-1] <= tol

    k = len(R)
    x = np.zeros(n)
    if k > 0:
        H = np.zeros((k, k))
        for j, col in enumerate(R):
            H[:j + 1, j] = col
        y = sla.solve_triangular(H, np.array(g[:k]))
        for yi, zi in zip(y, Z):
            x += yi * zi
    trace.iterations = k
    return x, trace


def h2_matvec(ops: H2Operators, x: np.ndarray) -> np.ndarray:
    """Fast matvec on a (dim,) vector or a (dim, m) block, in one pass.

    Per leaf one product with its near row (and, for a symmetric kernel,
    one with the row's mirrored part) and one with each basis; per level
    one batched product per coupling stack and one segment sum; one
    transfer per child between levels. Any other shape raises ValueError.
    """
    tree = ops.tree
    bd, dim = ops.block_dim, ops.dim
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != dim:
        raise ValueError(f"expected shape ({dim},) or ({dim}, m), got {x.shape}")
    m = x.shape[1] if x.ndim == 2 else 1
    xt = x.reshape(tree.n_points, bd, m)[tree.perm].reshape(dim, m)

    out = np.zeros_like(xt)
    for row in ops.near_rows:
        row.apply(xt, out)
    if tree.depth >= 2:
        _far_field(ops, xt, out)

    res = np.empty_like(out).reshape(tree.n_points, bd, m)
    res[tree.perm] = out.reshape(tree.n_points, bd, m)
    return res.reshape(x.shape)


def _far_field(ops: H2Operators, xt: np.ndarray, out: np.ndarray) -> None:
    """out += U K V^T xt over every level: upward pass, couplings, downward."""
    tree, bd, rank = ops.tree, ops.block_dim, ops.rank
    cl = tree.clusters
    y: dict[int, np.ndarray] = {}
    for cid in tree.leaves():
        y[cid] = ops.leaf_v[cid].T @ xt[cl[cid].start * bd:cl[cid].stop * bd]
    for level in range(tree.depth - 1, 1, -1):
        for pid in tree.levels[level]:
            y[pid] = sum(ops.transfer_vt[c] @ y[c] for c in cl[pid].children)

    z: dict[int, np.ndarray] = {}
    for lev in ops.coupling_levels:
        Y = np.zeros((len(lev.clusters), lev.kmax, xt.shape[1]))
        for p, cid in enumerate(lev.clusters):
            Y[p, :rank[cid]] = y[cid]
        Z = lev.apply(Y)
        for p, cid in enumerate(lev.clusters):
            z[cid] = Z[p, :rank[cid]]
            if cid in ops.transfer_u:   # below level 2: the parent's far field
                z[cid] += ops.transfer_u[cid] @ z[cl[cid].parent]

    for cid in tree.leaves():
        out[cl[cid].start * bd:cl[cid].stop * bd] += ops.leaf_u[cid] @ z[cid]


def block_diag_preconditioner(A: np.ndarray, block_size: int):
    """Factorize the diagonal blocks of A once; apply solves blockwise.

    The final block may be shorter when block_size does not divide the
    dimension. A singular or non-finite diagonal block raises ValueError.
    """
    n = A.shape[0]
    if block_size < 1 or block_size > n:
        raise ValueError("block_size must be in [1, n]")
    factors = []
    bounds = list(range(0, n, block_size)) + [n]
    for a, b in zip(bounds[:-1], bounds[1:]):
        # lu_factor only warns on an exactly singular block: check U and
        # report it by the error alone
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(A[a:b, a:b], check_finite=False)
        if not np.all(np.isfinite(lu)) or not np.all(np.diag(lu)):
            raise ValueError(f"singular diagonal block [{a}:{b}]")
        factors.append((a, b, (lu, piv)))

    def apply(v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for a, b, lu in factors:
            out[a:b] = sla.lu_solve(lu, v[a:b])
        return out

    return apply
