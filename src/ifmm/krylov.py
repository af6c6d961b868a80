"""Non-restarted GMRES with pluggable matvec and preconditioner.

Arnoldi with modified Gram-Schmidt and Givens-rotation least squares.
The residual history holds the quantity GMRES minimizes: the true
relative residual for right (or no) preconditioning, the preconditioned
residual for left preconditioning.

Also provides the fast hierarchical matvec over H2Operators (the same
operators the factorization consumes) and a block-diagonal
preconditioner built from dense diagonal sub-blocks.
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

    `precond` applies P^{-1}. Zero-vector Arnoldi breakdown returns the
    current iterate (converged if the residual estimate met tol).
    """
    if tol <= 0 or max_iters < 1:
        raise ValueError("tol must be > 0 and max_iters >= 1")
    if precond is None:
        side = "none"
    if side not in ("left", "right", "none"):
        raise ValueError("side must be 'left', 'right', or 'none'")
    trace = IterationTrace(side=side)

    n = len(b)
    r0 = precond(b) if side == "left" else b
    beta = np.linalg.norm(r0)
    if beta == 0.0:
        trace.converged = True
        return np.zeros(n), trace

    # the Krylov basis and the rotated Hessenberg columns grow with the
    # iterations taken, not with max_iters
    V = [r0 / beta]
    R: list[np.ndarray] = []            # column k holds H[:k+1, k]
    cs: list[float] = []
    sn: list[float] = []
    g = [beta]

    breakdown = False
    for k in range(max_iters):
        if side == "right":
            w = apply_A(precond(V[k]))
        elif side == "left":
            w = precond(apply_A(V[k]))
        else:
            w = apply_A(V[k])
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
        u = np.zeros(n)
        for yi, vi in zip(y, V):
            u += yi * vi
        x = precond(u) if side == "right" else u
    trace.iterations = k
    return x, trace


def h2_matvec(ops: H2Operators, x: np.ndarray) -> np.ndarray:
    """Fast matvec: upward pass, couplings, downward pass, near field."""
    tree = ops.tree
    bd = ops.block_dim
    if len(x) != tree.n_points * bd:
        raise ValueError("vector length mismatch")
    xt = np.asarray(x, dtype=float).reshape(tree.n_points, bd)[tree.perm].ravel()

    y: dict[int, np.ndarray] = {}
    for cid in tree.leaves():
        c = tree.clusters[cid]
        y[cid] = ops.leaf_v[cid].T @ xt[c.start * bd:c.stop * bd]
    for level in range(tree.depth - 1, 1, -1):
        for pid in tree.levels[level]:
            y[pid] = sum(ops.transfer_vt[c] @ y[c]
                         for c in tree.clusters[pid].children)

    z: dict[int, np.ndarray] = {}
    for level in range(2, tree.depth + 1):
        for cid in tree.levels[level]:
            acc = np.zeros(ops.rank[cid])
            for q in ops.topology.interactions[cid]:
                acc += ops.coupling[(cid, q)] @ y[q]
            if level > 2:
                acc += ops.transfer_u[cid] @ z[tree.clusters[cid].parent]
            z[cid] = acc

    out = np.zeros_like(xt)
    for cid in tree.leaves():
        c = tree.clusters[cid]
        seg = np.zeros((c.stop - c.start) * bd)
        for q in ops.topology.neighbors[cid]:
            cq = tree.clusters[q]
            seg += ops.near[(cid, q)] @ xt[cq.start * bd:cq.stop * bd]
        if tree.depth >= 2:
            seg += ops.leaf_u[cid] @ z[cid]
        out[c.start * bd:c.stop * bd] = seg

    res = np.empty_like(out).reshape(tree.n_points, bd)
    res[tree.perm] = out.reshape(tree.n_points, bd)
    return res.ravel()


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
