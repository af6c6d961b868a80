"""Kernel functions, point-cloud generators, and Stokes mobility blocks.

Three kernels are provided: a scalar benchmark kernel that equals 1 on
the diagonal, grows linearly up to distance d, and decays like d/r
beyond; the Rotne-Prager-Yamakawa mobility tensor (3x3 blocks) with the
overlap-regularized branch so the assembled matrix stays symmetric
positive-semidefinite; and a smooth non-symmetric scalar kernel whose
rows are scaled by a linear function of the target point.

Scene generation is deterministic: the same seed always reproduces the
same points (PCG64 streams are stable across platforms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist


@dataclass
class Kernel:
    """A kernel producing block matrix entries.

    The benchmark and RPY kernels depend only on the offset between two
    points; `nonsymmetric_kernel` also scales each row by a function of its
    target point, so it is not translation-invariant.

    `evaluate(ri, rj)` returns a block_dim x block_dim block; `block(P, Q)`
    assembles the full (len(P)*bd) x (len(Q)*bd) matrix between two point
    sets, vectorized. Ordering is point-major: row p*bd + a. `symmetric`
    marks kernels with block(P, Q) == block(Q, P).T, which the builders
    exploit to share transposed blocks and keep U = V exactly.
    """
    name: str
    block_dim: int
    params: dict
    block: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(repr=False)
    symmetric: bool = True

    def evaluate(self, ri, rj) -> np.ndarray:
        return self.block(np.atleast_2d(ri), np.atleast_2d(rj))


def benchmark_kernel(d: float) -> Kernel:
    """Scalar kernel: 1 at r=0, r/d for 0<r<d, d/r for r>=d."""
    if d <= 0:
        raise ValueError("d must be positive")

    def block(P, Q):
        r = cdist(P, Q)
        out = np.empty_like(r)
        near = r < d
        out[near] = r[near] / d
        out[~near] = d / r[~near]
        out[r == 0.0] = 1.0
        return out

    return Kernel("benchmark", 1, {"d": d}, block)


def rpy_kernel(radius: float, viscosity: float = 1.0) -> Kernel:
    """Rotne-Prager-Yamakawa mobility blocks f(r) I + g(r) rhat rhat^T.

    Far field (r > 2a):  f = c (3a/4r + a^3/2r^3),  g = c (3a/4r - 3a^3/2r^3)
    Overlap (r <= 2a):   f = c (1 - 9r/32a),        g = c (3r/32a)
    Self (r = 0):        f = c,                      g = 0
    with c = 1/(6 pi eta a).
    """
    if radius <= 0 or viscosity <= 0:
        raise ValueError("radius and viscosity must be positive")
    a = radius
    c0 = 1.0 / (6.0 * np.pi * viscosity * a)

    def block(P, Q):
        diff = P[:, None, :] - Q[None, :, :]
        r = np.sqrt(np.sum(diff * diff, axis=-1))
        far = r > 2.0 * a
        rs = np.where(r == 0.0, 1.0, r)  # safe divisor
        f = np.where(far,
                     c0 * (3.0 * a / (4.0 * rs) + (a ** 3) / (2.0 * rs ** 3)),
                     c0 * (1.0 - 9.0 * r / (32.0 * a)))
        g = np.where(far,
                     c0 * (3.0 * a / (4.0 * rs) - 3.0 * (a ** 3) / (2.0 * rs ** 3)),
                     c0 * (3.0 * r / (32.0 * a)))
        g = np.where(r == 0.0, 0.0, g)
        rhat = diff / rs[..., None]
        outer = rhat[..., :, None] * rhat[..., None, :]
        eye = np.eye(3)
        blocks = f[..., None, None] * eye + g[..., None, None] * outer
        m, n = len(P), len(Q)
        return blocks.transpose(0, 2, 1, 3).reshape(3 * m, 3 * n)

    return Kernel("rpy", 3, {"radius": radius, "viscosity": viscosity}, block)


def nonsymmetric_kernel() -> Kernel:
    """Scalar kernel (1 + 0.5 x_p) / (0.1 + |p - q|), x_p the first
    coordinate of the target point p: smooth, and not symmetric."""

    def block(P, Q):
        return (1.0 + 0.5 * P[:, :1]) / (0.1 + cdist(P, Q))

    return Kernel("nonsymmetric", 1, {}, block, symmetric=False)


def scaled_d(base: float, n_points: int, exponent: float) -> float:
    """Distance parameter scaling d = base * (N/1000)^exponent."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    return base * (n_points / 1000.0) ** exponent


@dataclass
class Scene:
    points: np.ndarray
    description: str


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def sphere_surface(n: int, seed: int) -> Scene:
    """n points uniform on the unit sphere (normalized Gaussian draws)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    g = _rng(seed).standard_normal((n, 3))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    # a zero draw has probability 0; regenerate deterministically if it happens
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        g[bad] = _rng(seed + 1).standard_normal((bad.sum(), 3))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
    return Scene(g / norms, f"sphere_surface(n={n}, seed={seed})")


def cube_uniform(n: int, seed: int) -> Scene:
    """n points uniform in the cube [-1, 1]^3."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = _rng(seed).uniform(-1.0, 1.0, size=(n, 3))
    return Scene(pts, f"cube_uniform(n={n}, seed={seed})")


def icosphere(subdivision: int) -> np.ndarray:
    """Vertices of a unit icosphere: 10 * 4**subdivision + 2 of them.

    Recursive subdivision of a regular icosahedron with midpoint
    projection onto the sphere.
    """
    if subdivision < 0:
        raise ValueError("subdivision must be >= 0")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [(-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
             (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
             (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1)]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [(0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
             (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
             (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
             (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1)]

    for _ in range(subdivision):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for (i, j, k) in faces:
            a, b, c = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces

    return np.array(verts)


def sphere_lattice(nx: int, ny: int, nz: int, subdivision: int,
                   spacing: float, body_radius: float = 1.0) -> Scene:
    """Regular lattice of icosphere-discretized rigid bodies."""
    base = icosphere(subdivision) * body_radius
    pts = []
    for ix in range(nx):
        for iy in range(ny):
            for iz in range(nz):
                offset = spacing * np.array([ix, iy, iz], dtype=float)
                pts.append(base + offset)
    return Scene(np.vstack(pts),
                 f"sphere_lattice({nx}x{ny}x{nz}, subdivision={subdivision}, "
                 f"spacing={spacing}, body_radius={body_radius})")


def concentric_shells(subdivisions: list[int], radii: list[float]) -> Scene:
    """Concentric spherical shells, one icosphere discretization per shell."""
    if len(subdivisions) != len(radii):
        raise ValueError("subdivisions and radii must have equal length")
    pts = [icosphere(s) * r for s, r in zip(subdivisions, radii)]
    return Scene(np.vstack(pts),
                 f"concentric_shells(subdivisions={subdivisions}, radii={radii})")


def scene_to_text(scene: Scene, path) -> None:
    np.savetxt(path, scene.points, fmt="%.17g")


def scene_from_text(path, description: str = "imported") -> Scene:
    pts = np.loadtxt(path, ndmin=2)
    if pts.shape[1] != 3:
        raise ValueError("expected three columns (x y z)")
    return Scene(pts, description)
