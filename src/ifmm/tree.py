"""Uniform octree over 3D point sets and the derived cluster topology.

The tree is purely geometric: it partitions a point cloud into a hierarchy
of cubic cells and records, per cluster, the neighbor list (same-level
clusters whose cells touch, including the cluster itself), the interaction
list (children of the parent's neighbors that are not neighbors), and the
children list. Points are permuted into Morton order so every cluster owns
a contiguous slice of the permuted array.

Adjacency is defined by Chebyshev distance <= 1 between integer cell
coordinates, so in 3D a cluster has at most 27 neighbors and at most
6^3 - 3^3 = 189 clusters in its interaction list. Empty cells are pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_DEPTH = 12   # deepest tree the automatic depth choice builds
# deepest tree whose Morton keys (3 bits per level) fit in an int64
MAX_FORCED_DEPTH = 63 // 3


class DegenerateGeometryError(ValueError):
    """Raised when all input points coincide (zero bounding box)."""


class NonFiniteGeometryError(ValueError):
    """Raised when an input point has a NaN or infinite coordinate."""


class DuplicatePointsError(ValueError):
    """Raised when two input points coincide exactly.

    Equal points give equal kernel rows, so the matrix is singular.
    """


@dataclass
class Cluster:
    level: int
    cell: tuple[int, int, int]
    center: np.ndarray
    half_width: float
    start: int
    stop: int
    parent: int | None = None
    children: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass
class Octree:
    points: np.ndarray          # (N, 3), permuted into Morton order
    perm: np.ndarray            # points[i] == original_points[perm[i]]
    depth: int
    root_center: np.ndarray
    root_half_width: float
    clusters: list[Cluster]
    levels: list[list[int]]     # cluster ids per level, Morton-sorted

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    def leaves(self) -> list[int]:
        return self.levels[self.depth]


@dataclass
class ClusterTopology:
    neighbors: list[list[int]]     # per cluster id, includes self
    interactions: list[list[int]]  # per cluster id
    neighbor_sets: list[set[int]]

    def are_neighbors(self, i: int, j: int) -> bool:
        return j in self.neighbor_sets[i]


def _morton_key(cells: np.ndarray, depth: int) -> np.ndarray:
    """Interleave the bits of integer cell coordinates (z-order)."""
    key = np.zeros(len(cells), dtype=np.int64)
    for b in range(depth):
        for axis in range(3):
            key |= ((cells[:, axis].astype(np.int64) >> b) & 1) << (3 * b + axis)
    return key


def _cell_indices(points: np.ndarray, center: np.ndarray, half_width: float,
                  level: int) -> np.ndarray:
    """Cell coordinates at `level`; boundary points go to the lower cell."""
    n_cells = 1 << level
    h = 2.0 * half_width / n_cells
    rel = points - (center - half_width)
    idx = np.ceil(rel / h).astype(np.int64) - 1
    return np.clip(idx, 0, n_cells - 1)


def _count_occupied(points, center, half_width, level) -> int:
    cells = _cell_indices(points, center, half_width, level)
    return len(np.unique(_morton_key(cells, level)))


def build_octree(points: np.ndarray, leaf_target: int,
                 depth: int | None = None,
                 root_box: tuple[np.ndarray, float] | None = None
                 ) -> tuple[Octree, np.ndarray]:
    """Build a uniform octree whose non-empty leaves hold ~leaf_target points.

    The depth is the smallest L >= 2 such that the mean population of the
    non-empty leaf cells is <= leaf_target, capped at MAX_DEPTH. Pass
    `depth` to force a specific depth instead (0 to MAX_FORCED_DEPTH,
    including the degenerate single-cell tree). `root_box=(center, half_width)`
    overrides the bounding cube derived from the points.

    Returns the tree and the permutation that sorts points into leaf
    (Morton) order.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError("points must be an (N, 3) array")
    if len(points) == 0:
        raise ValueError("points must be non-empty")
    bad = ~np.isfinite(points).all(axis=1)
    if bad.any():
        raise NonFiniteGeometryError(
            f"{int(bad.sum())} point(s) have non-finite coordinates, "
            f"first at index {int(np.argmax(bad))}")
    if leaf_target < 1:
        raise ValueError("leaf_target must be >= 1")

    if root_box is not None:
        center = np.asarray(root_box[0], dtype=float)
        half_width = float(root_box[1])
    else:
        lo, hi = points.min(axis=0), points.max(axis=0)
        center = 0.5 * (lo + hi)
        half_width = 0.5 * float((hi - lo).max())
    if half_width <= 0.0:
        raise DegenerateGeometryError("all points coincide; zero bounding box")
    # lexicographic sort puts equal points next to each other; == treats
    # -0.0 and 0.0 as equal
    order = np.lexsort(points.T)
    same = (points[order[1:]] == points[order[:-1]]).all(axis=1)
    if same.any():
        i = int(np.argmax(same))
        first, second = sorted((int(order[i]), int(order[i + 1])))
        raise DuplicatePointsError(
            f"{int(same.sum())} point(s) repeat an earlier one; points "
            f"{first} and {second} coincide")

    if depth is None:
        depth = 2
        while (depth < MAX_DEPTH
               and len(points) / _count_occupied(points, center, half_width, depth)
               > leaf_target):
            depth += 1
    elif not 0 <= depth <= MAX_FORCED_DEPTH:
        raise ValueError(f"depth must be in [0, {MAX_FORCED_DEPTH}] "
                         f"(MAX_FORCED_DEPTH), got {depth}")

    leaf_cells = _cell_indices(points, center, half_width, depth)
    keys = _morton_key(leaf_cells, depth)
    perm = np.argsort(keys, kind="stable")
    sorted_points = points[perm]
    sorted_keys = keys[perm]

    clusters: list[Cluster] = []
    levels: list[list[int]] = [[] for _ in range(depth + 1)]

    # Leaves: one cluster per occupied cell, ranges from the sorted keys.
    uniq, starts = np.unique(sorted_keys, return_index=True)
    stops = np.append(starts[1:], len(points))
    sorted_cells = leaf_cells[perm]
    key_to_id: dict[int, int] = {}
    for key, a, b in zip(uniq, starts, stops):
        cell = tuple(int(c) for c in sorted_cells[a])
        cid = len(clusters)
        clusters.append(Cluster(depth, cell, _cell_center(center, half_width, depth, cell),
                                half_width / (1 << depth), int(a), int(b)))
        levels[depth].append(cid)
        key_to_id[int(key)] = cid

    # Parents, bottom-up: group children by key >> 3.
    child_ids = levels[depth]
    child_keys = [int(k) for k in uniq]
    for level in range(depth - 1, -1, -1):
        parent_map: dict[int, list[int]] = {}
        for cid, key in zip(child_ids, child_keys):
            parent_map.setdefault(key >> 3, []).append(cid)
        new_ids, new_keys = [], []
        for pkey in sorted(parent_map):
            kids = parent_map[pkey]
            cell = tuple(c >> 1 for c in clusters[kids[0]].cell)
            pid = len(clusters)
            clusters.append(Cluster(
                level, cell, _cell_center(center, half_width, level, cell),
                half_width / (1 << level),
                clusters[kids[0]].start, clusters[kids[-1]].stop,
                children=kids))
            for k in kids:
                clusters[k].parent = pid
            levels[level].append(pid)
            new_ids.append(pid)
            new_keys.append(pkey)
        child_ids, child_keys = new_ids, new_keys

    tree = Octree(sorted_points, perm, depth, center, half_width, clusters, levels)
    return tree, perm


def _cell_center(root_center, root_half_width, level, cell) -> np.ndarray:
    h = 2.0 * root_half_width / (1 << level)
    lo = root_center - root_half_width
    return lo + h * (np.array(cell, dtype=float) + 0.5)


def compute_topology(tree: Octree) -> ClusterTopology:
    """Neighbor and interaction lists for every cluster in the tree.

    Neighbors: same-level clusters at cell Chebyshev distance <= 1
    (including self). Interactions: children of the parent's neighbors
    that are not themselves neighbors.
    """
    n = tree.n_clusters
    neighbors: list[list[int]] = [[] for _ in range(n)]
    interactions: list[list[int]] = [[] for _ in range(n)]

    for level_ids in tree.levels:
        cell_map = {tree.clusters[c].cell: c for c in level_ids}
        for cid in level_ids:
            cx, cy, cz = tree.clusters[cid].cell
            found = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        other = cell_map.get((cx + dx, cy + dy, cz + dz))
                        if other is not None:
                            found.append(other)
            neighbors[cid] = sorted(found)

    neighbor_sets = [set(ns) for ns in neighbors]
    for level in range(2, tree.depth + 1):
        for cid in tree.levels[level]:
            parent = tree.clusters[cid].parent
            candidates = []
            for pn in neighbors[parent]:
                candidates.extend(tree.clusters[pn].children)
            interactions[cid] = sorted(c for c in candidates
                                       if c not in neighbor_sets[cid])

    return ClusterTopology(neighbors, interactions, neighbor_sets)
