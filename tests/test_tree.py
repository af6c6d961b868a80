import numpy as np
import pytest

from ifmm.tree import (MAX_FORCED_DEPTH, DegenerateGeometryError,
                       DuplicatePointsError, NonFiniteGeometryError,
                       build_octree, compute_topology)

from conftest import UNIT_BOX, cell_grid_points


def brute_force_neighbors(tree):
    """Oracle: same-level clusters at cell Chebyshev distance <= 1."""
    out = {}
    for level_ids in tree.levels:
        for i in level_ids:
            ci = np.array(tree.clusters[i].cell)
            out[i] = sorted(
                j for j in level_ids
                if np.max(np.abs(ci - np.array(tree.clusters[j].cell))) <= 1)
    return out


def test_min_depth_two_is_enforced():
    pts = np.random.default_rng(0).uniform(0, 1, (100, 3))
    tree, _ = build_octree(pts, leaf_target=100)
    assert tree.depth == 2
    assert len(tree.leaves()) <= 64


def test_eight_corner_points_leaf_target_one():
    pts = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                    for z in (0.0, 1.0)])
    tree, _ = build_octree(pts, leaf_target=1)
    assert tree.depth == 2
    # 8 occupied leaves; the other 56 level-2 cells are pruned
    assert len(tree.leaves()) == 8
    assert all(tree.clusters[c].size == 1 for c in tree.leaves())


def test_depth_rule_mean_population():
    pts = np.random.default_rng(3).uniform(-1, 1, (100_000, 3))
    tree, _ = build_octree(pts, leaf_target=100)
    # oracle: direct evaluation of the rule on occupied-cell counts
    for level in (2, 3, 4):
        from ifmm.tree import _cell_indices, _morton_key
        cells = _cell_indices(pts, tree.root_center, tree.root_half_width, level)
        occ = len(np.unique(_morton_key(cells, level)))
        mean = len(pts) / occ
        if mean <= 100:
            assert tree.depth == level
            break
    else:
        assert tree.depth > 4


def test_permutation_round_trip():
    pts = np.random.default_rng(1).uniform(0, 1, (500, 3))
    tree, perm = build_octree(pts, leaf_target=20)
    assert np.array_equal(tree.points, pts[perm])
    inv = np.argsort(perm)
    assert np.array_equal(tree.points[inv], pts)
    assert sorted(perm) == list(range(500))


def test_point_ranges_partition_and_nest():
    pts = np.random.default_rng(2).uniform(0, 1, (800, 3))
    tree, _ = build_octree(pts, leaf_target=25)
    covered = np.zeros(800, dtype=int)
    for c in tree.leaves():
        cl = tree.clusters[c]
        covered[cl.start:cl.stop] += 1
    assert np.all(covered == 1)
    for cl in tree.clusters:
        if cl.children:
            kid_ranges = sorted((tree.clusters[k].start, tree.clusters[k].stop)
                                for k in cl.children)
            assert kid_ranges[0][0] == cl.start
            assert kid_ranges[-1][1] == cl.stop
            for (a, b), (c2, d2) in zip(kid_ranges, kid_ranges[1:]):
                assert b == c2
    # no cluster is empty (pruning never removes points)
    assert all(cl.size > 0 for cl in tree.clusters)


def test_level_one_all_adjacent_empty_interactions():
    pts = cell_grid_points(2)  # 8 points, one per level-1 cell
    tree, _ = build_octree(pts, leaf_target=1, depth=2, root_box=UNIT_BOX)
    topo = compute_topology(tree)
    for cid in tree.levels[1]:
        assert len(topo.neighbors[cid]) == 8
        assert topo.interactions[cid] == []


def test_corner_cluster_full_4x4x4():
    pts = cell_grid_points(4)
    tree, _ = build_octree(pts, leaf_target=1, depth=2, root_box=UNIT_BOX)
    topo = compute_topology(tree)
    corner = next(c for c in tree.levels[2] if tree.clusters[c].cell == (0, 0, 0))
    assert len(topo.neighbors[corner]) == 8
    # oracle: brute-force enumeration over the full grid
    bf = brute_force_neighbors(tree)
    assert topo.neighbors[corner] == bf[corner]
    assert len(topo.interactions[corner]) == 56


def test_interior_cluster_6x6x6_occupied():
    # a full 6x6x6 block aligned with the level-2 children partition, so the
    # parent's complete 3x3x3 neighborhood is occupied
    occupied = {(x, y, z) for x in range(6) for y in range(6) for z in range(6)}
    pts = cell_grid_points(8, occupied)
    tree, _ = build_octree(pts, leaf_target=1, depth=3, root_box=UNIT_BOX)
    topo = compute_topology(tree)
    center = next(c for c in tree.levels[3]
                  if tree.clusters[c].cell == (3, 3, 3))
    assert len(topo.neighbors[center]) == 27
    assert len(topo.interactions[center]) == 189


@pytest.mark.parametrize("seed", [0, 1])
def test_topology_invariants_random(seed):
    pts = np.random.default_rng(seed).uniform(0, 1, (400, 3))
    tree, _ = build_octree(pts, leaf_target=6)
    assert tree.depth <= 3
    topo = compute_topology(tree)
    bf = brute_force_neighbors(tree)
    for level_ids in tree.levels:
        for i in level_ids:
            assert i in topo.neighbor_sets[i]
            assert topo.neighbors[i] == bf[i]
            assert len(topo.neighbors[i]) <= 27
            assert len(topo.interactions[i]) <= 189
            assert not set(topo.neighbors[i]) & set(topo.interactions[i])
            for j in topo.neighbors[i]:
                assert i in topo.neighbor_sets[j]
            for j in topo.interactions[i]:
                assert i in topo.interactions[j]
    # N u I covers exactly the children of the parent's neighbors
    for level in range(2, tree.depth + 1):
        for i in tree.levels[level]:
            parent = tree.clusters[i].parent
            expected = set()
            for pn in topo.neighbors[parent]:
                expected.update(tree.clusters[pn].children)
            assert set(topo.neighbors[i]) | set(topo.interactions[i]) == expected


def test_pair_trichotomy_exhaustive():
    pts = np.random.default_rng(7).uniform(0, 1, (300, 3))
    tree, _ = build_octree(pts, leaf_target=5)
    topo = compute_topology(tree)
    for level in range(2, tree.depth + 1):
        ids = tree.levels[level]
        for i in ids:
            for j in ids:
                in_n = j in topo.neighbor_sets[i]
                in_i = j in topo.interactions[i]
                pi = tree.clusters[i].parent
                pj = tree.clusters[j].parent
                parents_apart = pj not in topo.neighbor_sets[pi]
                assert in_n + in_i + parents_apart == 1, (i, j)


def test_degenerate_geometry_rejected():
    pts = np.tile([[0.3, 0.3, 0.3]], (10, 1))
    with pytest.raises(DegenerateGeometryError):
        build_octree(pts, leaf_target=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(bad):
    pts = np.random.default_rng(0).uniform(0, 1, (500, 3))
    pts[137, 1] = bad
    with pytest.raises(NonFiniteGeometryError, match="index 137"):
        build_octree(pts, leaf_target=20)
    with pytest.raises(NonFiniteGeometryError):
        build_octree(pts, leaf_target=20, depth=3, root_box=UNIT_BOX)


def test_duplicate_points_rejected():
    pts = np.random.default_rng(0).uniform(-1, 1, (500, 3))
    pts[321] = pts[42]
    with pytest.raises(DuplicatePointsError, match="points 42 and 321"):
        build_octree(pts, leaf_target=20)
    # -0.0 and 0.0 are the same coordinate
    pts = np.random.default_rng(1).uniform(-1, 1, (500, 3))
    pts[7, 0] = 0.0
    pts[9] = pts[7]
    pts[9, 0] = -0.0
    with pytest.raises(DuplicatePointsError):
        build_octree(pts, leaf_target=20, depth=3, root_box=(np.zeros(3), 1.0))
    # all points equal inside a given box: no zero-width box, still duplicates
    with pytest.raises(DuplicatePointsError):
        build_octree(np.tile([[0.3, 0.3, 0.3]], (4, 1)), leaf_target=2,
                     root_box=UNIT_BOX)


def test_boundary_point_goes_to_lower_cell():
    pts = np.array([[0.25, 0.25, 0.25], [0.5, 0.5, 0.5], [0.9, 0.9, 0.9]])
    tree, _ = build_octree(pts, leaf_target=1, depth=1, root_box=UNIT_BOX)
    cells = {tuple(tree.clusters[c].cell): tree.clusters[c].size
             for c in tree.leaves()}
    # the point exactly on the split plane lands in the lower cell
    assert cells[(0, 0, 0)] == 2
    assert cells[(1, 1, 1)] == 1


def test_forced_depth_zero_single_leaf():
    pts = np.random.default_rng(0).uniform(0, 1, (30, 3))
    tree, _ = build_octree(pts, leaf_target=100, depth=0)
    assert tree.depth == 0
    assert len(tree.leaves()) == 1
    assert tree.clusters[tree.leaves()[0]].size == 30


def test_forced_depth_capped_at_morton_key_width():
    # 3 key bits per level: depth 21 fills 63 bits of an int64 key, and one
    # level more would wrap the keys and split the root
    assert MAX_FORCED_DEPTH == 21
    pts = np.random.default_rng(1).uniform(0, 1, (40, 3))
    tree, _ = build_octree(pts, leaf_target=1, depth=MAX_FORCED_DEPTH)
    assert len(tree.levels[0]) == 1
    assert tree.clusters[tree.levels[0][0]].size == 40
    with pytest.raises(ValueError, match="MAX_FORCED_DEPTH"):
        build_octree(pts, leaf_target=1, depth=MAX_FORCED_DEPTH + 1)
