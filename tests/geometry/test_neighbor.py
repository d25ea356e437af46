import numpy as np
import pytest

from repro.geometry.neighbor import CellList, count_pairs_within, min_distance, pairs_within
from tests.geometry import oracle


def test_min_distance_brute():
    a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    b = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 0.5]])
    assert min_distance(a, b) == pytest.approx(0.5)


def test_cell_list_neighbors_of_point():
    pts = np.array([[0.0, 0.0, 0.0], [3.9, 0.0, 0.0], [20.0, 0.0, 0.0]])
    cl = CellList(pts, cell_size=4.0)
    near = cl.neighbors_of_point(np.array([0.1, 0.0, 0.0]))
    assert 0 in near and 1 in near and 2 not in near


def test_cell_list_pairs_complete_vs_bruteforce():
    """The vectorized cell list finds every point pair within the cell
    size (one point per group) and nothing beyond it."""
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 12, size=(60, 3))
    got = pairs_within(list(pts[:, None, :]), 3.0)
    expect = [(i, j) for i in range(60) for j in range(i + 1, 60)
              if np.linalg.norm(pts[i] - pts[j]) <= 3.0]
    assert got == expect


def test_pairs_within_matches_bruteforce():
    rng = np.random.default_rng(1)
    groups = [rng.uniform(0, 10, size=(rng.integers(1, 4), 3)) for _ in range(25)]
    got = set(pairs_within(groups, 2.5))
    expect = set()
    for i in range(25):
        for j in range(i + 1, 25):
            if min_distance(groups[i], groups[j]) <= 2.5:
                expect.add((i, j))
    assert got == expect


def test_pairs_within_rejects_empty_group():
    with pytest.raises(ValueError, match="empty group"):
        pairs_within([np.zeros((0, 3)), np.zeros((1, 3))], 2.0)


def test_pairs_within_rejects_bad_threshold():
    with pytest.raises(ValueError, match="positive"):
        pairs_within([np.zeros((1, 3))], -1.0)


def test_count_pairs_within():
    groups = [
        np.array([[0.0, 0.0, 0.0]]),
        np.array([[1.0, 0.0, 0.0]]),
        np.array([[10.0, 0.0, 0.0]]),
    ]
    assert count_pairs_within(groups, 2.0) == 1


def test_negative_coordinates_handled():
    groups = [
        np.array([[-5.0, -5.0, -5.0]]),
        np.array([[-5.5, -5.0, -5.0]]),
    ]
    assert pairs_within(groups, 1.0) == [(0, 1)]


@pytest.mark.parametrize("seed", range(8))
def test_pairs_within_matches_cell_list_oracle(seed):
    """Random clusters of 1-5 atom groups straddling the origin: the
    array passes return exactly the dict cell list's sorted pairs."""
    rng = np.random.default_rng(seed)
    for _ in range(12):
        scale = rng.uniform(2.0, 25.0)
        groups = [rng.uniform(-scale, scale, size=(rng.integers(1, 6), 3))
                  for _ in range(rng.integers(1, 80))]
        threshold = rng.uniform(0.5, 6.0)
        assert pairs_within(groups, threshold) == oracle.pairs_within(
            groups, threshold)


def test_pairs_within_exactly_at_threshold():
    """Pairs exactly λ apart are kept, across cell boundaries and at
    negative coordinates; pairs just beyond are not."""
    lam = 4.0
    groups = [
        np.array([[-2.0, 0.0, 0.0]]),
        np.array([[2.0, 0.0, 0.0]]),            # λ from 0 along x
        np.array([[2.0, -4.0, 0.0]]),           # λ from 1 along y
        np.array([[-2.0, 0.0, -4.0]]),          # λ from 0 along z
        np.array([[6.0, 0.0, np.nextafter(0.0, 1.0)]]),
        np.array([[10.0 + 1e-12, 0.0, 0.0]]),   # just beyond λ from 4
        np.array([[-8.0, -8.0, -8.0], [-6.0, -8.0, -8.0]]),
        np.array([[-8.0, -8.0, -4.0]]),         # λ from group 6's first atom
    ]
    expect = [(0, 1), (0, 3), (1, 2), (1, 4), (6, 7)]
    assert pairs_within(groups, lam) == expect
    assert oracle.pairs_within(groups, lam) == expect


def test_pairs_within_matches_oracle_on_liquid_box():
    from repro.geometry import water_box

    groups = [w.coords_angstrom() for w in water_box(125, seed=3)]
    assert pairs_within(groups, 4.0) == oracle.pairs_within(groups, 4.0)
