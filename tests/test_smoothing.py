"""Tests for graph smoothing of relative estimates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from clocklab.smoothing import (
    RelativeEstimates,
    SyncGraph,
    blue_solve,
    jacobi_step,
    reduced_incidence,
    smooth,
    write_nodal_csv,
)

TRIANGLE = SyncGraph(n=2, edges=[(0, 1), (1, 2), (0, 2)])


def random_connected_graph(n, rng, extra=2):
    """Random tree over 0..n plus a few extra edges."""
    edges = []
    for j in range(1, n + 1):
        i = int(rng.integers(0, j))
        edges.append((i, j))
    for _ in range(extra):
        i, j = rng.choice(n + 1, size=2, replace=False)
        if (i, j) not in edges and (j, i) not in edges:
            edges.append((int(i), int(j)))
    return SyncGraph(n=n, edges=edges)


def consistent_inputs(g, w):
    return RelativeEstimates({(i, j): w[j] - w[i] for (i, j) in g.edges})


# ------------------------------------------------------------------- types


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        SyncGraph(n=2, edges=[(1, 1)])
    with pytest.raises(ValueError, match="outside"):
        SyncGraph(n=2, edges=[(0, 3)])
    with pytest.raises(ValueError, match="non-reference node"):
        SyncGraph(n=0, edges=[])


def test_estimates_validation():
    with pytest.raises(ValueError, match="finite"):
        RelativeEstimates({(0, 1): math.nan})
    rel = RelativeEstimates({(np.int64(0), 1): np.float32(0.5)})
    assert rel.values == {(0, 1): 0.5}
    ((i, j), value), = rel.values.items()
    assert (type(i), type(j), type(value)) == (int, int, float)


def test_graph_incidence_built_once():
    edges = ((0, 1), (1, 2), (2, 1), (0, 2))
    g, same = SyncGraph(n=2, edges=edges), SyncGraph(n=2, edges=list(edges))
    assert g == same and hash(g) == hash(same) and len({g, same}) == 1
    assert repr(g) == "SyncGraph(n=2, edges=((0, 1), (1, 2), (2, 1), (0, 2)))"
    assert g.incident(0) == ((0, 1), (0, 2))
    assert g.incident(1) == ((0, 1), (1, 2), (2, 1))  # both parallel edges, in order
    assert g.incident(2) == ((1, 2), (2, 1), (0, 2))
    assert g.incident(7) == ()
    assert g.incident(1) is g.incident(1)  # the stored tuple, not a fresh list
    grown = replace(g, n=3, edges=edges + ((2, 3),))
    assert grown.incident(2) == ((1, 2), (2, 1), (0, 2), (2, 3))
    assert grown.incident(3) == ((2, 3),)
    assert g.incident(2) == ((1, 2), (2, 1), (0, 2)) and g.incident(3) == ()
    assert grown.is_connected() and not replace(g, n=3).is_connected()


# --------------------------------------------------------------- incidence


def test_incidence_single_edge():
    g = SyncGraph(n=1, edges=[(0, 1)])
    np.testing.assert_array_equal(reduced_incidence(g), [[1.0]])


def test_incidence_path():
    g = SyncGraph(n=2, edges=[(0, 1), (1, 2)])
    np.testing.assert_array_equal(reduced_incidence(g), [[1.0, 0.0], [-1.0, 1.0]])


def test_incidence_disconnected():
    g = SyncGraph(n=2, edges=[(0, 1)])
    with pytest.raises(ValueError, match="graph not connected"):
        reduced_incidence(g)


def test_incidence_gram_positive_definite():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = random_connected_graph(int(rng.integers(1, 7)), rng)
        b = reduced_incidence(g)
        assert np.linalg.eigvalsh(b.T @ b).min() > 1e-12


# -------------------------------------------------------------- blue_solve


def test_blue_consistent_inputs_recovered_exactly():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(1, 9)), rng)
        w = np.concatenate(([0.0], rng.normal(size=g.n)))
        v = blue_solve(g, consistent_inputs(g, w))
        np.testing.assert_allclose(v, w, atol=1e-12)


def test_blue_triangle_oracle():
    rel = RelativeEstimates({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    v = blue_solve(TRIANGLE, rel)
    np.testing.assert_allclose(v, [0.0, 2.0 / 3.0, 4.0 / 3.0], atol=1e-14)


def test_blue_residual_orthogonality():
    rng = np.random.default_rng(3)
    g = random_connected_graph(6, rng, extra=4)
    rel = RelativeEstimates({e: float(rng.normal()) for e in g.edges})
    v = blue_solve(g, rel)
    b = reduced_incidence(g)
    x = np.array([rel.values[e] for e in g.edges])
    np.testing.assert_allclose(b.T @ (b @ v[1:] - x), 0.0, atol=1e-10)


def test_blue_fitted_values_cycle_consistent():
    # Raw inputs around the triangle sum to 3, the fitted values to 0.
    rel = RelativeEstimates({(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
    v = blue_solve(TRIANGLE, rel)
    cycle = (v[1] - v[0]) + (v[2] - v[1]) + (v[0] - v[2])
    assert abs(cycle) < 1e-10


def test_blue_missing_edge_value():
    with pytest.raises(ValueError, match="missing relative estimate"):
        blue_solve(TRIANGLE, RelativeEstimates({(0, 1): 1.0, (1, 2): 1.0}))


# ------------------------------------------------------------- jacobi_step


def test_jacobi_leaf_node():
    g = SyncGraph(n=2, edges=[(0, 1), (1, 2)])
    v = np.array([0.0, 0.7, 0.0])
    assert jacobi_step(2, v, g, RelativeEstimates({(0, 1): 0.7, (1, 2): 0.4})) == (
        pytest.approx(0.7 + 0.4)
    )


def test_jacobi_star_center_consistent_one_step():
    g = SyncGraph(n=3, edges=[(0, 1), (2, 1), (3, 1)])
    w = np.array([0.0, 1.5, 0.4, -0.2])
    rel = consistent_inputs(g, w)
    v = np.array([0.0, 0.0, 0.4, -0.2])  # neighbors already exact
    assert jacobi_step(1, v, g, rel) == pytest.approx(1.5, abs=1e-14)


def test_jacobi_errors():
    g = SyncGraph(n=2, edges=[(0, 1)])  # node 2 isolated (unconnected graph)
    v = np.zeros(3)
    rel = RelativeEstimates({(0, 1): 0.1})
    with pytest.raises(ValueError, match="reference node"):
        jacobi_step(0, v, g, rel)
    with pytest.raises(ValueError, match="isolated node"):
        jacobi_step(2, v, g, rel)


def test_jacobi_averages_opposite_direction_estimates():
    g = SyncGraph(n=2, edges=[(0, 1), (1, 2), (2, 1)])
    rel = RelativeEstimates({(0, 1): 0.0, (1, 2): 1.0, (2, 1): -0.8})
    v = np.zeros(3)
    # node 2 sees the (1,2) estimate and the reverse of (2,1): mean 0.9
    assert jacobi_step(2, v, g, rel) == pytest.approx(0.9)


# ------------------------------------------------------------------ smooth


def test_smooth_consistent_inputs_exact():
    rng = np.random.default_rng(7)
    for schedule in ("sweep", "random"):
        g = random_connected_graph(8, rng, extra=3)
        w = np.concatenate(([0.0], rng.normal(size=g.n)))
        res = smooth(g, consistent_inputs(g, w), tol=1e-12, schedule=schedule)
        assert res.converged
        np.testing.assert_allclose(res.values, w, atol=1e-9)
        assert res.values[0] == 0.0


def test_smooth_matches_blue_on_noisy_path():
    rng = np.random.default_rng(11)
    g = SyncGraph(n=10, edges=[(i, i + 1) for i in range(10)])
    rel = RelativeEstimates({e: float(rng.normal(0.5, 0.2)) for e in g.edges})
    res = smooth(g, rel, tol=1e-12)
    np.testing.assert_allclose(res.values, blue_solve(g, rel), atol=1e-8)


def test_smooth_fixed_point_satisfies_normal_equations():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(2, 10)), rng, extra=3)
        rel = RelativeEstimates({e: float(rng.normal()) for e in g.edges})
        res = smooth(g, rel, tol=1e-13)
        assert res.converged
        b = reduced_incidence(g)
        x = np.array([rel.values[e] for e in g.edges])
        resid = b.T @ (b @ res.values[1:] - x)
        assert np.abs(resid).max() < 1e-8


def test_smooth_linearity():
    rng = np.random.default_rng(2)
    g = random_connected_graph(6, rng, extra=2)
    rel = {e: float(rng.normal()) for e in g.edges}
    one = smooth(g, RelativeEstimates(rel), tol=1e-13, schedule="sweep")
    three = smooth(
        g, RelativeEstimates({e: 3.0 * v for e, v in rel.items()}),
        tol=1e-13, schedule="sweep",
    )
    np.testing.assert_allclose(three.values, 3.0 * one.values, atol=1e-7)


def test_smooth_infinite_tol_returns_initial():
    res = smooth(TRIANGLE, RelativeEstimates({e: 1.0 for e in TRIANGLE.edges}),
                 tol=math.inf)
    assert res.sweeps == 0
    assert res.converged
    np.testing.assert_array_equal(res.values, np.zeros(3))


def test_smooth_flags_non_convergence():
    rng = np.random.default_rng(19)
    g = random_connected_graph(9, rng, extra=4)
    rel = RelativeEstimates({e: float(rng.normal()) for e in g.edges})
    res = smooth(g, rel, tol=1e-15, max_iter=1)
    assert not res.converged
    assert res.sweeps == 1
    assert res.final_delta > 0


def test_smooth_validation():
    rel = RelativeEstimates({e: 1.0 for e in TRIANGLE.edges})
    with pytest.raises(ValueError, match="tol must be positive"):
        smooth(TRIANGLE, rel, tol=0.0)
    with pytest.raises(ValueError, match="unknown schedule"):
        smooth(TRIANGLE, rel, schedule="chaotic")
    with pytest.raises(ValueError, match="max_iter must be nonnegative, got -1"):
        smooth(TRIANGLE, rel, max_iter=-1)
    assert smooth(TRIANGLE, rel, max_iter=0).sweeps == 0


def test_nodal_csv(tmp_path):
    path = tmp_path / "nodal.csv"
    write_nodal_csv(np.array([0.0, 0.25, -1.5]), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "node,value"
    assert lines[1].startswith("0,")
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(back[:, 1], [0.0, 0.25, -1.5])
