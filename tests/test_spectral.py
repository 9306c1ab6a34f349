import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from solitonlab.errors import NumericsError
from solitonlab.radial import assemble_channel_operator, integrate, make_grid
from solitonlab.solitons import aubin_dphi_da, aubin_dphi_dr, aubin_values
from solitonlab.spectral import (birman_schwinger_count,
                                 count_eigenvalues_below, eigenvalue_by_index,
                                 green_inverse, negative_eigenpairs,
                                 regular_solution, zero_energy_diagnosis)

from oracles import (_check_symmetric, birman_schwinger_matrix, count_nodes,
                     dense_matrix)


@pytest.fixture(scope="module")
def nlw_op(grid50, aubin50):
    return assemble_channel_operator(grid50, 0, aubin50["potential"])


def test_free_channels_have_no_bound_states(grid40):
    for ell in (0, 1, 2):
        op = assemble_channel_operator(grid40, ell, np.zeros(grid40.n))
        assert negative_eigenpairs(op) == []


def test_nlw_unique_negative_eigenvalue(nlw_op, grid50):
    pairs = negative_eigenpairs(nlw_op)
    assert len(pairs) == 1
    p = pairs[0]
    assert p.energy < 0
    assert p.node_count == 0
    assert np.all(p.vector[: grid50.n // 2] > 0)
    # dense eigensolve oracle on a doubled grid
    g2 = make_grid(50.0, 8000)
    op2 = assemble_channel_operator(g2, 0, aubin_values(1.0, g2)["potential"])
    ev = eigh_tridiagonal(op2.diagonal, op2.off_diagonal,
                          select="v", select_range=(-10.0, 0.0))[0]
    assert len(ev) == 1
    assert p.energy == pytest.approx(ev[0], rel=1e-3)


@pytest.mark.parametrize("ell, n_bound", [(0, 3), (1, 2)])
def test_negative_eigenpairs_match_dense_eigh(ell, n_bound):
    # a well with several bound states, against numpy's dense eigensolver
    # on the same matrix
    g = make_grid(20.0, 400)
    op = assemble_channel_operator(g, ell, -12.0 * np.exp(-g.nodes ** 2 / 4.0))
    pairs = negative_eigenpairs(op)
    evals, evecs = np.linalg.eigh(dense_matrix(op))
    assert len(pairs) == np.sum(evals < 0.0) == n_bound
    for idx, (p, e, v) in enumerate(zip(pairs, evals, evecs.T)):
        assert p.node_count == idx
        assert p.energy == pytest.approx(e, rel=1e-11)
        v = v / np.sqrt(integrate(g, v * v))
        assert np.abs(p.vector - v * np.sign(v @ p.vector)).max() < 1e-10


def test_ground_state_decay_rate(nlw_op, grid50):
    p = negative_eigenpairs(nlw_op)[0]
    k = np.sqrt(-p.energy)
    r = grid50.nodes
    win = (r > 10.0) & (r < 25.0)
    slope = np.polyfit(r[win], np.log(np.abs(p.vector[win])), 1)[0]
    assert -slope == pytest.approx(k, rel=0.05)


def test_spectral_scaling_in_a(grid50):
    energies = {}
    for a in (0.25, 1.0, 4.0):
        g = make_grid(50.0 / np.sqrt(a) if a > 1 else 50.0, 4000)
        op = assemble_channel_operator(g, 0, aubin_values(a, g)["potential"])
        energies[a] = eigenvalue_by_index(op, 0)
    assert energies[4.0] == pytest.approx(4.0 * energies[1.0], rel=1e-3)
    assert energies[0.25] == pytest.approx(0.25 * energies[1.0], rel=1e-3)


def test_count_nodes_free_laplacian():
    g = make_grid(np.pi, 2000)
    op = assemble_channel_operator(g, 0, np.zeros(g.n))
    assert count_nodes(op, 2.5) == 1
    assert count_nodes(op, 0.5) == 0
    assert count_nodes(op, 10.0) == 3
    # the count is over the interior block, as the Sturm count: just above
    # its lowest eigenvalue there is one node
    lam0 = eigh_tridiagonal(op.diagonal, op.off_diagonal, eigvals_only=True,
                            select="i", select_range=(0, 0))[0]
    assert count_nodes(op, lam0 * (1.0 + 1e-6)) == 1


def test_count_nodes_nlw_channels(grid50, aubin50):
    op0 = assemble_channel_operator(grid50, 0, aubin50["potential"])
    op1 = assemble_channel_operator(grid50, 1, aubin50["potential"])
    assert count_nodes(op0, -1e-8) == 1
    assert count_nodes(op1, -1e-8) == 0


def test_count_nodes_deep_energy_renormalizes(nlw_op):
    # very negative energies overflow without renormalization
    assert count_nodes(nlw_op, -400.0) == 0


def test_count_nodes_exact_zero_step():
    # E = diagonal[0] makes w[1] exactly zero; it is moved to -1e-300, one
    # sign change, and the count still matches the Sturm count
    g = make_grid(30.0, 600)
    op = assemble_channel_operator(g, 0, aubin_values(1.0, g)["potential"])
    energy = op.diagonal[0]
    assert regular_solution(op, energy)[1] == -1e-300
    assert count_nodes(op, energy) == count_eigenvalues_below(op, energy)


def test_count_eigenvalues_below_skips_pinned_row():
    # for l = 1 the pinned row's diagonal lies below diagonal[0]; only the
    # interior block counts, as for the nodes
    g = make_grid(30.0, 600)
    op = assemble_channel_operator(g, 1, aubin_values(1.0, g)["potential"])
    energy = op.diagonal[0]
    assert op.diagonal[-1] < energy
    assert count_eigenvalues_below(op, energy) == count_nodes(op, energy) == 562


def test_count_nodes_deep_energy_matches_sturm(nlw_op):
    # at E = -1e4 the prefix is renormalized many times, until w[0]
    # underflows to +0
    w = regular_solution(nlw_op, -1e4)
    assert w[0] == 0.0 and not np.signbit(w[0])
    assert count_nodes(nlw_op, -1e4) == count_eigenvalues_below(nlw_op, -1e4)
    # in a deep well every node of the E = -2e4 solution lies in the
    # underflowed prefix, where only the sign bit of +-0 carries it
    g = make_grid(10.0, 1000)
    well = assemble_channel_operator(g, 0, -3e4 * np.exp(-g.nodes ** 2))
    w = regular_solution(well, -2e4)
    assert np.all(w[np.abs(w) > 0.0] > 0.0)
    assert count_nodes(well, -2e4) == count_eigenvalues_below(well, -2e4) == 16


def test_eigenvalue_by_index_top_of_spectrum():
    # the top eigenvalues (about 1.66e3) have an ulp above the default
    # tol; the bisection still ends, at float resolution
    g = make_grid(np.pi, 64)
    op = assemble_channel_operator(g, 0, np.zeros(g.n))
    ref = eigh_tridiagonal(op.diagonal, op.off_diagonal, eigvals_only=True)
    for index in (g.n - 2, g.n - 1):
        assert eigenvalue_by_index(op, index) == pytest.approx(ref[index],
                                                               rel=1e-12)


def test_count_consistency_random_potentials(rng):
    g = make_grid(30.0, 800)
    for _ in range(8):
        depth = rng.uniform(0.5, 8.0)
        width = rng.uniform(0.5, 3.0)
        V = -depth * np.exp(-(g.nodes / width) ** 2)
        op = assemble_channel_operator(g, int(rng.integers(0, 2)), V)
        pairs = negative_eigenpairs(op)
        for E in (-4.0, -1.0, -0.1, -1e-4):
            expected = sum(1 for p in pairs if p.energy < E)
            assert count_nodes(op, E) == expected
            assert count_eigenvalues_below(op, E) == expected


def test_zero_energy_free_ell0_is_plain_r():
    g = make_grid(40.0, 2000)
    op = assemble_channel_operator(g, 0, np.zeros(g.n))
    d = zero_energy_diagnosis(op)
    assert d.kind == "none"
    # regular solution is w = r exactly for the free operator
    w = regular_solution(op, 0.0)
    w = w / w[0] * g.nodes[0]
    assert np.allclose(w, g.nodes, rtol=1e-10)


def test_zero_energy_nlw_resonance(grid50, aubin50):
    op = assemble_channel_operator(grid50, 0, aubin50["potential"])
    d = zero_energy_diagnosis(op)
    assert d.kind == "resonance"
    assert abs(d.v_integral) > 1.0
    r = grid50.nodes
    ref = r * aubin_dphi_da(r, 1.0)
    win = r <= 25.0
    scale = np.dot(d.solution[win], ref[win]) / np.dot(d.solution[win], d.solution[win])
    err = np.abs(scale * d.solution[win] - ref[win]).max() / np.abs(ref[win]).max()
    assert err <= 1e-3
    signs = np.sign(d.solution[np.abs(d.solution) > 1e-9])
    assert int(np.sum(signs[1:] != signs[:-1])) == 1


def test_zero_energy_nlw_ell1_eigenvalue(grid50, aubin50):
    op = assemble_channel_operator(grid50, 1, aubin50["potential"])
    d = zero_energy_diagnosis(op)
    assert d.kind == "eigenvalue"
    # the truncated eigenvector decays at least as fast as the continuum
    # r^-2 mode (the Dirichlet bend can only steepen it); the clean -2
    # exponent is asserted on the analytic mode in the resolvent tests
    r = grid50.nodes
    f = d.solution / r
    win = (r >= 20.0) & (r <= 45.0)
    slope = np.polyfit(np.log(r[win]), np.log(np.abs(f[win])), 1)[0]
    assert slope < -1.5
    ref = r * aubin_dphi_dr(r, 1.0)
    core = r <= 15.0
    scale = np.dot(d.solution[core], ref[core]) / np.dot(d.solution[core], d.solution[core])
    err = np.abs(scale * d.solution[core] - ref[core]).max() / np.abs(ref[core]).max()
    assert err <= 2e-2


def test_birman_schwinger_zero_potential(grid40):
    rep = birman_schwinger_count(np.zeros(grid40.n), 3, grid40)
    assert rep.channel_counts == [0, 0, 0, 0]
    assert rep.total_with_multiplicity == 0


def test_birman_schwinger_nlw_counts():
    g = make_grid(60.0, 1500)
    V = aubin_values(1.0, g)["potential"]
    rep = birman_schwinger_count(V, 3, g, 1e-3)
    assert rep.channel_counts == [2, 1, 0, 0]
    assert rep.total_with_multiplicity == 5


def test_birman_schwinger_top_eigenvalue_structure():
    # lambda = 5 is exact: -Lap phi = phi^5 = -(1/5) V phi, so |V|^(1/2) phi
    # is an eigenfunction of the ell = 0 kernel with eigenvalue 5; the
    # resonance sits at 1 and everything else is well below
    g = make_grid(60.0, 1500)
    V = aubin_values(1.0, g)["potential"]
    rep = birman_schwinger_count(V, 1, g, 1e-3)
    l0 = rep.top_eigenvalues[0]
    assert l0[0] == pytest.approx(5.0, abs=5e-3)
    assert l0[1] == pytest.approx(1.0, abs=5e-3)
    assert l0[1] > 1.0 - 1e-3
    assert l0[2] < 0.5
    l1 = rep.top_eigenvalues[1]
    assert l1[0] == pytest.approx(1.0, abs=5e-3)
    assert l1[1] < 0.5


def test_birman_schwinger_monotone_in_ell():
    g = make_grid(60.0, 1000)
    V = aubin_values(1.0, g)["potential"]
    rep = birman_schwinger_count(V, 3, g)
    tops = [t[0] for t in rep.top_eigenvalues]
    assert all(tops[i + 1] < tops[i] for i in range(len(tops) - 1))


@pytest.mark.parametrize("ell", [0, 1, 2, 3, 20])
def test_green_inverse_matches_dense_inverse(ell):
    # V = -1/w makes the Birman-Schwinger kernel the bare Green matrix G
    g = make_grid(4.0, 40)
    G = birman_schwinger_matrix(-1.0 / g.weights, ell, g)
    diag, off = green_inverse(g.nodes, ell)
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    dense = np.linalg.inv(G)
    assert np.abs(T - dense).max() <= 1e-10 * np.abs(dense).max()
    assert np.abs(G @ T - np.eye(g.n)).max() <= 1e-10


def _dense_birman_schwinger(V, ell_max, g, eps):
    counts, tops = [], []
    for ell in range(ell_max + 1):
        eigs = np.linalg.eigvalsh(birman_schwinger_matrix(V, ell, g))[::-1]
        counts.append(int(np.sum(eigs >= 1.0 - eps)))
        tops.append(eigs[:4])
    return counts, np.array(tops)


def _zero_block_and_tail(g):
    V = aubin_values(1.0, g)["potential"]
    V[(g.nodes > 3.0) & (g.nodes < 5.0)] = 0.0
    V[g.nodes > 12.0] = 0.0
    return V


def _two_nodes(g):
    V = np.zeros(g.n)
    V[[10, 30]] = -2.0
    return V


@pytest.mark.parametrize("n, ell_max, potential", [
    pytest.param(1500, 3, lambda g: aubin_values(1.0, g)["potential"],
                 id="aubin-n1500"),
    pytest.param(600, 5, _zero_block_and_tail, id="zero-block-and-tail"),
    pytest.param(200, 2, _two_nodes, id="two-node-support"),
])
def test_birman_schwinger_matches_dense(n, ell_max, potential):
    g = make_grid(60.0, n)
    V = potential(g)
    rep = birman_schwinger_count(V, ell_max, g, 1e-3)
    counts, tops = _dense_birman_schwinger(V, ell_max, g, 1e-3)
    assert rep.channel_counts == counts
    got = np.array(rep.top_eigenvalues)
    assert np.all(np.abs(got - tops) <= 1e-10 * np.abs(tops) + 1e-14 * tops[:, :1])


def test_birman_schwinger_tiny_potential_is_numerics_error(grid40):
    # |V| w below float64's reach makes the inverse kernel overflow
    V = aubin_values(1.0, grid40)["potential"]
    V[-1] = -1e-320
    with pytest.raises(NumericsError, match="not finite"):
        birman_schwinger_count(V, 1, grid40)


def test_birman_schwinger_rejects_positive_potential(grid40):
    with pytest.raises(ValueError):
        birman_schwinger_count(np.ones(grid40.n), 1, grid40)


@pytest.mark.parametrize("eps", [-1e-3, 1.0])
def test_birman_schwinger_rejects_threshold_outside_unit_interval(grid40, eps):
    with pytest.raises(ValueError, match="threshold_eps"):
        birman_schwinger_count(-np.ones(grid40.n), 1, grid40, eps)


def test_birman_schwinger_symmetry_check(grid40):
    V = aubin_values(1.0, grid40)["potential"]
    K = birman_schwinger_matrix(V, 1, grid40)
    _check_symmetric(K)
    K[3, 7] += 1e-6 * np.abs(K).max()
    with pytest.raises(NumericsError, match="asymmetry"):
        _check_symmetric(K)
