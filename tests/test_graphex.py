import numpy as np
import pytest
from scipy.stats import chi2

from relerm import (GraphonSpec, LossConfig, MarkingKernel, SamplerConfig,
                    TrainConfig, mark_embeddings, sample_graphex,
                    sample_graphex_coupled)
from relerm.graphex import (MAX_EXPECTED_EDGES, GraphexError, _product_edges,
                            risk_convergence_experiment, stability_experiment)


def exp_spec():
    return GraphonSpec.exp_decay()


def test_zero_graphon_gives_empty_graphs():
    spec = GraphonSpec.constant(0.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        lg = sample_graphex(spec, 50, rng)
        assert lg.graph.edge_count == 0
        assert lg.graph.vertex_count == 0


def test_constant_graphon_moments():
    # dense regime on [0,1]^2: candidate count m ~ Poisson(n), each pair an
    # independent c-coin; E[m(m-1)] = n^2 for a Poisson count, so
    # E[edges] = c * E[m(m-1)/2] = c n^2 / 2
    c, n, reps = 0.2, 30, 200
    spec = GraphonSpec.constant(c)
    rng = np.random.default_rng(1)
    counts = [sample_graphex(spec, n, rng).graph.edge_count for _ in range(reps)]
    expected = c * n ** 2 / 2
    se = np.std(counts, ddof=1) / np.sqrt(reps)
    assert abs(np.mean(counts) - expected) < 4 * se


def test_exp_graphon_mecke_unit():
    # light unit version of the acceptance check, at two sizes, so that a
    # generator that ignores n fails one of them: E[edges] = n^2 / 2 and
    # Var[edges] = n^2 / 2 + n^3 / 2, the mean of reps counts gated on its
    # own standard error
    reps = 20
    rng = np.random.default_rng(2)
    for n in (50, 200):
        counts = [sample_graphex(exp_spec(), n, rng).graph.edge_count for _ in range(reps)]
        assert abs(np.mean(counts) - n ** 2 / 2) < 4 * np.sqrt((n ** 2 / 2 + n ** 3 / 2) / reps)


def test_candidate_budget_guard():
    with pytest.raises(GraphexError):
        sample_graphex(exp_spec(), 10 ** 9, np.random.default_rng(0))
    with pytest.raises(GraphexError):
        sample_graphex(exp_spec(), -1, np.random.default_rng(0))
    # within the candidate budget (about 1.8e5 expected candidates) but
    # past the edge budget (n^2 / 2 = 5e7 expected edges): refused before
    # the generator is touched
    n = 10 ** 4
    assert n * exp_spec().x_max < 2 * 10 ** 6 < MAX_EXPECTED_EDGES < n ** 2 / 2
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(GraphexError, match="edge count"):
        sample_graphex(exp_spec(), n, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("size", [-1, 0, float("nan"), []])
def test_samplers_reject_bad_sizes(size):
    rng = np.random.default_rng(0)
    with pytest.raises(GraphexError, match="sizes"):
        sample_graphex(exp_spec(), size, rng)
    with pytest.raises(GraphexError, match="sizes"):
        sample_graphex_coupled(exp_spec(), size if isinstance(size, list) else [size], rng)
    with pytest.raises(GraphexError, match="sizes"):
        sample_graphex_coupled(exp_spec(), [size, 5], rng)


def test_sample_graphex_is_the_coupled_draw_at_one_size():
    one = sample_graphex(exp_spec(), 40, np.random.default_rng(14))
    (coupled,) = sample_graphex_coupled(exp_spec(), [40], np.random.default_rng(14))
    for a, b in ((one.graph.offsets, coupled.graph.offsets),
                 (one.graph.neighbors, coupled.graph.neighbors),
                 (one.latents, coupled.latents), (one.labels, coupled.labels),
                 (one.point_ids, coupled.point_ids)):
        assert np.array_equal(a, b)


def test_factor_outside_unit_interval_rejected():
    spec = GraphonSpec(factor=lambda x: 2.0 * np.exp(-x), x_max=5.0, edge_rate=2.0)
    with pytest.raises(GraphexError, match="factor"):
        sample_graphex(spec, 10, np.random.default_rng(0))


def _pearson(observed, expected, variance):
    """Chi-square statistic of counts against their exact means and
    variances, and its upper-tail probability."""
    stat = float((((observed - expected) ** 2) / variance).sum())
    return stat, chi2.sf(stat, len(observed))


def test_product_edges_pair_frequencies():
    # every pair {i, j} an independent f_i f_j coin; 40 values spanning 9
    # levels (a level holds the values within a factor 2 of its first), in
    # shuffled order so positions and ranks differ
    rng = np.random.default_rng(21)
    f = rng.permutation(2.0 ** -np.linspace(0.0, 8.5, 40))
    reps = 5000
    counts = np.zeros((40, 40))
    for _ in range(reps):
        e = _product_edges(f, rng)
        assert (e[:, 0] != e[:, 1]).all()
        lo, hi = e.min(axis=1), e.max(axis=1)
        assert len(np.unique(lo * 40 + hi)) == len(e)
        counts += np.bincount(lo * 40 + hi, minlength=1600).reshape(40, 40)
    iu, ju = np.triu_indices(40, k=1)
    q = f[iu] * f[ju]
    z = (counts[iu, ju] - reps * q) / np.sqrt(reps * q * (1 - q))
    stat, p = _pearson(counts[iu, ju], reps * q, reps * q * (1 - q))
    assert p > 1e-3, (stat / len(q), np.abs(z).max())


def test_product_edges_binned_counts():
    # 2,000 exp_decay candidates (about n = 109), edges counted per pair of
    # 12 latent bins against the closed form; sparse cells are pooled
    spec = exp_spec()
    rng = np.random.default_rng(22)
    x = rng.uniform(0.0, spec.x_max, 2000)
    f = spec.factor(x)
    bins = np.minimum((x / spec.x_max * 12).astype(int), 11)
    reps = 400
    counts = np.zeros((12, 12))
    for _ in range(reps):
        e = _product_edges(f, rng)
        a, b = np.sort(bins[e], axis=1).T
        counts += np.bincount(a * 12 + b, minlength=144).reshape(12, 12)
    # sums over the pairs of each cell of q = f_i f_j and q (1 - q)
    F, G, H = (np.bincount(bins, weights=f ** k, minlength=12) for k in (1, 2, 4))
    mean, var = np.outer(F, F), np.outer(F, F) - np.outer(G, G)
    np.fill_diagonal(mean, (F ** 2 - G) / 2)
    np.fill_diagonal(var, (F ** 2 - G - G ** 2 + H) / 2)
    iu, ju = np.triu_indices(12)
    obs, mean, var = counts[iu, ju], reps * mean[iu, ju], reps * var[iu, ju]
    dense = mean >= 5
    assert dense.sum() >= 20
    stat, p = _pearson(np.append(obs[dense], obs[~dense].sum()),
                       np.append(mean[dense], mean[~dense].sum()),
                       np.append(var[dense], var[~dense].sum()))
    assert p > 1e-3, stat / (dense.sum() + 1)


def test_no_isolated_vertices():
    lg = sample_graphex(exp_spec(), 60, np.random.default_rng(3))
    assert (lg.graph.degrees > 0).all()
    assert len(lg.latents) == lg.graph.vertex_count
    assert len(lg.point_ids) == lg.graph.vertex_count


def test_coupled_sampling_is_restriction():
    rng = np.random.default_rng(4)
    small, big = sample_graphex_coupled(exp_spec(), [40, 80], rng)
    # every vertex of the small graph appears in the big one with the same
    # latent feature and a label <= 40
    assert (small.labels <= 40).all()
    big_by_pid = {int(p): i for i, p in enumerate(big.point_ids)}
    for i, pid in enumerate(small.point_ids):
        j = big_by_pid[int(pid)]
        assert small.latents[i] == big.latents[j]
    # edge sets agree on the shared vertices
    def edges_by_pid(lg):
        pid = lg.point_ids
        return {(min(int(pid[a]), int(pid[b])), max(int(pid[a]), int(pid[b])))
                for a, b in lg.graph.edge_list}
    small_pids = set(int(p) for p in small.point_ids)
    assert edges_by_pid(small) == {
        (a, b) for a, b in edges_by_pid(big)
        if a in small_pids and b in small_pids}


def test_marking_kernel_deterministic():
    lg = sample_graphex(exp_spec(), 40, np.random.default_rng(5))
    kernel = MarkingKernel(fn=lambda x: np.array([x, x ** 2]) / 10.0, dim=2)
    params = mark_embeddings(lg, kernel, np.random.default_rng(6))
    for v in range(lg.graph.vertex_count):
        x = float(lg.latents[v])
        assert np.allclose(params.embedding(v), [x / 10, x ** 2 / 10])


def test_marking_kernel_constant_zero_noise():
    lg = sample_graphex(exp_spec(), 40, np.random.default_rng(7))
    kernel = MarkingKernel(fn=lambda x: np.array([0.3, -0.1]), dim=2)
    params = mark_embeddings(lg, kernel, np.random.default_rng(8))
    vecs = np.array([params.embedding(v) for v in range(lg.graph.vertex_count)])
    assert (vecs == vecs[0]).all()


def test_marking_kernel_noise_mean():
    lg = sample_graphex(exp_spec(), 20, np.random.default_rng(9))
    kernel = MarkingKernel(fn=lambda x: np.array([1.0]), dim=1, noise_scale=0.5)
    draws = np.array([mark_embeddings(lg, kernel,
                                      np.random.default_rng(100 + i)).embedding(0)[0]
                      for i in range(400)])
    assert abs(draws.mean() - 1.0) < 4 * 0.5 / np.sqrt(400)


def test_marking_kernel_noise_is_one_draw_per_vertex():
    # reference: the mean, then dim standard normals, vertex after vertex
    lg = sample_graphex(exp_spec(), 30, np.random.default_rng(15))
    kernel = MarkingKernel(fn=lambda x: np.array([x, np.exp(-x), 1.0]), dim=3,
                           noise_scale=0.3)
    rng = np.random.default_rng(16)
    want = np.array([kernel.fn(float(x)) + kernel.noise_scale * rng.standard_normal(3)
                     for x in lg.latents])
    params = mark_embeddings(lg, kernel, np.random.default_rng(16))
    assert np.array_equal(params.embedding_matrix(np.arange(lg.graph.vertex_count)), want)


def test_marking_kernel_dim_mismatch():
    lg = sample_graphex(exp_spec(), 20, np.random.default_rng(10))
    with pytest.raises(GraphexError):
        mark_embeddings(lg, MarkingKernel(fn=lambda x: np.array([x]), dim=2),
                        np.random.default_rng(0))


def test_risk_convergence_zero_loss():
    # retention 0 draws empty subgraphs: loss identically zero
    kernel = MarkingKernel(fn=lambda x: np.array([np.exp(-x)]), dim=1)
    records = risk_convergence_experiment(
        exp_spec(), kernel, [30, 60], SamplerConfig(algorithm="p_sampling",
                                                    retention=0.0),
        LossConfig(), replicates=3, rng=np.random.default_rng(11),
        n_risk_samples=5)
    for rec in records:
        assert rec["value"] == 0.0


def test_stability_zero_delta_zero_drift():
    cfg = TrainConfig(sampler=SamplerConfig(algorithm="p_sampling", retention=0.2),
                      steps=20, embedding_dim=4, seed=12)
    records = stability_experiment(exp_spec(), [40], 0.0, cfg, replicates=2,
                                   rng=np.random.default_rng(13))
    for rec in records:
        if rec["statistic"].startswith("mean_drift"):
            assert rec["value"] == 0.0
