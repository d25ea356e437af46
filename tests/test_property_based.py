"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.hpc.balancer import FragmentPool, SystemSizeSensitivePolicy
from repro.hpc.costmodel import FragmentCostModel
from repro.kernels.batched import BatchedGemmExecutor, pad_to_stride
from repro.spectra.gagq import quadrature_nodes_weights
from repro.spectra.lanczos import lanczos
from repro.utils.flops import FlopCounter


@given(st.integers(min_value=1, max_value=10_000),
       st.sampled_from([8, 16, 32, 64]))
def test_pad_to_stride_properties(n, stride):
    p = pad_to_stride(n, stride)
    assert p >= n
    assert p % stride == 0
    assert p - n < stride


@given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                min_size=1, max_size=200))
def test_pool_conservation(costs):
    pool = FragmentPool(np.arange(len(costs)), np.array(costs))
    policy = SystemSizeSensitivePolicy(waves=3.0)
    total_taken = 0.0
    count_taken = 0
    while not pool.empty():
        k = policy.next_count(pool, n_leaders=4)
        _s, _c, cost = pool.take(k)
        total_taken += cost
        count_taken += _c.size
    assert count_taken == len(costs)
    assert abs(total_taken - sum(costs)) < 1e-6 * max(1.0, sum(costs))


@given(st.lists(st.floats(min_value=0.01, max_value=10.0),
                min_size=2, max_size=100))
def test_pool_descending_order(costs):
    pool = FragmentPool(np.arange(len(costs)), np.array(costs))
    prev = np.inf
    while not pool.empty():
        _s, c, _t = pool.take(1)
        assert c[0] <= prev + 1e-12
        prev = c[0]


@given(st.integers(min_value=1, max_value=68))
def test_cost_model_monotone(n):
    cm = FragmentCostModel(scale=1.0, job_overhead=0.01)
    assert cm.fragment_time(n + 1) > cm.fragment_time(n)
    assert cm.job_time(n) > 0
    # leader time with more workers never slower
    assert cm.leader_time(n, 32) <= cm.leader_time(n, 4) + 1e-12


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=2, max_value=12),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
# draws whose averaged-rule nodes overshoot the spectrum by more than a
# quarter of its width (found by a numpy replay of this strategy)
@example(3, 2, 1694291902)
@example(3, 2, 249788027)
@example(4, 3, 513325946)
@example(4, 2, 63309400)
def test_lanczos_quadrature_weights_nonnegative(n, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    h = (a + a.T) / 2
    d = rng.normal(size=n)
    if np.linalg.norm(d) < 1e-8:
        d = np.ones(n)
    res = lanczos(h, d, k=min(k, n))
    for averaged in (False, True):
        theta, w = quadrature_nodes_weights(res, averaged=averaged)
        assert np.all(w >= -1e-10)
        assert w.sum() == (d @ d) * (1 + 1e-9) or abs(
            w.sum() - d @ d
        ) < 1e-6 * max(1.0, d @ d)
        # Gauss nodes are Ritz values, inside the spectrum. The averaged
        # rule's nodes obey the Gershgorin enclosure of T_hat: each
        # diagonal alpha_i = q_i^T H q_i lies in [lmin, lmax]; each
        # off-diagonal beta_i = q_{i+1}^T (H - cI) q_i (c the spectrum's
        # midpoint, q_{i+1} orthogonal to q_i) is at most w/2, w the
        # spectral width; a row has at most two of them, so every node
        # lies within w of the spectrum.
        evals = np.linalg.eigvalsh(h)
        slack = 1e-6
        if averaged:
            slack += float(evals.max() - evals.min())
        assert theta.min() > evals.min() - slack
        assert theta.max() < evals.max() + slack


@settings(deadline=None, max_examples=20)
@given(st.lists(
    st.tuples(st.integers(2, 20), st.integers(2, 20), st.integers(2, 20)),
    min_size=1, max_size=30,
), st.integers(0, 2 ** 31 - 1))
def test_batched_gemm_always_correct(shapes, seed):
    rng = np.random.default_rng(seed)
    ex = BatchedGemmExecutor(min_batch=3, stride=16)
    mats = []
    for (m, k, n) in shapes:
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        ex.submit(a, b)
        mats.append((a, b))
    results = ex.flush()
    for out, (a, b) in zip(results, mats):
        assert np.allclose(out, a @ b, atol=1e-9)


@given(st.lists(st.tuples(st.text(min_size=1, max_size=5),
                          st.integers(0, 10 ** 12)), max_size=30))
def test_flop_counter_total_is_sum(entries):
    c = FlopCounter()
    for name, val in entries:
        c.add(name, val)
    assert c.total() == sum(v for _n, v in entries)


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=3, max_value=30), st.integers(0, 2 ** 31 - 1))
def test_eckart_projector_rank(natoms, seed):
    from repro.spectra.modes import eckart_projector

    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(natoms, 3)) * 2.0
    masses = rng.uniform(1.0, 32.0, size=natoms)
    p = eckart_projector(coords, masses)
    assert np.allclose(p, p.T, atol=1e-10)
    assert np.allclose(p @ p, p, atol=1e-8)
    rank = int(round(np.trace(p)))
    assert rank in (3 * natoms - 6, 3 * natoms - 5)  # linear arrangements
