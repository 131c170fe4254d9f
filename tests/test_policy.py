import math
import struct

import numpy as np
import pytest

from coredse.policy import (
    CHECKPOINT_MAGIC,
    DomainError,
    PolicyNumericsError,
    RAW_CLIP,
    context_vector,
    entropy,
    forward_cached,
    head_backward,
    heads_from_raw,
    init_params,
    kl,
    layout_for_space,
    load_params,
    mlp_backward,
    mlp_forward,
    sample,
    save_params,
)
from coredse.space import ParameterSpace, ParamSpec, Categorical, Ranged, ShapeError, SortKey
from heads import dists_from_heads, log_prob


# Reference values computed with scipy.stats.beta / scipy.integrate.quad.
A0 = 1.0 + math.log(2.0)  # head value when the raw output is zero
LOGPDF_A0_03 = 0.1903788513753233  # Beta(a0, a0).logpdf(0.3)
LOGPDF_A0_05 = 0.3112314100958028  # Beta(a0, a0).logpdf(0.5)
ENTROPY_A0 = -0.07745925887822414  # Beta(a0, a0) differential entropy
ENTROPY_2_5 = -0.48453071499548805  # Beta(2, 5)
KL_25_3_15 = 1.686492420410572  # KL(Beta(2,5) || Beta(3, 1.5))


def mixed_space() -> ParameterSpace:
    return ParameterSpace(
        (
            ParamSpec("a", Ranged(1, 8)),
            ParamSpec("pick", Categorical(6)),
            ParamSpec("key", SortKey("order", 0)),
        )
    )


def mixed_dists(alphas=(2.0, 1.5), betas=(5.0, 1.0), probs=None):
    if probs is None:
        probs = np.full(6, 1.0 / 6.0)
    return dists_from_heads(
        [("beta", alphas[0], betas[0]), ("cat", probs), ("beta", alphas[1], betas[1])]
    )


# ---------------------------------------------------------------------------
# layout


def test_layout_for_mixed_space():
    layout = layout_for_space(mixed_space())
    assert layout.kinds == ("beta", "cat", "beta")
    assert layout.cat_k == (0, 6, 0)
    assert list(layout.beta_params) == [0, 2]
    assert list(layout.cat_params) == [1]
    # raw vector: (u,v) for "a", 6 logits for "pick", (u,v) for "key"
    assert list(layout.beta_off) == [0, 8]
    assert list(layout.cat_off) == [2]
    assert layout.out_width == 10
    assert layout.n_params == 3
    assert layout.n_beta == 2


def test_context_vector_is_ones():
    s0 = context_vector(5)
    assert s0.shape == (5,)
    assert np.all(s0 == 1.0)


def test_init_params_shapes_and_bounds():
    rng = np.random.default_rng(3)
    params = init_params(rng, input_width=8, hidden_width=16, out_width=10)
    shapes = [w.shape for w in params.weights]
    assert shapes == [(16, 8), (16, 16), (16, 16), (10, 16)]
    assert all(np.all(b == 0.0) for b in params.biases)
    for w in params.weights:
        bound = 1.0 / math.sqrt(w.shape[1])
        assert np.all(np.abs(w) <= bound)
    flat = params.arrays()
    assert len(flat) == 8
    assert flat[0] is params.weights[0] and flat[1] is params.biases[0]


# ---------------------------------------------------------------------------
# forward pass / heads


def test_zero_params_give_flat_heads():
    layout = layout_for_space(mixed_space())
    rng = np.random.default_rng(0)
    params = init_params(rng, 4, 8, layout.out_width)
    for w in params.weights:
        w[:] = 0.0
    dists, _ = forward_cached(params, context_vector(4), layout)
    assert np.allclose(dists.alphas, A0, atol=1e-12)
    assert np.allclose(dists.betas, A0, atol=1e-12)
    assert np.allclose(dists.cat_probs[0], 1.0 / 6.0, atol=1e-12)


def test_heads_from_raw_softmax_shift_invariance():
    layout = layout_for_space(mixed_space())
    out = np.arange(10, dtype=float) * 0.3
    shifted = out.copy()
    shifted[2:8] += 100.0  # shifting all logits together must not move probs
    a = heads_from_raw(out, layout)
    b = heads_from_raw(shifted, layout)
    assert np.allclose(a.cat_probs[0], b.cat_probs[0], atol=1e-12)
    assert np.isclose(a.cat_probs[0].sum(), 1.0, atol=1e-12)


def test_forward_rejects_wrong_context_width():
    layout = layout_for_space(mixed_space())
    params = init_params(np.random.default_rng(0), 4, 8, layout.out_width)
    with pytest.raises(ShapeError):
        forward_cached(params, context_vector(5), layout)


def test_forward_rejects_wrong_layout_width():
    layout = layout_for_space(mixed_space())
    params = init_params(np.random.default_rng(0), 4, 8, layout.out_width + 2)
    with pytest.raises(ShapeError):
        forward_cached(params, context_vector(4), layout)


def test_nonfinite_activations_raise():
    layout = layout_for_space(mixed_space())
    params = init_params(np.random.default_rng(0), 4, 8, layout.out_width)
    params.weights[1][0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(PolicyNumericsError):
        forward_cached(params, context_vector(4), layout)


# ---------------------------------------------------------------------------
# log_prob


def test_log_prob_matches_beta_reference():
    dists = dists_from_heads([("beta", A0, A0)])
    got = log_prob(dists, np.array([0.3]))
    assert abs(got - LOGPDF_A0_03) < 1e-12
    got = log_prob(dists, np.array([0.5]))
    assert abs(got - LOGPDF_A0_05) < 1e-12


def test_log_prob_sums_over_heads():
    dists = mixed_dists()
    got = log_prob(dists, np.array([0.3, 2.0, 0.5]))
    only_beta1 = log_prob(
        dists_from_heads([("beta", 2.0, 5.0)]),
        np.array([0.3]),
    )
    only_beta2 = log_prob(
        dists_from_heads([("beta", 1.5, 1.0)]),
        np.array([0.5]),
    )
    assert abs(got - (only_beta1 + math.log(1.0 / 6.0) + only_beta2)) < 1e-12


def test_log_prob_rejects_boundary_values():
    dists = dists_from_heads([("beta", 2.0, 2.0)])
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(DomainError):
            log_prob(dists, np.array([bad]))


def test_log_prob_rejects_bad_category_index():
    dists = dists_from_heads([("cat", np.full(6, 1 / 6))])
    for bad in (-1.0, 6.0):
        with pytest.raises(DomainError):
            log_prob(dists, np.array([bad]))


def test_log_prob_rejects_wrong_length():
    dists = mixed_dists()
    with pytest.raises(ShapeError):
        log_prob(dists, np.array([0.5, 1.0]))


def test_log_prob_zero_probability_category():
    dists = dists_from_heads([("cat", np.array([1.0, 0.0]))])
    assert log_prob(dists, np.array([1.0])) == -np.inf


# ---------------------------------------------------------------------------
# entropy / KL


def test_entropy_reference_values():
    assert abs(entropy(dists_from_heads([("beta", 1.0, 1.0)]))) < 1e-12
    got = entropy(dists_from_heads([("beta", A0, A0)]))
    assert abs(got - ENTROPY_A0) < 1e-12
    got = entropy(dists_from_heads([("beta", 2.0, 5.0)]))
    assert abs(got - ENTROPY_2_5) < 1e-12
    got = entropy(dists_from_heads([("cat", np.full(6, 1 / 6))]))
    assert abs(got - math.log(6.0)) < 1e-12


def test_entropy_sums_and_handles_zero_probs():
    dists = dists_from_heads(
        [("beta", 2.0, 5.0), ("cat", np.array([0.5, 0.5, 0.0]))]
    )
    assert abs(entropy(dists) - (ENTROPY_2_5 + math.log(2.0))) < 1e-12


def test_kl_self_is_zero():
    dists = mixed_dists()
    assert abs(kl(dists, dists)) < 1e-12


def test_kl_beta_reference_value():
    p = dists_from_heads([("beta", 2.0, 5.0)])
    q = dists_from_heads([("beta", 3.0, 1.5)])
    assert abs(kl(p, q) - KL_25_3_15) < 1e-12


def test_kl_categorical_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.random(6) + 1e-3
        b = rng.random(6) + 1e-3
        p = dists_from_heads([("cat", a / a.sum())])
        q = dists_from_heads([("cat", b / b.sum())])
        assert kl(p, q) >= -1e-12


def test_kl_infinite_when_old_support_missing():
    p = dists_from_heads([("cat", np.array([0.5, 0.5]))])
    q = dists_from_heads([("cat", np.array([1.0, 0.0]))])
    assert kl(p, q) == np.inf
    # the other direction stays finite: new puts no mass where old is zero
    assert np.isfinite(kl(q, p))


def test_kl_rejects_mismatched_structure():
    p = dists_from_heads([("beta", 2.0, 2.0)])
    q = dists_from_heads([("cat", np.array([0.5, 0.5]))])
    with pytest.raises(ShapeError):
        kl(p, q)


# ---------------------------------------------------------------------------
# sampling


def test_sample_is_deterministic_per_seed():
    dists = mixed_dists()
    a = sample(dists, np.random.default_rng([7, 3]), 1)
    b = sample(dists, np.random.default_rng([7, 3]), 1)
    assert a.shape == (1, 3) and np.array_equal(a, b)


def test_sample_respects_supports():
    dists = mixed_dists()
    rng = np.random.default_rng(9)
    raws = sample(dists, rng, 200)
    for raw in raws:
        assert RAW_CLIP <= raw[0] <= 1.0 - RAW_CLIP
        assert RAW_CLIP <= raw[2] <= 1.0 - RAW_CLIP
        idx = raw[1]
        assert idx == int(idx) and 0 <= idx < 6


def test_sample_beta_moments():
    # Beta(2, 5): mean 2/7, var 10/392
    dists = dists_from_heads([("beta", 2.0, 5.0)])
    rng = np.random.default_rng(123)
    n = 20000
    draws = sample(dists, rng, n)[:, 0]
    se = math.sqrt(10.0 / 392.0 / n)
    assert abs(draws.mean() - 2.0 / 7.0) < 3.0 * se


def test_sample_categorical_frequencies():
    probs = np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.05])
    dists = dists_from_heads([("cat", probs)])
    rng = np.random.default_rng(321)
    n = 20000
    counts = np.bincount(sample(dists, rng, n)[:, 0].astype(int), minlength=6)
    freq = counts / n
    se = np.sqrt(probs * (1.0 - probs) / n)
    assert np.all(np.abs(freq - probs) <= 3.0 * se + 1e-9)


def test_sample_zero_probability_category_never_drawn():
    dists = dists_from_heads([("cat", np.array([0.0, 1.0, 0.0]))])
    rng = np.random.default_rng(2)
    assert (sample(dists, rng, 50)[:, 0] == 1.0).all()


def test_sample_of_no_generators_is_an_empty_batch():
    assert sample(mixed_dists(), np.random.default_rng(0), 0).shape == (0, 3)


def test_sample_at_raw_scale_800_keeps_supports_and_moments():
    # At raw outputs of +-800 softplus underflows to 0 or gives 800, so heads are
    # exactly Beta(1, 1), Beta(801, 1), Beta(1, 801) and Beta(801, 801), and the
    # categorical head puts all its mass on one category.
    ranged = tuple(ParamSpec(f"v{i}", Ranged(0, 9)) for i in range(3))
    layout = layout_for_space(ParameterSpace(ranged + mixed_space().params))
    out = np.zeros(layout.out_width)
    uv = np.array([(-1, -1), (1, -1), (-1, 1), (1, 1), (-1, -1)], dtype=float)
    out[layout.beta_off] = 800.0 * uv[:, 0]
    out[layout.beta_off + 1] = 800.0 * uv[:, 1]
    out[layout.cat_off[0] : layout.cat_off[0] + 6] = [-800.0, -800.0, 800.0, -800.0, 0.0, -800.0]
    dists = heads_from_raw(out, layout)
    a, b = dists.alphas, dists.betas
    assert a.tolist() == [1.0, 801.0, 1.0, 801.0, 1.0] and b.tolist() == [1.0, 1.0, 801.0, 801.0, 1.0]

    n = 20000
    raws = sample(dists, np.random.default_rng([800]), n)
    x = raws[:, layout.beta_params]
    assert ((x >= RAW_CLIP) & (x <= 1.0 - RAW_CLIP)).all()
    assert (raws[:, layout.cat_params] == 2.0).all()
    mean = a / (a + b)
    var = a * b / ((a + b) ** 2 * (a + b + 1.0))
    assert np.all(np.abs(x.mean(axis=0) - mean) < 4.0 * np.sqrt(var / n))
    assert np.all(np.abs(x.var(axis=0) / var - 1.0) < 0.1)


# ---------------------------------------------------------------------------
# backward passes


def test_mlp_backward_matches_finite_differences():
    rng = np.random.default_rng(17)
    params = init_params(rng, 6, 10, 4)
    s0 = context_vector(6)
    w = rng.normal(size=4)  # probe direction: scalar = w . out

    out, cache = mlp_forward(params, s0)
    factors = mlp_backward(params, cache, w)
    g_w = [np.outer(delta, h) for delta, h in factors]
    g_b = [delta for delta, _ in factors]

    h = 1e-6
    for arrs, grads in ((params.weights, g_w), (params.biases, g_b)):
        for arr, grad in zip(arrs, grads):
            flat = arr.reshape(-1)
            probe = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for j in probe:
                keep = flat[j]
                flat[j] = keep + h
                up = float(w @ mlp_forward(params, s0)[0])
                flat[j] = keep - h
                dn = float(w @ mlp_forward(params, s0)[0])
                flat[j] = keep
                fd = (up - dn) / (2.0 * h)
                assert abs(grad.reshape(-1)[j] - fd) < 1e-5 * max(1.0, abs(fd))


def test_mlp_backward_factors_give_the_full_gradients_exactly():
    rng = np.random.default_rng(23)
    params = init_params(rng, 5, 12, 7)
    params.biases = [rng.normal(size=b.shape) for b in params.biases]  # some ReLUs off
    g_out = rng.normal(size=7)
    _, cache = mlp_forward(params, context_vector(5))
    inputs, pres = cache

    # The full matrices, chained as before the backward pass returned factors.
    want_w, want_b = [None] * 4, [None] * 4
    g = g_out
    for layer in range(3, -1, -1):
        want_w[layer] = np.outer(g, inputs[layer])
        want_b[layer] = g.copy()
        if layer > 0:
            g = params.weights[layer].T @ g * (pres[layer - 1] > 0.0)

    factors = mlp_backward(params, cache, g_out)
    assert len(factors) == 4
    for (delta, h), gw, gb, x in zip(factors, want_w, want_b, inputs):
        assert h is x
        assert np.array_equal(np.outer(delta, h), gw)
        assert np.array_equal(delta, gb)
    assert any((delta == 0.0).any() for delta, _ in factors[:3])


def test_head_backward_softplus_chain():
    # alpha = 1 + softplus(u), so d(alpha)/du = sigmoid(u) = 1 - exp(1 - alpha)
    layout = layout_for_space(mixed_space())
    out = np.linspace(-1.0, 1.0, layout.out_width)
    dists = heads_from_raw(out, layout)
    g = head_backward(dists, np.ones(2), np.zeros(2), [np.zeros(6)])
    for u, got in zip(out[layout.beta_off], g[layout.beta_off]):
        assert abs(got - 1.0 / (1.0 + math.exp(-u))) < 1e-12
    # categorical slots pass through untouched
    g = head_backward(dists, np.zeros(2), np.zeros(2), [np.arange(6.0)])
    assert np.array_equal(g[2:8], np.arange(6.0))


def test_forward_cached_is_mlp_then_heads():
    layout = layout_for_space(mixed_space())
    params = init_params(np.random.default_rng(1), 4, 8, layout.out_width)
    a = heads_from_raw(mlp_forward(params, context_vector(4))[0], layout)
    b, cache = forward_cached(params, context_vector(4), layout)
    assert np.array_equal(a.alphas, b.alphas)
    assert np.array_equal(a.betas, b.betas)
    assert all(np.array_equal(x, y) for x, y in zip(a.cat_probs, b.cat_probs))
    inputs, pres = cache
    assert len(inputs) == 4 and len(pres) == 3


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(np.random.default_rng(42), 4, 8, 10)
    path = tmp_path / "policy.bin"
    save_params(params, str(path))
    loaded = load_params(str(path))
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAPOL1" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_params(str(path))


def test_checkpoint_rejects_truncation(tmp_path):
    params = init_params(np.random.default_rng(0), 4, 8, 10)
    path = tmp_path / "policy.bin"
    save_params(params, str(path))
    data = path.read_bytes()
    assert data.startswith(CHECKPOINT_MAGIC)
    path.write_bytes(data[:-16])
    with pytest.raises(ValueError, match="truncated"):
        load_params(str(path))


def test_checkpoint_rejects_shapes_larger_than_the_file(tmp_path):
    # A corrupt header must not make the loader allocate what the file cannot hold.
    path = tmp_path / "policy.bin"
    header = CHECKPOINT_MAGIC + struct.pack("<5Q", 2, 1, 1 << 44, 1, 3)
    path.write_bytes(header + bytes(64))
    with pytest.raises(ValueError, match="truncated"):
        load_params(str(path))
