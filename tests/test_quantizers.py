"""Quantizer resolution, fake quantization, clip search, GPTQ rounding."""

import tracemalloc
from functools import partial
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotquant import autodiff as ad
from rotquant import quantizers
from rotquant.quantizers import (
    SCALE_FLOOR,
    QuantParams,
    QuantSpec,
    QuantizationError,
    fake_quantize,
    gptq_quantize,
    quant_proxy_loss,
    quantize_dynamic,
    resolve_params,
    search_clip,
)
from rotquant.autodiff import round_half_away
from rotquant.transforms import hadamard_matrix

ASYM_TOKEN = QuantSpec(4, "asymmetric", "per-token")
SYM_CHANNEL = QuantSpec(4, "symmetric", "per-channel")


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


# -- parameter resolution ----------------------------------------------------------


def test_resolve_exact_integer_lattice_asymmetric():
    x = np.arange(16.0)[None, :]
    qp = resolve_params(x, ASYM_TOKEN)
    assert float(np.asarray(qp.zero).ravel()[0]) == 0.0
    assert float(np.asarray(qp.scale).ravel()[0]) == 1.0
    assert np.array_equal(fake_quantize(x, qp, ASYM_TOKEN), x)


def test_resolve_exact_integer_lattice_symmetric():
    x = np.arange(-7.0, 8.0)[None, :]
    qp = resolve_params(x, QuantSpec(4, "symmetric", "per-token"))
    assert float(np.asarray(qp.scale).ravel()[0]) == 1.0
    assert np.array_equal(fake_quantize(x, qp, QuantSpec(4, "symmetric", "per-token")), x)


def test_resolve_degenerate_constant_group():
    x = np.array([[5.0, 5.0, 5.0]])
    qp = resolve_params(x, ASYM_TOKEN)
    out = fake_quantize(x, qp, ASYM_TOKEN)
    assert np.array_equal(out, x)


def test_resolve_empty_group_rejected():
    with pytest.raises(QuantizationError, match="empty"):
        resolve_params(np.zeros((0, 4)), ASYM_TOKEN)


def test_quant_spec_validation():
    with pytest.raises(ValueError):
        QuantSpec(1, "symmetric", "per-token")
    with pytest.raises(ValueError):
        QuantSpec(4, "sym", "per-token")
    with pytest.raises(ValueError):
        QuantSpec(4, "asymmetric", "per-tensor")  # every group is a last-axis slice
    with pytest.raises(ValueError):
        QuantSpec(4, "asymmetric", "per-head")  # head_dim required


def test_asymmetric_params_cover_clipped_range():
    rng = np.random.default_rng(0)
    for alpha in (1.0, 0.7, 0.3):
        x = rng.normal(size=(20, 32)) * rng.uniform(0.1, 30)
        qp = resolve_params(x, ASYM_TOKEN, alpha=alpha)
        z = np.asarray(qp.zero)
        s = np.asarray(qp.scale)
        mn = x.min(axis=-1, keepdims=True)
        mx = x.max(axis=-1, keepdims=True)
        delta = s * (2**4 - 1)
        assert np.all(z <= alpha * mn + np.abs(alpha * mn) * 1e-15 + 1e-300)
        assert np.all(z + delta >= alpha * mx - np.abs(alpha * mx) * 1e-12)


# -- fake quantization ----------------------------------------------------------------


def test_fake_quantize_rounds_and_clips():
    spec = ASYM_TOKEN
    qp = QuantParams(scale=1.0, zero=0.0)
    assert fake_quantize(np.array([[2.6]]), qp, spec)[0, 0] == 3.0
    assert fake_quantize(np.array([[20.0]]), qp, spec)[0, 0] == 15.0  # clipped to the top code


def test_rounding_energy_twelfth_law():
    # in-range uniform samples, step 1: mean squared error -> s^2 / 12
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 15.0, size=(1, 1_000_000))
    qp = QuantParams(scale=1.0, zero=0.0)
    err = fake_quantize(x, qp, ASYM_TOKEN) - x
    assert np.mean(err**2) == pytest.approx(1.0 / 12.0, rel=0.05)


def test_fake_quantize_idempotent():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(10, 16)) * 3.0
    qp = resolve_params(x, ASYM_TOKEN)
    once = fake_quantize(x, qp, ASYM_TOKEN)
    twice = fake_quantize(once, qp, ASYM_TOKEN)
    assert np.array_equal(once, twice)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
def test_fake_quantize_lattice_membership(bits, seed):
    rng = np.random.default_rng(seed)
    spec = QuantSpec(bits, "asymmetric", "per-token")
    x = rng.normal(size=(3, 8)) * rng.uniform(0.01, 100)
    qp = resolve_params(x, spec)
    out = np.asarray(fake_quantize(x, qp, spec))
    codes = (out - np.asarray(qp.zero)) / np.asarray(qp.scale)
    assert np.all(codes > -1e-6)
    assert np.all(codes < 2**bits - 1 + 1e-6)
    assert np.max(np.abs(codes - np.round(codes))) < 1e-6


def _code_check(t, top):
    """The helper's clamped codes are round half away's, bit for bit but for
    the sign of a zero code (+0.0 adds nothing else); NaN stays NaN."""
    new = np.clip(quantizers._codes(t, 1.0, 0.0), 0.0, top)
    old = np.clip(round_half_away(t), 0.0, top)
    assert np.array_equal(np.isnan(new), np.isnan(old))
    keep = ~np.isnan(old)
    assert np.array_equal(_bits(new[keep] + 0.0), _bits(old[keep] + 0.0))


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_codes_round_half_away_wherever_the_clamp_keeps_them(bits):
    top = 2.0**bits - 1
    k = np.arange(-3.0, top + 4.0)
    # just above -1/2: round half away still gives -1 there (|t| + 1/2 rounds up to 1), this rule 0
    below_half = np.nextafter(-0.5, 0.0)
    special = [-0.5, 0.5, -0.0, 0.0, below_half, -below_half, top + 0.5, np.inf, -np.inf, np.nan, -np.nan]
    _code_check(np.concatenate([k - 0.5, k, k + 0.5, np.nextafter(k + 0.5, np.inf), special]), top)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.lists(st.floats(), min_size=1, max_size=20))
def test_codes_round_half_away_on_drawn_t(bits, t):
    _code_check(np.array(t), 2.0**bits - 1)


def _fake_quantize_as_before(x, params, spec):
    """fake_quantize spelled with the tie rule: round half away, then clamp."""
    x = np.asarray(x, dtype=np.float64)
    t = (quantizers._grouped(x, spec) - params.zero) / params.scale
    q = np.clip(round_half_away(t), 0.0, spec.levels - 1.0)
    return (q * params.scale + params.zero).reshape(x.shape)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fake_quantize_and_gptq_keep_every_bit(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    per_head = QuantSpec(3, "asymmetric", "per-head", head_dim=8)
    for spec in (ASYM_TOKEN, SYM_CHANNEL, per_head, QuantSpec(8, "symmetric", "per-channel")):
        x = rng.normal(size=(24, 32)) * 3.0
        x[::3] = np.round(4.0 * x[::3]) / 4.0  # values on a code grid
        x[1] = np.r_[0.0, 15.0, np.arange(15.0) + 0.5, np.arange(15.0)]  # asymmetric 4-bit: t = k + 1/2 exactly
        x[2] = 0.0
        for alpha in (1.0, 0.9, 0.6):  # below 1 some t fall below 0 and above the top code
            params = resolve_params(x, spec, alpha)
            got, ref = fake_quantize(x, params, spec), _fake_quantize_as_before(x, params, spec)
            assert np.array_equal(_bits(got), _bits(ref))
    w = rng.normal(size=(16, 96)) * rng.uniform(0.2, 3.0)
    calib = rng.normal(size=(128, 96)) @ (np.eye(96) + 0.3 * rng.normal(size=(96, 96)))
    for bits in (3, 4):
        spec = QuantSpec(bits, "symmetric", "per-channel")
        got = gptq_quantize(w, calib, spec)
        with monkeypatch.context() as m:
            m.setattr(quantizers, "fake_quantize", _fake_quantize_as_before)
            ref = gptq_quantize(w, calib, spec)
        assert np.array_equal(_bits(got[0]), _bits(ref[0])) and np.array_equal(got[1], ref[1])


def test_per_head_grouping_isolated_heads():
    # two heads of width 4; a large value in head 0 must not widen head 1
    spec = QuantSpec(4, "asymmetric", "per-head", head_dim=4)
    x = np.zeros((1, 8))
    x[0, :4] = [0.0, 100.0, 50.0, 25.0]
    x[0, 4:] = [0.0, 1.0, 0.5, 0.25]
    out = np.asarray(quantize_dynamic(x, spec))
    assert np.max(np.abs(out[0, 4:] - x[0, 4:])) < 0.05  # fine lattice in head 1
    # manual equivalence: quantize each head separately per-token
    tok = QuantSpec(4, "asymmetric", "per-token")
    manual = np.hstack(
        [np.asarray(quantize_dynamic(x[:, :4], tok)), np.asarray(quantize_dynamic(x[:, 4:], tok))]
    )
    assert np.array_equal(out, manual)


# -- fused fake-quant gradients ----------------------------------------------------


def _primitive_chain(x, spec, alpha):
    """quantize_dynamic spelled out in straight-through primitives."""
    shape = x.shape
    view = x
    if spec.granularity == "per-head":
        view = ad.reshape(x, (*shape[:-1], shape[-1] // spec.head_dim, spec.head_dim))
    if spec.scheme == "asymmetric":
        mn = ad.amin(view, axis=-1, keepdims=True)
        mx = ad.amax(view, axis=-1, keepdims=True)
        zero = alpha * mn
        scale = alpha * (mx - mn) * (1.0 / (spec.levels - 1))
    else:
        m = ad.amax(ad.absolute(view), axis=-1, keepdims=True)
        scale = alpha * m * (1.0 / (2 ** (spec.bits - 1) - 1))
        zero = scale * (-(2 ** (spec.bits - 1)))
    scale = ad.clamp_ste(scale, SCALE_FLOOR, np.inf)
    q = ad.clamp_ste(ad.round_ste((view - zero) / scale), 0.0, spec.levels - 1.0)
    return ad.reshape(q * scale + zero, shape)


def _value_and_grads(quantize, x0, alpha0, weights, spec):
    x = ad.parameter(x0)
    alpha = ad.parameter(np.float64(alpha0))
    y = quantize(x, spec, alpha)
    ad.backward(ad.vsum(y * weights))
    return y.value, x.grad, alpha.grad


def _tied_groups(x, spec):
    """How many groups of x hit an extreme (min, max or max |x|) more than once."""
    view = x.reshape(*x.shape[:-1], -1, spec.head_dim) if spec.granularity == "per-head" else x
    if spec.scheme == "symmetric":
        view = np.abs(view)
        extremes = [view.max(axis=-1, keepdims=True)]
    else:
        extremes = [view.min(axis=-1, keepdims=True), view.max(axis=-1, keepdims=True)]
    tied = np.zeros(view.shape[:-1], dtype=bool)
    for e in extremes:
        tied |= np.sum(view == e, axis=-1) > 1
    return int(np.sum(tied))


def _tie_free_trials(rng, n):
    """Continuous draws: every group's extremes are hit once."""
    return [rng.normal(size=(2, 6, 32)) for _ in range(n)]


def _mixed_trials(rng, n):
    """Continuous draws with a few tied groups among untied ones."""
    trials = []
    for _ in range(n):
        x0 = rng.normal(size=(2, 6, 32))
        x0[0, 2, 3] = x0[0, 2, 5] = np.abs(x0[0, 2]).max() + 0.5  # tied maxima, tied max |x|
        x0[1, 4, 1] = x0[1, 4, 6] = x0[1, 4].min() - 0.5  # tied minima, tied max |x|
        x0[1, 0, 0] = np.abs(x0[1, 0]).max() + 0.5
        x0[1, 0, 2] = -x0[1, 0, 0]  # +m and -m: tied max |x|, untied min and max
        trials.append(x0)
    return trials


@pytest.mark.parametrize(
    "spec",
    [
        QuantSpec(4, "asymmetric", "per-token"),
        QuantSpec(3, "asymmetric", "per-head", head_dim=8),
        QuantSpec(4, "symmetric", "per-channel"),
        QuantSpec(8, "symmetric", "per-channel"),
    ],
    ids=["asym-per-token", "asym-per-head", "sym-per-channel", "sym-per-channel-8bit"],
)
def test_quantize_dynamic_matches_primitive_chain(spec):
    rng = np.random.default_rng(17)
    trials = []
    for trial in range(10):
        x0 = rng.normal(size=(2, 6, 32))
        x0[0, 1] = 0.7  # constant row: the range is 0 and the scale floor binds
        x0[1, 2, :3] = x0[1, 2].max() + 0.5  # tied maxima
        x0[1, 3, 5:9] = x0[1, 3].min() - 0.5  # tied minima
        if trial % 2:
            x0 = np.round(4.0 * x0) / 4.0  # many ties, values on the code grid
        trials.append(x0)
    free, mixed = _tie_free_trials(rng, 5), _mixed_trials(rng, 5)
    assert all(_tied_groups(x0, spec) == 0 for x0 in free)
    groups = 2 * 6 * (32 // (spec.head_dim or 32))
    assert all(0 < _tied_groups(x0, spec) < groups for x0 in mixed)
    for x0 in trials + free + mixed:
        weights = rng.normal(size=x0.shape)
        alpha0 = rng.uniform(0.6, 1.0)
        value, gx, ga = _value_and_grads(quantize_dynamic, x0, alpha0, weights, spec)
        ref_value, ref_gx, ref_ga = _value_and_grads(_primitive_chain, x0, alpha0, weights, spec)
        assert np.array_equal(value, ref_value)
        assert np.max(np.abs(gx - ref_gx)) <= 1e-12 * np.max(np.abs(ref_gx))
        assert abs(ga - ref_ga) <= 1e-12 * abs(ref_ga)


@pytest.mark.parametrize("spec", [ASYM_TOKEN, SYM_CHANNEL], ids=["asym-per-token", "sym-per-channel"])
def test_quantize_dynamic_splits_only_tied_groups(spec, monkeypatch):
    rows_split = []

    def counting(values, extreme, g):
        rows_split.append(len(values))
        return split(values, extreme, g)

    split = quantizers._tie_split
    monkeypatch.setattr(quantizers, "_tie_split", counting)
    rng = np.random.default_rng(23)
    x0 = rng.normal(size=(6, 16))
    weights = rng.normal(size=x0.shape)
    _, gx, _ = _value_and_grads(quantize_dynamic, x0, 0.8, weights, spec)
    assert rows_split == []  # tie-free: every extreme's gradient lands at its position

    x1 = x0.copy()
    x1[2, 4] = x1[2, 9] = np.abs(x1[2]).max() + 0.5  # one tied max (and max |x|)
    _, gx1, _ = _value_and_grads(quantize_dynamic, x1, 0.8, weights, spec)
    assert rows_split == [1]  # one split, over the one tied row
    untied = np.arange(len(x0)) != 2
    assert np.array_equal(gx1[untied], gx[untied])
    assert gx1[2, 4] == gx1[2, 9]  # both clipped at alpha 0.8: each takes half the max's gradient


@pytest.mark.parametrize("spec", [ASYM_TOKEN, SYM_CHANNEL], ids=["asym-per-token", "sym-per-channel"])
def test_quantize_dynamic_one_partials_per_node_per_backward(spec, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return partials(*args)

    partials = quantizers._ste_grads
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(6, 16))
    weights = rng.normal(size=x0.shape)
    ref = {}
    for wrt in ("x", "alpha"):  # one gradient per node: nothing to share
        x = ad.parameter(x0) if wrt == "x" else x0
        alpha = ad.parameter(np.float64(0.8)) if wrt == "alpha" else np.float64(0.8)
        ad.backward(ad.vsum(quantize_dynamic(x, spec, alpha) * weights))
        ref[wrt] = (x if wrt == "x" else alpha).grad

    monkeypatch.setattr(quantizers, "_ste_grads", counting)
    x = ad.parameter(x0)
    alpha = ad.parameter(np.float64(0.8))
    y = quantize_dynamic(quantize_dynamic(x, spec, alpha) * 1.5, spec, alpha)
    for step in (1, 2):
        x.clear_grad()
        alpha.clear_grad()
        calls.clear()
        ad.backward(ad.vsum(y * weights))
        assert len(calls) == 2, step  # two nodes, each needing x and alpha gradients

    calls.clear()
    x.clear_grad()
    alpha.clear_grad()
    ad.backward(ad.vsum(quantize_dynamic(x, spec, alpha) * weights))
    assert len(calls) == 1
    assert np.array_equal(x.grad, ref["x"])  # the shared partials change no bit
    assert alpha.grad == ref["alpha"]


@pytest.mark.parametrize("spec", [ASYM_TOKEN, SYM_CHANNEL], ids=["asym-per-token", "sym-per-channel"])
def test_quantize_dynamic_keeps_the_in_range_mask(spec, monkeypatch):
    rng = np.random.default_rng(29)
    x0 = rng.normal(size=(2, 6, 32))
    weights = rng.normal(size=(2, 32, 6))
    alpha0 = 0.7  # clips: some codes fall outside 0..2^b - 1
    seen = []

    def spy(g, rows, raw, scale, zero, inside, codes, spec):
        seen.append((g.flags.c_contiguous, rows.copy(), scale, zero, inside.copy()))
        return grads(g, rows, raw, scale, zero, inside, codes, spec)

    grads = quantizers._ste_grads
    monkeypatch.setattr(quantizers, "_ste_grads", spy)
    y = ad.swapaxes(quantize_dynamic(ad.parameter(x0), spec, ad.parameter(np.float64(alpha0))), -1, -2)
    ad.backward(ad.vsum(y * weights))  # hands the node a strided g
    [(contiguous, rows, scale, zero, inside)] = seen
    assert contiguous  # the node lays g out as its rows
    t = (rows - zero[:, None]) / scale[:, None]
    code = np.floor(t + 0.5)
    assert np.array_equal(inside, (code >= 0.0) & (code <= spec.levels - 1.0))
    assert not inside.all()


def test_quantize_dynamic_one_node_per_call():
    x = ad.parameter(np.random.default_rng(1).normal(size=(4, 16)))
    alpha = ad.parameter(np.float64(0.8))
    y = quantize_dynamic(x, ASYM_TOKEN, alpha)
    assert y._parents == (x, alpha)
    w = quantize_dynamic(x, SYM_CHANNEL)
    assert w._parents == (x,)
    assert np.array_equal(w.value, quantize_dynamic(x.value, SYM_CHANNEL))


# -- the quantizer site: shift b^c and gain s^a inside the node -----------------------


def _site_chain(u, spec, alpha, bc, sa, qd=quantize_dynamic):
    """(QD(u * sa - bc) + bc) / sa as primitive ops around the quantizer qd, by
    default a plain quantizer node; a None bc or sa leaves its step out."""
    v = u if sa is None else u * sa
    v = v if bc is None else v - bc
    out = qd(v, spec, alpha)
    out = out if bc is None else out + bc
    return out if sa is None else out / sa


def _site_operands():
    rng = np.random.default_rng(41)
    u = rng.normal(size=(2, 6, 32))
    bc = rng.normal(0.0, 0.3, size=32)
    sa = rng.uniform(0.5, 2.0, size=32)
    bc[5], sa[5] = bc[3], sa[3]
    u[0, 2, 3] = u[0, 2, 5] = 40.0  # a tied maximum (and max |v|) after the shift and gain
    u[1, 4, 3] = u[1, 4, 5] = -40.0  # a tied minimum
    return u, np.float64(0.7), bc, sa  # alpha 0.7 clips: some codes leave 0..2^b - 1


@pytest.mark.parametrize("with_gain", [False, True], ids=["no-gain", "gain"])
@pytest.mark.parametrize(
    "spec",
    [ASYM_TOKEN, QuantSpec(4, "asymmetric", "per-head", head_dim=8), SYM_CHANNEL],
    ids=["asym-per-token", "asym-per-head", "sym-per-channel"],
)
def test_site_node_matches_the_primitive_chain(spec, with_gain):
    u0, alpha0, bc0, sa0 = _site_operands()
    if not with_gain:
        sa0 = None
    assert _tied_groups((u0 if sa0 is None else u0 * sa0) - bc0, spec) == 2
    weights = np.random.default_rng(43).normal(size=(2, 32, 6))

    def run(site, trained, strided):
        ops = [ad.parameter(v) if t else v for v, t in zip((u0, alpha0, bc0, sa0), trained)]
        y = site(ops[0], spec, ops[1], ops[2], ops[3])
        if strided:  # hands the node a strided g
            loss = ad.vsum(ad.swapaxes(y, -1, -2) * weights)
        else:
            loss = ad.vsum(y * weights.swapaxes(-1, -2).copy())
        ad.backward(loss)
        return [y.value] + [op.grad for op, t in zip(ops, trained) if t]

    def node(u, spec, alpha, bc, sa):
        return quantize_dynamic(u, spec, alpha, shift=bc, gain=sa)

    for trained in product([False, True], repeat=4 if with_gain else 3):
        trained = (*trained, False)[:4]
        if not any(trained):
            plain = node(u0, spec, alpha0, bc0, sa0)
            assert np.array_equal(_bits(plain), _bits(_site_chain(u0, spec, alpha0, bc0, sa0)))
            continue
        for strided in (False, True):
            got, ref = run(node, trained, strided), run(_site_chain, trained, strided)
            assert len(got) == len(ref) == 1 + sum(trained)
            assert np.array_equal(_bits(got[0]), _bits(ref[0])), (trained, strided)
            for a, b in zip(got[1:], ref[1:]):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (trained, strided)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.sampled_from(["per-token", "per-channel", "per-head"]),
    st.sampled_from(["asymmetric", "symmetric"]),
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.5, max_value=1.0),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_site_node_matches_the_primitive_chain_on_drawn_sites(
    lead, granularity, scheme, bits, alpha0, with_shift, with_gain, seed
):
    rng = np.random.default_rng(seed)
    head_dim = int(rng.choice([2, 4, 8])) if granularity == "per-head" else None
    n = head_dim * int(rng.integers(1, 4)) if head_dim else int(rng.integers(2, 25))
    spec = QuantSpec(bits, scheme, granularity, head_dim=head_dim)
    u0 = rng.normal(size=(*lead, n)) * rng.uniform(0.1, 10.0)
    if rng.random() < 0.5:
        u0 = np.round(4.0 * u0) / 4.0  # values on a grid: tied extremes and exact rounding ties
    flat = u0.reshape(-1, n)
    flat[0, -1] = flat[0, 0]  # a tied extreme in most drawn groups
    bc0 = rng.normal(0.0, 0.3, size=n) if with_shift else None
    sa0 = rng.uniform(0.5, 2.0, size=n) if with_gain else None
    weights = rng.normal(size=u0.shape)
    arrays = (u0, np.float64(alpha0), bc0, sa0)
    v = (u0 if sa0 is None else u0 * sa0) - (0.0 if bc0 is None else bc0)
    params = resolve_params(v, spec, alpha0)
    t = (quantizers._grouped(v, spec) - params.zero) / params.scale
    # t in [-1/2, -1/2 + 2^-54] is the one place where the node's code (0, kept) and
    # round half away's (-1, clamped) differ, so only the gradients differ there
    assume(not np.any((t >= -0.5) & (t <= np.nextafter(-0.5, 0.0))))

    plain = quantize_dynamic(u0, spec, alpha0, shift=bc0, gain=sa0)
    assert np.array_equal(_bits(plain), _bits(_site_chain(u0, spec, *arrays[1:], qd=_primitive_chain)))

    def run(site):
        ops = [None if a is None else ad.parameter(a) for a in arrays]
        y = site(ops[0], spec, ops[1], ops[2], ops[3])
        ad.backward(ad.vsum(y * weights))
        return y.value, [op.grad for op in ops if op is not None]

    value, grads = run(lambda u, spec, alpha, bc, sa: quantize_dynamic(u, spec, alpha, shift=bc, gain=sa))
    ref_value, ref_grads = run(partial(_site_chain, qd=_primitive_chain))
    assert np.array_equal(_bits(value), _bits(plain)) and np.array_equal(_bits(value), _bits(ref_value))
    # alpha's, b's and s's gradients are sums over tokens that may cancel to roundoff:
    # their scale is the size of the terms, |g| times the values over the smallest factor
    terms = np.sum(np.abs(weights)) * max(1.0, np.max(np.abs(u0)), np.max(np.abs(value)))
    terms /= min(alpha0, 1.0 if sa0 is None else np.min(sa0))
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        scale = np.max(np.abs(ref)) if i == 0 else max(np.max(np.abs(ref)), terms)
        assert np.max(np.abs(g - ref)) <= 1e-12 * scale, i


def _kept_buffers(fns):
    """The array buffers the closures fns hold, following nested closures and
    containers; views count once, as the array that owns their memory."""
    seen, found = set(), {}

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            found[id(obj)] = obj
        elif isinstance(obj, partial):
            visit((obj.func, obj.args))
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                visit(cell.cell_contents)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    visit(fns)
    return list(found.values())


@pytest.mark.parametrize("with_gain", [False, True], ids=["no-gain", "gain"])
def test_site_node_keeps_its_input_and_uint8_codes(with_gain):
    u0, alpha0, bc0, sa0 = _site_operands()
    u, bc = ad.parameter(u0), ad.parameter(bc0)
    sa = ad.parameter(sa0) if with_gain else None
    y = quantize_dynamic(u, ASYM_TOKEN, ad.parameter(alpha0), shift=bc, gain=sa)
    own = y.value if y.value.base is None else y.value.base
    full = [a for a in _kept_buffers(y._vjps) if a.size == u0.size and a is not own]
    codes = [a for a in full if a.dtype == np.uint8]
    assert len(codes) == 1 and codes[0].max() <= 15
    inputs = [a for a in full if a.dtype == np.float64 and a is not u.value]
    assert len(inputs) == 1  # the shifted (and scaled) input; no intermediate, no float codes
    # plus the in-range mask, and with a gain u itself, which its gradient reads and u's Var holds anyway
    # (as y's own value, which y holds anyway)
    assert sorted(a.dtype.name for a in full) == sorted(["bool", "float64", "uint8"] + ["float64"] * with_gain)


# -- clip threshold search ----------------------------------------------------------


def test_search_clip_gaussian_int4():
    x = np.random.default_rng(99).standard_normal(1_000_000)
    theta = search_clip(x, 4)
    assert 2.1 * x.std() <= theta <= 2.3 * x.std()


def test_search_clip_uniform_support():
    # bounded distribution: the optimum sits just inside the support edge
    x = np.random.default_rng(7).uniform(-1.0, 1.0, 200_000)
    theta = search_clip(x, 4)
    assert 0.95 <= theta <= 1.0
    # finer-grid oracle agrees within one coarse grid step
    sigma = x.std()
    fine = search_clip(x, 4, grid_points=1280)
    coarse_step = (4.0 - 0.5) * sigma / 127
    assert abs(fine - theta) <= coarse_step


def test_search_clip_scale_equivariance():
    x = np.random.default_rng(3).standard_normal(100_000)
    t1 = search_clip(x, 4)
    t10 = search_clip(10.0 * x, 4)
    sigma = x.std()
    grid_step = (4.0 - 0.5) * sigma / 127
    assert abs(t10 - 10.0 * t1) <= 10.0 * grid_step + 1e-9


def test_search_clip_is_grid_global_minimum():
    x = np.random.default_rng(5).standard_normal(50_000)
    theta = search_clip(x, 4)
    fine = search_clip(x, 4, grid_points=1270)
    coarse_step = (4.0 - 0.5) * x.std() / 127
    assert abs(fine - theta) <= coarse_step


def test_search_clip_input_validation():
    with pytest.raises(QuantizationError, match="1000"):
        search_clip(np.ones(10), 4)
    with pytest.raises(QuantizationError, match="zero-variance"):
        search_clip(np.ones(5000), 4)


def _search_clip_reference(x, bits, grid_points=128, lo=0.5, hi=4.0):
    """One theta at a time, exactly as the search defines its objective."""
    thetas = np.linspace(lo, hi, grid_points) * float(x.std())
    half = 2 ** (bits - 1)
    errors = []
    for theta in thetas:
        step = theta / half
        q = np.clip(round_half_away(x / step), -half, half - 1) * step
        errors.append(float(np.mean(np.abs(x - q))))
    return float(thetas[int(np.argmin(errors))])


@pytest.mark.parametrize("size", [1_000, 65_537, 200_000])
def test_search_clip_matches_per_theta_loop(size):
    rng = np.random.default_rng(size)
    for bits in range(2, 9):
        x = rng.standard_t(4, size=size)
        if bits % 2:
            x = np.round(8.0 * x) / 8.0  # samples on exact rounding ties
        assert search_clip(x, bits) == _search_clip_reference(x, bits)


def test_search_clip_memory_bounded():
    x = np.random.default_rng(0).standard_normal(200_000)
    search_clip(x, 4)
    tracemalloc.start()
    try:
        search_clip(x, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20  # a few sample-sized buffers, never grid x samples


# -- GPTQ ---------------------------------------------------------------------------


def test_gptq_identity_covariance_equals_rtn():
    w = np.random.default_rng(3).normal(size=(6, 8))
    x = hadamard_matrix(8) * 4.0  # X^T X = 16 I exactly
    q, _ = gptq_quantize(w, x, SYM_CHANNEL)
    assert np.array_equal(q, np.asarray(quantize_dynamic(w, SYM_CHANNEL)))


def _brute_force_1x2(w, x, spec):
    qp = resolve_params(w, spec)
    s = float(np.asarray(qp.scale).ravel()[0])
    z = float(np.asarray(qp.zero).ravel()[0])
    lattice = [z + k * s for k in range(2**spec.bits)]
    best, best_loss = None, np.inf
    for q0, q1 in product(lattice, lattice):
        cand = np.array([[q0, q1]])
        loss = quant_proxy_loss(w, cand, x)
        if loss < best_loss:
            best_loss, best = loss, cand
    return best, best_loss


def test_gptq_1x2_b2_brute_force_enumeration():
    spec = QuantSpec(2, "symmetric", "per-channel")
    cases = [
        (np.array([[0.6, 1.0]]), 0.75, 11),
        (np.array([[-0.45, 0.9]]), -0.6, 21),
        (np.array([[0.3, -1.0]]), 0.5, 33),
    ]
    for w, corr, seed in cases:
        cov = np.array([[1.0, corr], [corr, 1.0]])
        x = np.random.default_rng(seed).normal(size=(64, 2)) @ np.linalg.cholesky(cov).T
        q, _ = gptq_quantize(w, x, spec)
        _, best_loss = _brute_force_1x2(w, x, spec)
        loss = quant_proxy_loss(w, q, x)
        assert loss <= quant_proxy_loss(w, np.asarray(quantize_dynamic(w, spec)), x) + 1e-12
        assert loss == pytest.approx(best_loss, abs=1e-10)  # lattice-global optimum


def test_gptq_never_worse_than_rtn():
    spec = SYM_CHANNEL
    for seed in range(50):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(64, 8)) @ rng.normal(size=(8, 8))
        lg = quant_proxy_loss(w, gptq_quantize(w, x, spec)[0], x)
        lr = quant_proxy_loss(w, np.asarray(quantize_dynamic(w, spec)), x)
        assert lg <= lr + 1e-12, f"seed {seed}"


def test_gptq_actually_corrects():
    # the error feedback must help strictly somewhere, not just tie RTN
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, 8))
        x = rng.normal(size=(64, 8)) @ rng.normal(size=(8, 8))
        lg = quant_proxy_loss(w, gptq_quantize(w, x, SYM_CHANNEL)[0], x)
        lr = quant_proxy_loss(w, np.asarray(quantize_dynamic(w, SYM_CHANNEL)), x)
        wins += lg < lr - 1e-9
    assert wins >= 25


def test_gptq_output_on_lattice():
    rng = np.random.default_rng(12)
    w = rng.normal(size=(5, 16))
    x = rng.normal(size=(128, 16))
    q, _ = gptq_quantize(w, x, SYM_CHANNEL)
    qp = resolve_params(w, SYM_CHANNEL)
    codes = (q - np.asarray(qp.zero)) / np.asarray(qp.scale)
    assert np.max(np.abs(codes - np.round(codes))) < 1e-8


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_gptq_returns_the_raw_scale_of_its_lattice(bits):
    # the raw scale is max |w_row| times the step; its lattice is the one the
    # rows were rounded on, so fake-quantizing q on it changes no bit
    rng = np.random.default_rng(13)
    w = rng.normal(size=(6, 16))
    w[2] = 0.0  # a dead row keeps its (zero) raw scale
    spec = QuantSpec(bits, "symmetric", "per-channel")
    q, raw = gptq_quantize(w, rng.normal(size=(64, 16)), spec)
    assert raw.shape == (6,)
    assert np.array_equal(raw, np.max(np.abs(w), axis=1) * (1.0 / (2 ** (bits - 1) - 1)))
    lattice, resolved = spec.lattice(raw[:, None]), resolve_params(w, spec)
    assert np.array_equal(lattice.scale, resolved.scale) and np.array_equal(lattice.zero, resolved.zero)
    assert np.array_equal(fake_quantize(q, lattice, spec), q)


def test_gptq_row_proxy_loss_is_the_three_operand_form():
    rng = np.random.default_rng(21)
    e = rng.normal(size=(24, 96))
    x = rng.normal(size=(300, 96)) @ rng.normal(size=(96, 96))
    h = x.T @ x
    ref = np.einsum("ij,jk,ik->i", e, h, e)
    assert np.max(np.abs(quantizers._row_proxy_loss(e, h) - ref) / ref) <= 1e-12


def test_gptq_row_choice_unchanged_by_gemm_loss(monkeypatch):
    rng = np.random.default_rng(22)
    # the direct rounding wins 2-4 of 16 rows at 8 columns and 0-2 of 32 at 64
    cases = [
        (rng.normal(size=(rows, cols)), rng.normal(size=(4 * cols, cols)) @ rng.normal(size=(cols, cols)))
        for rows, cols in [(16, 8)] * 4 + [(32, 64)] * 2
    ]
    fast = [gptq_quantize(w, x, SYM_CHANNEL)[0] for w, x in cases]
    monkeypatch.setattr(
        quantizers, "_row_proxy_loss", lambda e, h: np.einsum("ij,jk,ik->i", e, h, e)
    )
    for (w, x), q in zip(cases, fast):
        assert np.array_equal(q, gptq_quantize(w, x, SYM_CHANNEL)[0])


def test_gptq_ill_conditioned_error():
    w = np.random.default_rng(0).normal(size=(4, 6))
    x = np.ones((8, 6))  # rank-1 Hessian
    with pytest.raises(QuantizationError, match="ill-conditioned"):
        gptq_quantize(w, x, SYM_CHANNEL, damp=0.0)


def test_gptq_input_validation():
    w = np.zeros((4, 6))
    with pytest.raises(QuantizationError, match="per-channel symmetric"):
        gptq_quantize(w, np.ones((8, 6)), ASYM_TOKEN)
    with pytest.raises(QuantizationError, match="width"):
        gptq_quantize(w, np.ones((8, 5)), SYM_CHANNEL)
    with pytest.raises(QuantizationError, match="nonempty"):
        gptq_quantize(w, np.zeros((0, 6)), SYM_CHANNEL)


def _gptq_inverse_hessian_oracle(w, x, spec, damp=0.01):
    """GPTQ through H^{-1}: the upper Cholesky factor U of H^{-1} = L^{-T} L^{-1},
    and one rank-1 update of the remaining columns per rounded column."""
    w_orig = np.array(w, dtype=np.float64, copy=True)
    w = w_orig.copy()
    cols = w.shape[1]
    h_raw = x.T @ x
    h = h_raw.copy()
    dead = np.diag(h) == 0.0
    if dead.any():
        h[dead, dead] = 1.0
        w[:, dead] = 0.0
    h[np.diag_indices(cols)] += damp * float(np.mean(np.diag(h)))
    low_inv = np.linalg.solve(np.linalg.cholesky(h), np.eye(cols))
    upper = np.linalg.cholesky(low_inv.T @ low_inv).T
    params = resolve_params(w_orig, spec)
    q = np.zeros_like(w)
    for i in range(cols):
        col = w[:, i : i + 1]
        q[:, i : i + 1] = fake_quantize(col, params, spec)
        err = (col - q[:, i : i + 1])[:, 0] / upper[i, i]
        w[:, i + 1 :] -= np.outer(err, upper[i, i + 1 :])
    q_direct = fake_quantize(w_orig, params, spec)
    loss = lambda e: np.einsum("ij,ij->i", e @ h_raw, e)  # noqa: E731
    keep_direct = loss(w_orig - q_direct) < loss(w_orig - q)
    q[keep_direct] = q_direct[keep_direct]
    return q


@pytest.mark.parametrize(
    "rows, cols, dead",
    [(5, 16, 0), (11, 48, 0), (24, 128, 0), (7, 129, 0), (40, 300, 0), (33, 513, 0), (16, 300, 60),
     (9, 200, 66), (1024, 128, 0), (128, 1024, 0)],
)
def test_gptq_matches_inverse_hessian_oracle(rows, cols, dead):
    # one, two and several 32-column GPTQ_BLOCKs, partial last blocks, dead calibration columns,
    # and the [1024x128] / [128x1024] shapes of a wide model's MLP
    rng = np.random.default_rng(rows * 1009 + cols)
    w = rng.normal(size=(rows, cols)) * rng.uniform(0.2, 3.0)
    x = rng.normal(size=(max(2 * cols, 64), cols)) @ (np.eye(cols) + 0.3 * rng.normal(size=(cols, cols)))
    x[:, rng.choice(cols, size=dead, replace=False)] = 0.0
    for bits in (3, 4):
        spec = QuantSpec(bits, "symmetric", "per-channel")
        assert np.array_equal(gptq_quantize(w, x, spec)[0], _gptq_inverse_hessian_oracle(w, x, spec))


def test_gptq_memory_bounded():
    rng = np.random.default_rng(5)
    w = rng.normal(size=(128, 1024))
    x = rng.normal(size=(1024, 1024))
    gptq_quantize(w, x, SYM_CHANNEL)
    tracemalloc.start()
    try:
        gptq_quantize(w, x, SYM_CHANNEL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 1024 * 1024 * 8  # 6 cols^2 float64: no H^{-1}, no second factor
