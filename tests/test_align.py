"""Loss values, optimizer behavior, and the staged training driver."""

import copy
import json

import numpy as np
import pytest

from listalign import align, autodiff as ad, eval as evalmod, model, synth
from listalign.errors import ConfigError, DegenerateInput, DetachedParameter, ShapeMismatch

from gradcheck import per_tensor_fd_errors


# ---------------------------------------------------------------------------
# loss values
# ---------------------------------------------------------------------------

def test_infonce_identity_logits_hand_value():
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = align.infonce_loss(logits, temperature=1.0)
    expected = np.log(1.0 + np.exp(-1.0))
    assert abs(float(loss.value) - expected) < 1e-12


def test_infonce_uniform_logits_is_log_batch_size():
    for b in (2, 3, 5, 8):
        logits = np.full((b, b), 0.37)
        loss = align.infonce_loss(logits, temperature=1.0)
        assert abs(float(loss.value) - np.log(b)) < 1e-12


def test_infonce_temperature_divides_logits():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(5, 5))
    a = align.infonce_loss(logits, temperature=0.25)
    b = align.infonce_loss(logits / 0.25, temperature=1.0)
    assert abs(float(a.value) - float(b.value)) < 1e-12


def test_siglip_single_pair_zero_logit_is_log_two():
    loss = align.siglip_loss(np.zeros((1, 1)), temperature=1.0, bias=0.0)
    assert abs(float(loss.value) - np.log(2.0)) < 1e-12


def test_siglip_hand_value():
    logits = np.array([[2.0, -1.0], [0.0, 3.0]])
    loss = align.siglip_loss(logits, temperature=1.0, bias=0.0)
    # diagonal entries enter with sign +1, off-diagonal with sign -1
    terms = [
        np.logaddexp(0.0, -2.0),
        np.logaddexp(0.0, -1.0),
        np.logaddexp(0.0, 0.0),
        np.logaddexp(0.0, -3.0),
    ]
    assert abs(float(loss.value) - np.mean(terms)) < 1e-12


def test_loss_input_validation():
    with pytest.raises(DegenerateInput):
        align.infonce_loss(np.zeros((1, 1)))
    with pytest.raises(ShapeMismatch):
        align.infonce_loss(np.zeros((2, 3)))
    with pytest.raises(DegenerateInput):
        align.siglip_loss(np.array([[np.inf]]))
    with pytest.raises(ConfigError):
        align.LossConfig(kind="triplet")


# ---------------------------------------------------------------------------
# loss gradients
# ---------------------------------------------------------------------------

def _loss_grad_errors(kind, seed):
    rng = np.random.default_rng(seed)
    raw = ad.param(rng.normal(size=(6, 6)))
    scalars = align.create_loss_params(align.LossConfig(kind=kind))

    def build():
        with ad.Tape() as tape:
            loss = align.compute_loss(kind, scalars, raw * 1.0)
        return loss, tape

    return per_tensor_fd_errors(build, {"raw": raw, **scalars}, h=1e-6)


@pytest.mark.parametrize("kind", align.LOSS_HEADS)
def test_loss_gradients_match_finite_differences(kind):
    errors = _loss_grad_errors(kind, seed=3)
    assert max(errors.values()) < 1e-4, errors


# each head written out as its composite, and its initial multiplier
COMPOSITES = {
    "infonce": (lambda s, L: align.infonce_loss(L, temperature=ad.exp(-s["loss.log_inv_temp"])),
                lambda cfg: cfg.init_inv_temp),
    "siglip": (lambda s, L: align.siglip_loss(L, temperature=ad.exp(s["loss.log_t"]), bias=s["loss.bias"]),
               lambda cfg: cfg.init_t),
}


@pytest.mark.parametrize("kind", COMPOSITES)
def test_loss_head_is_its_composite_bit_for_bit(kind):
    cfg = align.LossConfig(kind=kind, init_inv_temp=7.0, init_t=3.5, init_b=-2.0)
    logits = np.random.default_rng(11).normal(size=(5, 5))
    runs = []
    for loss_of in (lambda s, L: align.compute_loss(kind, s, L), COMPOSITES[kind][0]):
        scalars = align.create_loss_params(cfg)
        with ad.Tape() as tape:
            loss = loss_of(scalars, ad.constant(logits))
        runs.append((loss.value.tobytes(),
                     {n: g.tobytes() for n, g in model.backward(tape, loss, scalars).items()}))
    assert runs[0] == runs[1]
    temp = align.temperature(align.create_loss_params(cfg))
    assert temp == pytest.approx(1.0 / COMPOSITES[kind][1](cfg), rel=1e-15)


def test_learnable_temperature_receives_gradient():
    errors = _loss_grad_errors("infonce", seed=7)
    assert "loss.log_inv_temp" in errors
    errors = _loss_grad_errors("siglip", seed=7)
    assert "loss.log_t" in errors and "loss.bias" in errors


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_zero_betas_signsgd_like_update():
    var = ad.param(np.array([1.0, -2.0, 0.5]))
    params = {"w": var}
    state = align.init_adam_state(params)
    hyper = align.AdamHyper(beta1=0.0, beta2=0.0, eps=1e-8, weight_decay=0.0)
    g = np.array([0.3, -0.7, 0.0])
    before = var.value.copy()
    align.adam_step(params, {"w": g}, state, hyper, step_index=0, lr=0.1)
    expected = before - 0.1 * (g / (np.abs(g) + 1e-8))
    np.testing.assert_array_equal(var.value, expected)


def test_adam_lr_zero_leaves_values_bitwise():
    var = ad.param(np.array([[0.25, -1.5]]))
    params = {"w": var}
    state = align.init_adam_state(params)
    before = var.value.copy()
    align.adam_step(params, {"w": np.ones((1, 2))}, state, align.AdamHyper(), 0, lr=0.0)
    np.testing.assert_array_equal(var.value, before)
    assert state.m.any()  # moments still advance


def test_adam_skips_frozen_tensors_entirely():
    var = ad.param(np.array([1.0, 2.0]))
    var.requires_grad = False
    params = {"w": var}
    state = align.init_adam_state(params)
    before = var.value.copy()
    align.adam_step(params, {"w": np.full(2, 9.0)}, state, align.AdamHyper(), 0, lr=0.5)
    np.testing.assert_array_equal(var.value, before)
    assert not state.m.any() and not state.v.any()


def test_learning_rate_schedule_shape():
    assert align.learning_rate_at(0, 1.0, 10, 100) == 0.0
    assert abs(align.learning_rate_at(50, 1.0, 0, 100) - 0.5) < 1e-12
    assert align.learning_rate_at(100, 1.0, 0, 100) < 1e-15
    assert align.learning_rate_at(250, 1.0, 0, 100) < 1e-15  # clamped past horizon
    # warmup region: linear ramp times cosine near 1
    lr5 = align.learning_rate_at(5, 2.0, 10, 1000)
    assert 0.9 < lr5 < 1.01


def test_decoupled_weight_decay_acts_without_gradient():
    var = ad.param(np.array([4.0]))
    params = {"w": var}
    state = align.init_adam_state(params)
    hyper = align.AdamHyper(weight_decay=0.1)
    align.adam_step(params, {"w": np.zeros(1)}, state, hyper, 0, lr=0.5)
    np.testing.assert_allclose(var.value, np.array([4.0 - 0.5 * 0.1 * 4.0]))


def _reference_adam(values, grads, m, v, hyper, t, lr):
    """The per-tensor update as adam_step wrote it before the arena: new arrays."""
    bc1 = 1.0 - hyper.beta1**t
    bc2 = 1.0 - hyper.beta2**t
    m = hyper.beta1 * m + (1.0 - hyper.beta1) * grads
    v = hyper.beta2 * v + (1.0 - hyper.beta2) * (grads * grads)
    update = (m / bc1) / (np.sqrt(v / bc2) + hyper.eps)
    return values - lr * (update + hyper.weight_decay * values), m, v


def _arena_params(rng):
    """A live matrix, a frozen vector, a live 0-d scalar, in that order."""
    params = {"a": ad.param(rng.normal(size=(3, 4))), "frozen": ad.param(rng.normal(size=5)),
              "s": ad.param(np.float64(rng.normal()))}
    params["frozen"].requires_grad = False
    return params


def test_init_adam_state_packs_values_into_one_arena():
    params = _arena_params(np.random.default_rng(0))
    before = {name: var.value.copy() for name, var in params.items()}
    state = align.init_adam_state(params)
    assert state.arena.shape == (18,)
    for name, var in params.items():
        assert var.value.base is state.arena and var.value.shape == before[name].shape
        assert var.value.tobytes() == before[name].tobytes()
    assert state.m.shape == state.v.shape == (18,)
    assert state.spans == {"a": (0, 12), "frozen": (12, 17), "s": (17, 18)}


def test_flat_adam_matches_the_per_tensor_formula_bitwise():
    rng = np.random.default_rng(1)
    params = _arena_params(rng)
    hyper = align.AdamHyper(beta1=0.8, beta2=0.95, eps=1e-7, weight_decay=0.03)
    ref = {name: [var.value.copy(), np.zeros_like(var.value), np.zeros_like(var.value)]
           for name, var in params.items()}
    frozen_before = params["frozen"].value.copy()
    state = align.init_adam_state(params)
    for step in range(4):
        size = state.arena.size
        flat = rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size=size)
        grads = {name: flat[lo:hi].reshape(params[name].value.shape)
                 for name, (lo, hi) in state.spans.items()}
        lr = 0.01 * (step + 1)
        align.adam_step(params, grads, state, hyper, step, lr)
        for name in ("a", "s"):
            values, m, v = ref[name]
            ref[name] = _reference_adam(values, grads[name], m, v, hyper, step + 1, lr)
    for name in ("a", "s"):
        span = slice(*state.spans[name])
        for got, want in zip((params[name].value, state.m[span], state.v[span]), ref[name]):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    assert params["frozen"].value.tobytes() == frozen_before.tobytes()
    frozen = slice(*state.spans["frozen"])
    assert not state.m[frozen].any() and not state.v[frozen].any()


def _ones_like(params):
    return {name: np.ones_like(var.value) for name, var in params.items()}


def test_adam_rejects_a_value_rebound_after_init():
    params = _arena_params(np.random.default_rng(2))
    state = align.init_adam_state(params)
    params["a"].value = params["a"].value.copy()  # a detached copy would train alone
    with pytest.raises(DetachedParameter, match="a:"):
        align.adam_step(params, _ones_like(params), state, align.AdamHyper(), 0, lr=0.1)
    params["frozen"].value = params["frozen"].value.copy()  # frozen tensors are not updated
    params["a"].value = state.arena[0:12].reshape(3, 4)
    align.adam_step(params, _ones_like(params), state, align.AdamHyper(), 0, lr=0.1)


@pytest.mark.parametrize("shape", [(12,), (4, 3), (1,), (1, 4), (3, 5)])
def test_adam_rejects_a_gradient_not_shaped_as_its_tensor(shape):
    params = _arena_params(np.random.default_rng(3))
    state = align.init_adam_state(params)
    before = state.arena.copy()
    grads = _ones_like(params)
    grads["a"] = np.ones(shape)  # same size, or one numpy would broadcast
    with pytest.raises(ShapeMismatch, match="a:"):
        align.adam_step(params, grads, state, align.AdamHyper(), 0, lr=0.1)
    assert state.arena.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# training driver
# ---------------------------------------------------------------------------

def _tiny_dataset(n, seed=0, p_max=3):
    cfg = synth.GeneratorConfig(
        n_listings=n, d_latent=4, d_photo=6, d_text=5, p_max=p_max,
        photo_noise=0.02, text_noise=0.02, seed=seed,
    )
    return synth.generate(cfg)


def _tiny_towers(seed=0, p_max=3, pool="last"):
    scfg = model.SetEncoderConfig(
        d_in=6, d_model=8, n_layers=1, n_heads=2, d_out=8, p_max=p_max, pool=pool,
    )
    tcfg = model.TextTowerConfig(dims=(5, 8, 8))
    return model.init_set_encoder(scfg, seed=seed), model.init_text_tower(tcfg, seed=seed + 1)


def test_empty_schedule_is_identity():
    records = _tiny_dataset(6)
    ps, te = _tiny_towers()
    before = {k: v.value.copy() for k, v in {**ps.tensors, **te.tensors}.items()}
    result = align.train(records, [], ps, te, align.LossConfig(), align.TrainSchedule(stages=(), batch_size=4))
    for name, var in {**ps.tensors, **te.tensors}.items():
        np.testing.assert_array_equal(var.value, before[name])
    assert result.log.steps == [] and result.log.epochs == []


def test_batch_size_larger_than_dataset_rejected():
    records = _tiny_dataset(4)
    ps, te = _tiny_towers()
    schedule = align.TrainSchedule(stages=(align.TrainStage(epochs=1, lr=1e-3),), batch_size=8)
    with pytest.raises(ConfigError):
        align.train(records, [], ps, te, align.LossConfig(), schedule)


def test_bad_unfreeze_index_fails_before_any_update():
    records = _tiny_dataset(8)
    ps, te = _tiny_towers()
    before = {k: v.value.copy() for k, v in ps.tensors.items()}
    schedule = align.TrainSchedule(
        stages=(
            align.TrainStage(epochs=1, lr=1e-3),
            align.TrainStage(epochs=1, lr=1e-3, unfreeze_text_layers=(99,)),
        ),
        batch_size=4,
    )
    with pytest.raises(ConfigError):
        align.train(records, [], ps, te, align.LossConfig(), schedule)
    for name, var in ps.tensors.items():
        np.testing.assert_array_equal(var.value, before[name])


def test_frozen_text_layers_bit_identical_after_training():
    records = _tiny_dataset(12)
    ps, te = _tiny_towers()
    before = {k: v.value.copy() for k, v in te.tensors.items()}
    schedule = align.TrainSchedule(
        stages=(align.TrainStage(epochs=2, lr=5e-3, unfreeze_text_layers=(1,)),),
        batch_size=4, seed=1,
    )
    align.train(records, [], ps, te, align.LossConfig(), schedule)
    np.testing.assert_array_equal(te.tensors["text0.w"].value, before["text0.w"])
    np.testing.assert_array_equal(te.tensors["text0.b"].value, before["text0.b"])
    assert not np.array_equal(te.tensors["text1.w"].value, before["text1.w"])


def test_zero_text_row_trains_to_finite_parameters():
    # zero text biases carry an all-zero text row to an exactly-zero output
    # row, the L2 guard's case, in the first batch: its gradient must not be NaN
    records = _tiny_dataset(8)
    records[3].text_features[:] = 0.0
    ps, te = _tiny_towers()
    schedule = align.TrainSchedule(
        stages=(align.TrainStage(epochs=2, lr=3e-3, unfreeze_text_layers=(0, 1)),), batch_size=8,
    )
    result = align.train(records, [], ps, te, align.LossConfig(), schedule)
    for name, var in {**ps.tensors, **te.tensors, **result.loss}.items():
        assert np.isfinite(var.value).all(), name


def test_training_is_deterministic():
    def run():
        records = _tiny_dataset(10, seed=5)
        ps, te = _tiny_towers(seed=2)
        schedule = align.TrainSchedule(
            stages=(align.TrainStage(epochs=2, lr=3e-3, unfreeze_text_layers=(0, 1)),),
            batch_size=4, seed=9, warmup_steps=2,
        )
        result = align.train(records[:8], records[8:], ps, te, align.LossConfig(), schedule)
        return {**ps.tensors, **te.tensors, **result.loss}, result.log

    (a_tensors, a), (b_tensors, b) = run(), run()
    for name, va in a_tensors.items():
        np.testing.assert_array_equal(va.value, b_tensors[name].value, err_msg=name)
    assert a.steps == b.steps
    assert a.epochs == b.epochs


def test_gradient_accumulation_reduces_step_count():
    records = _tiny_dataset(16)
    ps, te = _tiny_towers()
    schedule = align.TrainSchedule(
        stages=(align.TrainStage(epochs=1, lr=1e-3, unfreeze_text_layers=(0, 1)),),
        batch_size=4, grad_accum=2,
    )
    result = align.train(records, [], ps, te, align.LossConfig(), schedule)
    assert len(result.log.steps) == 2  # 4 batches folded into 2 optimizer steps


def test_epoch_rows_carry_holdout_metrics():
    records = _tiny_dataset(12)
    ps, te = _tiny_towers()
    schedule = align.TrainSchedule(
        stages=(align.TrainStage(epochs=2, lr=1e-3, unfreeze_text_layers=(0, 1)),),
        batch_size=4, eval_ks=(1, 2),
    )
    result = align.train(records[:10], records[10:], ps, te, align.LossConfig(), schedule)
    assert len(result.log.epochs) == 2
    row = result.log.epochs[0]
    for key in ("mean_rank_t2i", "mean_rank_i2t", "recall_t2i@1", "recall_i2t@2", "train_loss"):
        assert key in row
    steps = result.log.steps
    assert [s["step"] for s in steps] == list(range(len(steps)))


def test_single_batch_overfit_reaches_perfect_recall():
    records = _tiny_dataset(8, seed=3)
    ps, te = _tiny_towers(seed=4)
    schedule = align.TrainSchedule(
        stages=(align.TrainStage(epochs=300, lr=3e-3, unfreeze_text_layers=(0, 1)),),
        batch_size=8, seed=0, warmup_steps=10,
    )
    result = align.train(records, [], ps, te, align.LossConfig(kind="infonce"), schedule)
    photos, counts = synth.pack_photos(records)
    ps_emb = model.encode_photoset_batch(ps, photos, counts)
    tx_emb = model.encode_text(te, synth.pack_texts(records))
    metrics = evalmod.retrieval_metrics(tx_emb, ps_emb, ks=(1,))
    assert metrics.recall_t2i[1] == 1.0
    assert metrics.recall_i2t[1] == 1.0
    assert result.log.steps[-1]["loss"] < 0.2
    # the learnable scale moved off its initialization
    assert abs(align.temperature(result.loss) - 1.0 / 14.0) > 1e-6


def test_siglip_training_also_learns():
    records = _tiny_dataset(8, seed=6)
    ps, te = _tiny_towers(seed=1)
    schedule = align.TrainSchedule(
        stages=(align.TrainStage(epochs=150, lr=3e-3, unfreeze_text_layers=(0, 1)),),
        batch_size=8, seed=0, warmup_steps=10,
    )
    result = align.train(records, [], ps, te, align.LossConfig(kind="siglip"), schedule)
    first = result.log.steps[0]["loss"]
    last = result.log.steps[-1]["loss"]
    assert last < first * 0.5


# ---------------------------------------------------------------------------
# log persistence
# ---------------------------------------------------------------------------

def test_train_log_round_trip(tmp_path):
    records = _tiny_dataset(8)
    ps, te = _tiny_towers()
    schedule = align.TrainSchedule(
        stages=(align.TrainStage(epochs=2, lr=1e-3, unfreeze_text_layers=(0, 1)),),
        batch_size=4, eval_ks=(1, 2),
    )
    result = align.train(records[:6], records[6:], ps, te, align.LossConfig(), schedule)
    jl = tmp_path / "log.jsonl"
    cs = tmp_path / "epochs.csv"
    result.log.save_jsonl(str(jl))
    result.log.save_epoch_csv(str(cs))

    lines = jl.read_text().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert sum(1 for p in parsed if p["kind"] == "step") == len(result.log.steps)
    assert sum(1 for p in parsed if p["kind"] == "epoch") == 2
    header = cs.read_text().splitlines()[0].split(",")
    assert "train_loss" in header and "epoch" in header

    first = jl.read_bytes()
    result.log.save_jsonl(str(jl))
    assert jl.read_bytes() == first
