import numpy as np
import pytest

from dialogrl import curiosity
from dialogrl.agent import Experience, ReplayBuffer
from dialogrl.curiosity import CuriosityModel
from dialogrl.env import encode_state, DialogState
from dialogrl.errors import ShapeError
from dialogrl.world import encode_inputs

STATE, ACTIONS = 10, 4


def tiny_cm(seed=0, lr=0.01):
    return CuriosityModel(state_dim=STATE, n_agent_actions=ACTIONS, hidden=16,
                          learning_rate=lr, seed=seed)


def prediction_error(cm, s, a, s_next) -> float:
    """Squared distance between the true and the predicted next encoding."""
    pred = cm.net.forward(encode_inputs(s, [a], cm.n_agent_actions))["next_state"][0]
    diff = s_next - pred
    return float(diff @ diff)


def f32_close(v, full) -> bool:
    """Whether float32 values from the factored first layer match the whole
    net's on one-hot inputs. The two sum the first layer's terms in another
    order, then every layer rounds to float32, so they differ by a few float32
    ulps of the values' scale (8 eps at most measured); 32 eps leaves a
    margin. A wrong factoring errs by about 1e-1."""
    scale = max(1.0, float(np.abs(full).max()))
    return np.allclose(v, full, rtol=0.0, atol=32 * np.finfo(np.float32).eps * scale)


def rand_state(rng, dim=STATE):
    return (rng.random(dim) > 0.5).astype(float)


def test_scores_shape_and_nonnegative():
    cm = tiny_cm(seed=1)
    rng = np.random.default_rng(0)
    c, pred = cm.scores(rand_state(rng))
    assert c.shape == (ACTIONS,)
    assert pred.shape == (ACTIONS, STATE)
    assert (c >= 0).all()


def test_scores_zero_net_flat():
    cm = tiny_cm()
    cm.net.set_parameter_vector(np.zeros(cm.net.theta.size))
    c, _ = cm.scores(np.ones(STATE))
    assert np.allclose(c, c[0])
    assert (c >= 0).all()


def test_scores_pure():
    cm = tiny_cm(seed=2)
    s = np.ones(STATE)
    a = cm.scores(s)
    b = cm.scores(s)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_values_match_scores_row_by_row():
    cm = tiny_cm(seed=9)
    rng = np.random.default_rng(4)
    # Random weights of a useful size, so most values are positive and unequal.
    cm.net.set_parameter_vector(rng.normal(scale=0.5, size=cm.net.theta.size))
    for n in (1, 7):
        states = np.stack([rand_state(rng) for _ in range(n)])
        v = cm.values(states)
        assert v.shape == (n, ACTIONS)
        for i in range(n):
            # reference: the whole net on the one-hot (state, action) inputs
            x = encode_inputs(np.tile(states[i], (ACTIONS, 1)), np.arange(ACTIONS), ACTIONS)
            full = np.maximum(cm.net.forward(x)["value"][:, 0], 0.0)
            assert f32_close(v[i], full)
            assert np.array_equal(v[i], cm.scores(states[i])[0])
    assert (v > 0).any() and (v >= 0).all()


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8, 9, 30, 75])
def test_values_match_whole_net_across_blocks(n):
    # Canonical sizes, in 8-state blocks: n = 1 to 5 fill part of one block, n = 8 fills
    # it exactly, and n = 9, 30 and 75 cross block edges.
    cm = CuriosityModel(seed=3)
    rng = np.random.default_rng(n)
    cm.net.set_parameter_vector(rng.normal(scale=0.3, size=cm.net.theta.size))
    states = (rng.random((n, 129)) > 0.5).astype(float)
    x = encode_inputs(np.repeat(states, 29, axis=0), np.tile(np.arange(29), n), 29)
    full = np.maximum(cm.net.forward(x)["value"][:, 0], 0.0).reshape(n, 29)
    v = cm.values(states)
    assert v.shape == (n, 29)
    assert f32_close(v, full)
    assert (v > 0).any()


def test_values_are_bit_equal_across_block_sizes(monkeypatch):
    # VALUE_BLOCK_STATES trades speed only: blocks of 4, 8 and 16 states give the same bits.
    cm = CuriosityModel(seed=3)
    rng = np.random.default_rng(11)
    cm.net.set_parameter_vector(rng.normal(scale=0.3, size=cm.net.theta.size))
    states = (rng.random((75, 129)) > 0.5).astype(float)
    for n in range(1, 76):
        values = []
        for block in (4, 8, 16):
            monkeypatch.setattr(curiosity, "VALUE_BLOCK_STATES", block)
            values.append(cm.values(states[:n]))
        assert (values[0] > 0).any()
        assert all(np.array_equal(v, values[0]) for v in values[1:]), n


def test_values_of_one_state_is_a_batch_of_one():
    cm = tiny_cm(seed=1)
    s = rand_state(np.random.default_rng(0))
    assert np.array_equal(cm.values(s), cm.values(s[None, :]))


def test_values_rejects_wrong_width():
    with pytest.raises(ShapeError):
        tiny_cm().values(np.zeros((2, STATE + 1)))


def test_prediction_error_degenerate_cases():
    cm = tiny_cm(seed=3)
    rng = np.random.default_rng(1)
    s = rand_state(rng)
    # perfect prediction -> error 0 (use the model's own prediction as truth)
    _, preds = cm.scores(s)
    assert prediction_error(cm, s, 1, preds[1]) == pytest.approx(0.0, abs=1e-18)
    # differing in exactly 4 binary coordinates by 1 -> error 4
    truth = preds[2].copy()
    truth[:4] += 1.0
    assert prediction_error(cm, s, 2, truth) == pytest.approx(4.0)


def test_train_empty_buffers_noop():
    cm = tiny_cm()
    before = cm.net.parameter_vector()
    out = cm.train(ReplayBuffer(kind="real"), ReplayBuffer(kind="simulated"), 3,
                   np.random.default_rng(0))
    assert out is None
    assert np.array_equal(before, cm.net.parameter_vector())


def test_train_matches_two_pass_reference():
    # Reference: draw over the two pools in a Python loop, run a separate
    # forward for the pre-update prediction, then train on explicit targets.
    import copy

    from dialogrl.nets import TrainBatch

    rng = np.random.default_rng(6)
    real, sim = ReplayBuffer(kind="real"), ReplayBuffer(kind="simulated")
    for buf, n in ((real, 13), (sim, 29)):
        for _ in range(n):
            buf.append(Experience(rand_state(rng), int(rng.integers(ACTIONS)), 0.0, 0,
                                  rand_state(rng), False))
    for n_batches in (6, 70):  # 70 spans three gathered chunks
        cm = tiny_cm(seed=10, lr=0.01)
        ref = copy.deepcopy(cm.net)
        loss = cm.train(real, sim, n_batches=n_batches, rng=np.random.default_rng(2))

        ref_rng = np.random.default_rng(2)
        losses = []
        for _ in range(n_batches):
            exps = []
            for f in ref_rng.integers(0, len(real) + len(sim), size=16):
                exps.append(real[int(f)] if f < len(real) else sim[int(f) - len(real)])
            x = encode_inputs(np.stack([e.s for e in exps]), [e.a for e in exps], ACTIONS)
            next_states = np.stack([e.s_next for e in exps])
            err = ((next_states - ref.forward(x)["next_state"]) ** 2).sum(axis=1, keepdims=True)
            losses.append(ref.train_minibatch(TrainBatch(x, {"next_state": next_states, "value": err}),
                                              0.01))
        assert loss == float(np.mean(losses))
        assert cm.net.parameter_vector().tobytes() == ref.parameter_vector().tobytes()
        assert cm.net.acc.tobytes() == ref.acc.tobytes()


def test_curiosity_value_converges_on_single_transition():
    # Deterministic single transition: the prediction error target goes to
    # zero, so the value for that (s, a) must fall below 0.05.
    cm = tiny_cm(seed=4, lr=0.01)
    s = np.array([1.0, 0, 1, 0, 1, 0, 1, 0, 1, 0])
    s_next = np.array([0.0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
    buf = ReplayBuffer(kind="real")
    buf.append(Experience(s, 2, -1.0, 0, s_next, False))
    rng = np.random.default_rng(0)
    for _ in range(1000):
        cm.train(buf, None, n_batches=1, rng=rng)
    c, _ = cm.scores(s)
    assert c[2] < 0.05


def test_trained_curiosity_separates_predictable_from_noisy():
    # Action 3 leads to a fresh random state every time; action 1 always
    # leads to one fixed state. After training c[3] > c[1].
    cm = tiny_cm(seed=5, lr=0.01)
    rng = np.random.default_rng(7)
    s0 = rand_state(rng)
    fixed_next = rand_state(rng)
    buf = ReplayBuffer(kind="real")
    for _ in range(300):
        buf.append(Experience(s0, 1, -1.0, 0, fixed_next, False))
        buf.append(Experience(s0, 3, -1.0, 0, rand_state(rng), False))
    train_rng = np.random.default_rng(0)
    for _ in range(400):
        cm.train(buf, None, n_batches=2, rng=train_rng)
    c, _ = cm.scores(s0)
    assert c[3] > c[1]


def test_mean_error_non_increasing_on_deterministic_corpus():
    # On a fully deterministic corpus the mean prediction error shrinks
    # over training (plateaus allowed, never a clear rebound).
    cm = tiny_cm(seed=6, lr=0.01)
    rng = np.random.default_rng(9)
    pairs = []
    for a in range(ACTIONS):
        s = rand_state(rng)
        pairs.append((s, a, rand_state(rng)))
    buf = ReplayBuffer(kind="real")
    for s, a, s2 in pairs * 10:
        buf.append(Experience(s, a, 0.0, 0, s2, False))

    def mean_err():
        return float(np.mean([prediction_error(cm, s, a, s2) for s, a, s2 in pairs]))

    train_rng = np.random.default_rng(0)
    checkpoints = [mean_err()]
    for _ in range(6):
        for _ in range(100):
            cm.train(buf, None, n_batches=1, rng=train_rng)
        checkpoints.append(mean_err())
    # plateaus (and noise-floor wiggle) allowed, clear rebounds are not
    tolerance = 0.01 * checkpoints[0]
    for before, after in zip(checkpoints, checkpoints[1:]):
        assert after <= before + tolerance
    assert checkpoints[-1] < 0.1 * checkpoints[0]


def test_training_mixes_both_buffers():
    cm = tiny_cm(seed=8, lr=0.01)
    rng = np.random.default_rng(3)
    real = ReplayBuffer(kind="real")
    sim = ReplayBuffer(kind="simulated")
    real_next = rand_state(rng)
    sim_next = rand_state(rng)
    for _ in range(30):
        real.append(Experience(np.zeros(STATE), 0, 0.0, 0, real_next, False))
        sim.append(Experience(np.ones(STATE), 1, 0.0, 0, sim_next, False))
    train_rng = np.random.default_rng(0)
    for _ in range(300):
        cm.train(real, sim, n_batches=2, rng=train_rng)
    # both patterns were learned, so both errors are small
    assert prediction_error(cm, np.zeros(STATE), 0, real_next) < 0.5
    assert prediction_error(cm, np.ones(STATE), 1, sim_next) < 0.5


def test_phi_is_the_shared_state_encoding():
    # The encoding used for curiosity targets is encode_state itself:
    # experiences store its output, bit for bit.
    state = DialogState(turn=2)
    v1 = encode_state(state)
    v2 = encode_state(state)
    assert v1.dtype == np.float64 and np.array_equal(v1, v2)
