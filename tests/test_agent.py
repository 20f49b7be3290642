import numpy as np
import pytest

from dialogrl.agent import DqnAgent, Experience, ReplayBuffer
from dialogrl.env import STATE_DTYPE, stored_states
from dialogrl.errors import ShapeError


def make_exp(rng, state_dim=129, n_actions=29, n_user=35, done=False, r=None, a=None):
    s = (rng.random(state_dim) > 0.5).astype(float)
    s2 = (rng.random(state_dim) > 0.5).astype(float)
    return Experience(
        s=s,
        a=int(rng.integers(n_actions)) if a is None else a,
        r=float(rng.normal()) if r is None else r,
        a_user=int(rng.integers(n_user)),
        s_next=s2,
        done=done,
    )


def test_q_values_shape_and_purity():
    agent = DqnAgent(seed=3)
    s = np.zeros(129)
    q1, q2 = agent.q_values(s), agent.q_values(s)
    assert q1.shape == (29,)
    assert np.isfinite(q1).all()
    assert np.array_equal(q1, q2)


def test_q_values_bad_shape():
    agent = DqnAgent(seed=0)
    with pytest.raises(ShapeError):
        agent.q_values(np.zeros(100))


def test_zero_weight_net_gives_flat_q():
    agent = DqnAgent(seed=0)
    agent.q_net.set_parameter_vector(np.zeros(agent.q_net.theta.size))
    q = agent.q_values(np.ones(129))
    assert np.allclose(q, q[0])


def test_greedy_pick_and_tie_break():
    agent = DqnAgent(seed=0, epsilon=0.0)
    agent.q_net.set_parameter_vector(np.zeros(agent.q_net.theta.size))
    vec = np.zeros(agent.q_net.theta.size)
    vec[-29:] = 0.0
    vec[-29 + 5] = 3.0  # bias peak at action 5
    agent.q_net.set_parameter_vector(vec)
    rng = np.random.default_rng(0)
    assert agent.select_action(np.zeros(129), rng) == 5
    # all-equal Q: lowest index wins
    agent.q_net.set_parameter_vector(np.zeros(agent.q_net.theta.size))
    assert agent.select_action(np.zeros(129), rng) == 0


def test_epsilon_one_is_uniform():
    agent = DqnAgent(seed=1, epsilon=1.0)
    rng = np.random.default_rng(7)
    counts = np.zeros(29)
    n = 100_000
    s = np.zeros(129)
    for _ in range(n):
        counts[agent.select_action(s, rng)] += 1
    freqs = counts / n
    assert np.abs(freqs - 1 / 29).max() <= 0.005


def test_curiosity_selection_arithmetic():
    agent = DqnAgent(seed=0, epsilon=0.0)
    rng = np.random.default_rng(0)

    class FixedAgent(DqnAgent):
        def q_values(self, s):
            q = np.zeros(29)
            q[0], q[1], q[2] = 1.0, 2.0, 0.5
            return q

    fixed = FixedAgent(seed=0, epsilon=0.0)
    c = np.zeros(29)
    c[0], c[2] = 0.1, 3.0
    assert fixed.select_action(np.zeros(129), rng, bonus=c) == 2  # 0.5 + 3.0 wins


def test_curiosity_selection_reduces_to_greedy_with_zero_bonus():
    agent = DqnAgent(seed=4, epsilon=0.05)
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    states = np.random.default_rng(5).random((300, 129)) > 0.5
    trace_greedy = [agent.select_action(s.astype(float), rng_a) for s in states]
    trace_bonus = [agent.select_action(s.astype(float), rng_b, bonus=np.zeros(29)) for s in states]
    assert trace_greedy == trace_bonus


def test_curiosity_selection_constant_shift_invariance():
    agent = DqnAgent(seed=2, epsilon=0.0)
    rng = np.random.default_rng(0)
    s = (np.random.default_rng(1).random(129) > 0.5).astype(float)
    c = np.random.default_rng(2).random(29)
    base = agent.select_action(s, rng, bonus=c)
    shifted = agent.select_action(s, rng, bonus=c + 123.4)
    assert base == shifted


def test_eq1_argmax_matches_brute_force():
    # Property: the selection rule equals a brute-force scan over all 29
    # Q + c sums, lowest index on ties. Runs through the public path.
    rng = np.random.default_rng(31337)
    agent = DqnAgent(seed=0, epsilon=0.0)
    zeros = np.zeros(129)
    for _ in range(10_000):
        q = rng.normal(size=29)
        c = rng.normal(size=29)
        agent.q_values = lambda s, _q=q: _q
        got = agent.select_action(zeros, rng, bonus=c)
        best, best_val = 0, -np.inf
        for i in range(29):
            v = q[i] + c[i]
            if v > best_val:
                best, best_val = i, v
        assert got == best


@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("tied", [False, True])
def test_select_actions_rows_match_select_action(epsilon, tied):
    agent = DqnAgent(seed=6, epsilon=epsilon)
    if tied:  # every Q-value equal: ties break to the lowest index
        agent.q_net.set_parameter_vector(np.zeros(agent.q_net.theta.size))
    states = (np.random.default_rng(8).random((40, 129)) > 0.5).astype(float)
    for bonus in (None, np.random.default_rng(9).random((40, 29))):
        batch_rngs = [np.random.default_rng([21, i]) for i in range(40)]
        row_rngs = [np.random.default_rng([21, i]) for i in range(40)]
        for _ in range(3):  # repeated turns keep each row on its own stream
            got = agent.select_actions(states, batch_rngs, bonus)
            want = [agent.select_action(states[i], row_rngs[i],
                                        bonus=None if bonus is None else bonus[i])
                    for i in range(40)]
            assert got.tolist() == want
            if tied and epsilon == 0.0 and bonus is None:
                assert want == [0] * 40


def test_select_actions_bonus_shape_checked():
    agent = DqnAgent(seed=0)
    with pytest.raises(ShapeError):
        agent.select_actions(np.zeros((2, 129)), [np.random.default_rng(0)] * 2, np.zeros(29))


def test_replay_buffer_fifo_eviction():
    buf = ReplayBuffer(capacity=5000)
    rng = np.random.default_rng(0)
    exps = [make_exp(rng, state_dim=4, n_actions=3, n_user=3) for _ in range(5001)]
    for e in exps:
        buf.append(e)
    assert len(buf) == 5000
    assert buf[0] is exps[1]
    assert buf[-1] is exps[-1]


def test_replay_buffer_matches_list_oracle():
    rng = np.random.default_rng(42)
    capacity = 50
    buf = ReplayBuffer(capacity=capacity)
    oracle = []
    for step in range(10_000):
        e = make_exp(rng, state_dim=2, n_actions=3, n_user=3)
        buf.append(e)
        oracle.append(e)
        if len(oracle) > capacity:
            oracle.pop(0)
        if step % 997 == 0:
            assert len(buf) == len(oracle)
            assert all(buf[i] is oracle[i] for i in range(len(oracle)))
    assert [buf[i] for i in range(len(buf))] == oracle


def test_replay_buffer_kind_validation():
    with pytest.raises(ValueError):
        ReplayBuffer(kind="imaginary")


def test_update_empty_buffer_is_noop():
    agent = DqnAgent(seed=0)
    before = agent.q_net.parameter_vector()
    out = agent.update(ReplayBuffer(), n_batches=3, rng=np.random.default_rng(0))
    assert out is None
    assert np.array_equal(before, agent.q_net.parameter_vector())


def test_batch_targets_terminal_and_bootstrap():
    agent = DqnAgent(state_dim=4, n_actions=3, hidden=5, gamma=0.9, seed=0)
    # target net with zero weights and bias so max target-Q = 10
    vec = np.zeros(agent.target_net.theta.size)
    vec[-3:] = [10.0, 1.0, 0.0]
    agent.target_net.set_parameter_vector(vec)
    terminal = Experience(np.zeros(4), 1, 80.0, 0, np.zeros(4), True)
    ongoing = Experience(np.zeros(4), 2, -1.0, 0, np.zeros(4), False)
    _, targets, mask = agent.batch_targets([terminal, ongoing])
    assert targets[0, 1] == 80.0
    assert targets[1, 2] == pytest.approx(-1.0 + 0.9 * 10.0)  # y = 8
    assert mask[0, 1] == 1.0 and mask.sum() == 2.0


@pytest.mark.parametrize("n_batches", [1, 6, 70])  # 70 spans three gathered chunks
def test_update_matches_per_minibatch_reference(n_batches):
    # Reference: sample, build targets with a 16-row target-net forward and
    # step, one minibatch at a time. A target r + 0.9 * max Q is summed in
    # float64 and rounded once to the Q-net's float32, as ``batch_targets`` states.
    import copy

    from dialogrl.nets import TrainBatch

    agent = DqnAgent(seed=4, learning_rate=0.01)
    rng = np.random.default_rng(8)
    buf = ReplayBuffer()
    for i in range(300):
        buf.append(make_exp(rng, done=i % 7 == 0))
    agent.target_net.theta += rng.normal(0, 0.1, agent.target_net.theta.size)  # differ from the Q-net
    ref_q, target = copy.deepcopy(agent.q_net), copy.deepcopy(agent.target_net)
    loss = agent.update(buf, n_batches, np.random.default_rng(2))

    ref_rng = np.random.default_rng(2)
    losses = []
    for _ in range(n_batches):
        exps = [buf[int(i)] for i in ref_rng.integers(0, len(buf), size=16)]
        best_next = target.forward(np.stack([e.s_next for e in exps]))["q"].max(axis=1)
        targets, mask = np.zeros((16, 29)), np.zeros((16, 29))
        for row, (e, b) in enumerate(zip(exps, best_next)):
            targets[row, e.a] = e.r if e.done else e.r + 0.9 * float(b)
            mask[row, e.a] = 1.0
        batch = TrainBatch(np.stack([e.s for e in exps]), {"q": targets}, {"q": mask})
        losses.append(ref_q.train_minibatch(batch, 0.01))
    assert loss == float(np.mean(losses))
    assert agent.step_count == n_batches
    assert agent.q_net.theta.tobytes() == ref_q.theta.tobytes()
    assert agent.q_net.acc.tobytes() == ref_q.acc.tobytes()
    assert agent.target_net.theta.tobytes() == target.theta.tobytes()


def test_learners_train_to_the_same_bits_on_float16_states():
    # Stored states are float16; a learner that computed on them instead of
    # on their float64 casts would drift from the float64 copies' bits.
    from dialogrl.curiosity import CuriosityModel
    from dialogrl.world import WorldModel

    rng = np.random.default_rng(6)
    exps = [make_exp(rng, done=i % 7 == 0) for i in range(300)]
    outs = []
    for cast in (stored_states, lambda s: s.astype(np.float64)):
        real, sim = ReplayBuffer(kind="real"), ReplayBuffer(kind="simulated")
        for i, e in enumerate(exps):
            (real if i % 3 else sim).append(Experience(cast(e.s), e.a, e.r, e.a_user, cast(e.s_next), e.done))
        assert real[0].s.dtype == (STATE_DTYPE if cast is stored_states else np.float64)
        agent, wm, cm = DqnAgent(seed=4), WorldModel(seed=5), CuriosityModel(seed=6)
        losses = [agent.update(real, 40, np.random.default_rng(1)), wm.train(real, 40, np.random.default_rng(2)),
                  cm.train(real, sim, 40, np.random.default_rng(3))]
        outs.append((losses, [(net.theta.tobytes(), net.acc.tobytes())
                              for net in (agent.q_net, wm.net, cm.net)]))
    assert outs[0] == outs[1]


def test_update_converges_to_fixed_point():
    agent = DqnAgent(state_dim=6, n_actions=4, hidden=8, gamma=0.9, seed=1, learning_rate=0.01)
    s = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    exp = Experience(s, 2, 5.0, 0, np.zeros(6), True)
    buf = ReplayBuffer()
    buf.append(exp)
    rng = np.random.default_rng(0)
    for _ in range(400):
        agent.update(buf, n_batches=1, rng=rng)
    assert abs(agent.q_values(s)[2] - 5.0) < 0.01


def test_update_never_touches_target_net():
    agent = DqnAgent(seed=0)
    rng = np.random.default_rng(1)
    buf = ReplayBuffer()
    for _ in range(40):
        buf.append(make_exp(rng))
    target_before = agent.target_net.parameter_vector()
    agent.update(buf, n_batches=5, rng=rng)
    assert np.array_equal(target_before, agent.target_net.parameter_vector())
    assert not np.array_equal(target_before, agent.q_net.parameter_vector())


def test_sync_target_copies_and_is_idempotent():
    agent = DqnAgent(seed=0)
    rng = np.random.default_rng(2)
    buf = ReplayBuffer()
    for _ in range(40):
        buf.append(make_exp(rng))
    agent.update(buf, n_batches=2, rng=rng)
    assert not np.array_equal(agent.q_net.parameter_vector(), agent.target_net.parameter_vector())
    agent.sync_target()
    assert np.array_equal(agent.q_net.parameter_vector(), agent.target_net.parameter_vector())
    once = agent.target_net.parameter_vector()
    agent.sync_target()
    assert np.array_equal(once, agent.target_net.parameter_vector())


def test_agent_checkpoint_roundtrip(tmp_path):
    agent = DqnAgent(seed=9, epsilon=0.2)
    rng = np.random.default_rng(3)
    buf = ReplayBuffer()
    for _ in range(30):
        buf.append(make_exp(rng))
    agent.update(buf, n_batches=2, rng=rng)
    path = tmp_path / "agent.json"
    agent.save(path)
    loaded = DqnAgent.load(path)
    assert loaded.epsilon == agent.epsilon
    s = np.ones(129)
    assert np.array_equal(loaded.q_values(s), agent.q_values(s))
    assert np.array_equal(
        loaded.target_net.parameter_vector(), agent.target_net.parameter_vector()
    )
