import json

import numpy as np
import pytest

from dialogrl.agent import DqnAgent
from dialogrl.nets import (
    HeadSpec,
    LayerSpec,
    MlpModel,
    MlpSpec,
    TrainBatch,
    analytic_gradient,
    mlp_new,
    numerical_gradient,
    single_head_spec,
)
from dialogrl.errors import FormatError, NumericError, ShapeError, SpecError


def q_net_spec():
    return single_head_spec(129, [80], 29, output_activation="linear", loss="mse", name="q")


def random_multihead_spec(rng):
    d_in = int(rng.integers(2, 6))
    trunk = int(rng.integers(2, 6))
    shared = [LayerSpec(d_in, trunk, "tanh")]
    heads = []
    k = int(rng.integers(2, 5))
    heads.append(HeadSpec("clf", [LayerSpec(trunk, 4, "tanh"), LayerSpec(4, k, "softmax")], "cross_entropy"))
    heads.append(HeadSpec("reg", [LayerSpec(trunk, 3, "tanh"), LayerSpec(3, 2, "linear")], "mse"))
    heads.append(HeadSpec("bin", [LayerSpec(trunk, 1, "sigmoid")], "binary_cross_entropy"))
    return MlpSpec(shared, heads).validate(), d_in, k


def random_batch_for(spec_info, rng, masked=False):
    spec, d_in, k = spec_info
    n = int(rng.integers(2, 6))
    x = rng.normal(size=(n, d_in))
    onehot = np.zeros((n, k))
    onehot[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    targets = {
        "clf": onehot,
        "reg": rng.normal(size=(n, 2)),
        "bin": rng.integers(0, 2, size=(n, 1)).astype(float),
    }
    masks = {}
    if masked:
        m = np.zeros((n, 2))
        m[np.arange(n), rng.integers(0, 2, size=n)] = 1.0
        masks["reg"] = m
    return TrainBatch(np.asarray(x), targets, masks)


def test_q_net_parameter_count():
    # 129*80 + 80 hidden parameters plus 80*29 + 29 output parameters
    model = mlp_new(q_net_spec(), seed=0)
    expected = 129 * 80 + 80 + 80 * 29 + 29
    assert model.theta.size == expected == 12749


def test_same_seed_same_parameters():
    a = mlp_new(q_net_spec(), seed=5)
    b = mlp_new(q_net_spec(), seed=5)
    assert np.array_equal(a.parameter_vector(), b.parameter_vector())
    c = mlp_new(q_net_spec(), seed=6)
    assert not np.array_equal(a.parameter_vector(), c.parameter_vector())


def test_zero_fan_in_rejected():
    with pytest.raises(SpecError):
        LayerSpec(0, 4, "tanh").validate()


def test_loss_activation_pairing_enforced():
    with pytest.raises(SpecError):
        HeadSpec("h", [LayerSpec(3, 2, "linear")], "cross_entropy").validate()
    with pytest.raises(SpecError):
        HeadSpec("h", [LayerSpec(3, 2, "softmax")], "mse").validate()


def test_forward_zero_weights_returns_bias():
    model = mlp_new(single_head_spec(4, [], 3, "linear", "mse"), seed=0)
    model.set_parameter_vector(np.zeros(model.theta.size))
    w_size = 4 * 3
    vec = np.zeros(model.theta.size)
    vec[w_size:] = [1.5, -2.0, 0.25]
    model.set_parameter_vector(vec)
    out = model.forward(np.ones((2, 4)))["out"]
    assert np.allclose(out, [[1.5, -2.0, 0.25]] * 2)


def test_forward_softmax_rows_sum_to_one():
    spec = single_head_spec(6, [5], 4, "softmax", "cross_entropy")
    model = mlp_new(spec, seed=3)
    rng = np.random.default_rng(0)
    out = model.forward(rng.normal(size=(7, 6)))["out"]
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert (out > 0).all()


def test_forward_sigmoid_in_unit_interval():
    spec = single_head_spec(3, [4], 2, "sigmoid", "binary_cross_entropy")
    model = mlp_new(spec, seed=1)
    out = model.forward(np.random.default_rng(1).normal(size=(5, 3)))["out"]
    assert ((out > 0) & (out < 1)).all()


def test_forward_hand_computed_tiny_net():
    # 2 -> 2 tanh -> 1 linear with hand-set weights; expected value computed
    # by hand: h = tanh(x @ W1 + b1), y = h @ W2 + b2.
    spec = single_head_spec(2, [2], 1, "linear", "mse")
    model = mlp_new(spec, seed=0)
    w1 = np.array([[0.1, -0.2], [0.3, 0.4]])
    b1 = np.array([0.05, -0.05])
    w2 = np.array([[0.7], [-0.6]])
    b2 = np.array([0.2])
    model.set_parameter_vector(np.concatenate([w1.ravel(), b1, w2.ravel(), b2]))
    x = np.array([[1.0, 2.0]])
    h = np.tanh(x @ w1 + b1)
    want = h @ w2 + b2
    got = model.forward(x)["out"]
    assert np.allclose(got, want, atol=1e-12)


def test_forward_width_mismatch():
    model = mlp_new(q_net_spec(), seed=0)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((2, 128)))


def test_forward_is_pure():
    model = mlp_new(q_net_spec(), seed=0)
    x = np.random.default_rng(2).normal(size=(3, 129))
    before = model.parameter_vector()
    a = model.forward(x)["q"]
    b = model.forward(x)["q"]
    assert np.array_equal(a, b)
    assert np.array_equal(before, model.parameter_vector())


def test_gradients_match_finite_differences():
    # Core oracle: backprop vs central differences on >= 20 random nets.
    rng = np.random.default_rng(1234)
    for trial in range(20):
        spec_info = random_multihead_spec(rng)
        model = mlp_new(spec_info[0], seed=int(rng.integers(1 << 30)))
        batch = random_batch_for(spec_info, rng, masked=(trial % 3 == 0))
        got = analytic_gradient(model, batch)
        want = numerical_gradient(model, batch, h=1e-5)
        scale = np.maximum(np.abs(want), 1.0)
        rel = np.abs(got - want) / scale
        assert rel.max() <= 1e-4, f"trial {trial}: max rel err {rel.max():.2e}"


def test_gradients_without_trunk_match_finite_differences():
    # A net with no shared layers (the Q-net's layout) skips its input gradient.
    rng = np.random.default_rng(77)
    for hidden in ([], [4], [5, 3]):
        model = mlp_new(single_head_spec(6, hidden, 3, name="q"), seed=int(rng.integers(1 << 30)))
        mask = np.zeros((5, 3))
        mask[np.arange(5), rng.integers(0, 3, size=5)] = 1.0
        batch = TrainBatch(rng.normal(size=(5, 6)), {"q": rng.normal(size=(5, 3))}, {"q": mask})
        got = analytic_gradient(model, batch)
        want = numerical_gradient(model, batch, h=1e-5)
        assert (np.abs(got - want) / np.maximum(np.abs(want), 1.0)).max() <= 1e-4


def test_training_converges_on_fixed_regression_batch():
    spec = single_head_spec(3, [8], 1, "linear", "mse")
    model = mlp_new(spec, seed=7)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 1))
    batch = TrainBatch(x, {"out": y})
    initial = model.loss(batch)
    for _ in range(200):
        model.train_minibatch(batch, learning_rate=0.01)
    assert model.loss(batch) < 0.01 * initial


def test_zero_learning_rate_is_a_null_update():
    model = mlp_new(q_net_spec(), seed=0)
    x = np.random.default_rng(3).normal(size=(4, 129))
    batch = TrainBatch(x, {"q": np.zeros((4, 29))})
    before = model.parameter_vector()
    model.train_minibatch(batch, learning_rate=0.0)
    assert np.array_equal(before, model.parameter_vector())


def test_parameters_stay_finite_under_training():
    spec_info = random_multihead_spec(np.random.default_rng(5))
    model = mlp_new(spec_info[0], seed=2)
    rng = np.random.default_rng(8)
    for _ in range(50):
        model.train_minibatch(random_batch_for(spec_info, rng), learning_rate=0.01)
    assert np.isfinite(model.theta).all()


def test_flat_rmsprop_step_matches_per_layer_reference():
    spec_info = random_multihead_spec(np.random.default_rng(11))
    model = mlp_new(spec_info[0], seed=4)
    # Per-layer copies of the parameters and accumulators, in parameter order.
    layers = list(model.shared_params) + [p for h in spec_info[0].heads for p in model.head_params[h.name]]
    params = [a.copy() for pair in layers for a in pair]
    accs = [np.zeros_like(a) for a in params]
    rng = np.random.default_rng(12)
    lr, rho, eps = 0.01, 0.9, 1e-8
    for _ in range(5):
        batch = random_batch_for(spec_info, rng, masked=True)
        flat = analytic_gradient(model, batch)
        grads = np.split(flat, np.cumsum([a.size for a in params])[:-1])
        for p, acc, g in zip(params, accs, grads):
            g = g.reshape(p.shape)
            acc *= rho
            acc += (1.0 - rho) * g ** 2
            p -= lr * g / np.sqrt(acc + eps)
        model.train_minibatch(batch, learning_rate=lr, rho=rho, eps=eps)
        assert model.parameter_vector().tobytes() == np.concatenate([p.ravel() for p in params]).tobytes()
        assert model.acc.tobytes() == np.concatenate([a.ravel() for a in accs]).tobytes()


def test_layer_views_share_the_flat_vectors_after_pickling():
    import pickle

    spec_info = random_multihead_spec(np.random.default_rng(13))
    model = pickle.loads(pickle.dumps(mlp_new(spec_info[0], seed=5)))
    rng = np.random.default_rng(14)
    model.train_minibatch(random_batch_for(spec_info, rng), learning_rate=0.01)
    w, b = model.shared_params[0]
    assert np.shares_memory(w, model.theta) and np.shares_memory(b, model.theta)
    assert np.shares_memory(model.head_acc["bin"][0][0], model.acc)
    assert np.array_equal(model.parameter_vector()[:w.size], w.ravel())


def test_non_finite_loss_raises():
    model = mlp_new(single_head_spec(2, [], 1, "linear", "mse"), seed=0)
    batch = TrainBatch(np.array([[np.inf, 1.0]]), {"out": np.array([[0.0]])})
    with pytest.raises(NumericError):
        model.train_minibatch(batch)


def test_checkpoint_roundtrip():
    spec_info = random_multihead_spec(np.random.default_rng(6))
    model = mlp_new(spec_info[0], seed=3)
    rng = np.random.default_rng(9)
    for _ in range(5):
        model.train_minibatch(random_batch_for(spec_info, rng))
    loaded = MlpModel.from_json(json.loads(json.dumps(model.to_json())))
    assert np.array_equal(loaded.parameter_vector(), model.parameter_vector())
    x = rng.normal(size=(3, spec_info[1]))
    for name, out in model.forward(x).items():
        assert np.array_equal(out, loaded.forward(x)[name])
    # RMSProp state restored too: another step matches exactly
    b = random_batch_for(spec_info, rng)
    assert model.train_minibatch(b) == loaded.train_minibatch(b)
    assert np.array_equal(model.parameter_vector(), loaded.parameter_vector())


def test_checkpoint_truncated_file(tmp_path):
    agent = DqnAgent(state_dim=129, n_actions=29, seed=0)
    path = tmp_path / "agent.json"
    agent.save(path)
    path.write_text(path.read_text()[: 200])
    with pytest.raises(FormatError):
        DqnAgent.load(path)


def test_checkpoint_spec_hash_mismatch():
    obj = mlp_new(q_net_spec(), seed=0).to_json()
    obj["spec_digest"] = "deadbeefdeadbeef"
    with pytest.raises(FormatError, match="deadbeef"):
        MlpModel.from_json(obj)


def test_checkpoint_version_mismatch():
    obj = mlp_new(q_net_spec(), seed=0).to_json()
    obj["format_version"] = 99
    with pytest.raises(FormatError):
        MlpModel.from_json(obj)


def test_clone_is_independent():
    model = mlp_new(q_net_spec(), seed=0)
    twin = model.clone()
    assert np.array_equal(twin.parameter_vector(), model.parameter_vector())
    batch = TrainBatch(np.ones((2, 129)), {"q": np.zeros((2, 29))})
    model.train_minibatch(batch, learning_rate=0.1)
    assert not np.array_equal(twin.parameter_vector(), model.parameter_vector())


def test_float32_net_keeps_its_dtype_through_training_and_clone():
    spec = single_head_spec(6, [5], 3, name="out")
    ref = mlp_new(spec, seed=4)
    net = mlp_new(spec, seed=4, dtype=np.float32)
    # the same float64 draws, cast
    assert net.theta.tobytes() == ref.theta.astype(np.float32).tobytes()
    rng = np.random.default_rng(0)
    batch = TrainBatch(rng.normal(size=(4, 6)), {"out": rng.normal(size=(4, 3))}, {"out": np.ones((4, 3))})
    assert np.isfinite(net.train_minibatch(batch, 0.01))
    assert net.forward(batch.inputs)["out"].dtype == np.float32
    twin = net.clone()
    for model in (net, twin):
        assert {model.theta.dtype, model.acc.dtype, model._grad.dtype, model._tmp.dtype} == {np.dtype(np.float32)}
    assert twin.theta.tobytes() == net.theta.tobytes()
    assert {ref.theta.dtype, ref.acc.dtype} == {np.dtype(np.float64)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saturated_sigmoid_gives_a_finite_bce_loss(dtype):
    # 1 - 1e-12 is 1.0 in float32: a clip by that bound would take log(0)
    net = mlp_new(single_head_spec(3, [], 1, "sigmoid", "binary_cross_entropy"), dtype=dtype)
    net.theta[:] = 20.0
    batch = TrainBatch(np.ones((1, 3)), {"out": np.zeros((1, 1))})
    assert net.forward(batch.inputs)["out"][0, 0] == 1.0
    loss = net.train_minibatch(batch, 0.01)
    assert np.isfinite(loss) and loss > 10.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_keeps_the_nets_dtype(dtype):
    spec_info = random_multihead_spec(np.random.default_rng(6))
    model = mlp_new(spec_info[0], seed=3, dtype=dtype)
    rng = np.random.default_rng(9)
    model.train_minibatch(random_batch_for(spec_info, rng))
    obj = json.loads(json.dumps(model.to_json()))
    assert obj["dtype"] == np.dtype(dtype).name
    loaded = MlpModel.from_json(obj)
    assert {loaded.theta.dtype, loaded.acc.dtype} == {np.dtype(dtype)}
    assert loaded.theta.tobytes() == model.theta.tobytes() and loaded.acc.tobytes() == model.acc.tobytes()


def test_checkpoint_without_a_dtype_loads_as_float64():
    model = mlp_new(q_net_spec(), seed=0)
    obj = model.to_json()
    del obj["dtype"]
    loaded = MlpModel.from_json(obj)
    assert loaded.theta.dtype == np.float64 and loaded.theta.tobytes() == model.theta.tobytes()


@pytest.mark.parametrize("dtype", ["float16", "int64", "", None, ["float32"]])
def test_checkpoint_with_an_unknown_dtype_is_rejected(dtype):
    obj = mlp_new(q_net_spec(), seed=0, dtype=np.float32).to_json()
    obj["dtype"] = dtype
    with pytest.raises(FormatError, match="dtype"):
        MlpModel.from_json(obj)
