"""Forward, backward, layout, and checkpoint behavior of the networks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiscalforge.errors import ArtifactError, ContractError, NumericError
from fiscalforge.neural_core import (
    ActorPolicy,
    MlpSpec,
    _backward,
    _forward_cached,
    export_json,
    forward_actor,
    forward_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    unflatten,
    vjp_batch,
)


def _join(layers):
    """The flat parameter vector of unflatten's views: W then b, layer by layer."""
    return np.concatenate([np.ravel(part) for layer in layers for part in layer])


class TestMlpSpec:
    def test_param_count_formula(self):
        """spec (3, [8], 2) -> 3*8+8 + 8*2+2 = 50."""
        assert MlpSpec(3, (8,), 2, "simplex").param_count() == 50

    def test_requires_hidden_layer(self):
        with pytest.raises(ContractError):
            MlpSpec(3, (), 2, "simplex")

    def test_rejects_unknown_head(self):
        with pytest.raises(ContractError):
            MlpSpec(3, (4,), 2, "sigmoid")


class TestInitParams:
    def test_deterministic_per_seed(self):
        spec = MlpSpec(3, (8,), 2, "simplex")
        np.testing.assert_array_equal(init_params(spec, 1), init_params(spec, 1))

    def test_seeds_differ(self):
        spec = MlpSpec(3, (8,), 2, "simplex")
        assert np.any(init_params(spec, 1) != init_params(spec, 2))

    def test_biases_zero_and_weights_bounded(self):
        spec = MlpSpec(4, (6,), 3, "linear")
        layers = unflatten(init_params(spec, 5), spec)
        for w, b in layers:
            np.testing.assert_array_equal(b, 0.0)
            limit = math.sqrt(6.0 / (w.shape[1] + w.shape[0]))
            assert np.all(np.abs(w) <= limit)

    def test_length_matches_spec(self):
        spec = MlpSpec(3, (8,), 2, "simplex")
        assert init_params(spec, 0).size == spec.param_count()


class TestForward:
    def test_zero_params_give_uniform_allocation(self):
        spec = MlpSpec(3, (8,), 2, "simplex")
        out = forward_actor(np.zeros(spec.param_count()), spec, np.zeros(3))
        np.testing.assert_allclose(out, [0.5, 0.5], atol=0)

    def test_zero_params_give_zero_value(self):
        spec = MlpSpec(5, (8,), 1, "linear")
        q = forward_batch(np.zeros(spec.param_count()), spec, np.zeros((1, 5)))
        assert q[0, 0] == 0.0

    def test_simplex_output_sums_to_one(self):
        rng = np.random.default_rng(17)
        spec = MlpSpec(3, (6, 5), 2, "simplex")
        for _ in range(50):
            params = rng.normal(0, 2.0, size=spec.param_count())
            out = forward_actor(params, spec, rng.normal(size=3))
            assert abs(out.sum() - 1.0) <= 1e-12
            assert np.all(out >= 0.0)

    def test_hand_computed_actor(self):
        """One tanh unit, hand-set weights, worked end to end by hand."""
        spec = MlpSpec(1, (1,), 2, "simplex")
        params = np.array([2.0, 0.1, 1.5, -0.5, 0.2, -0.1])
        h = math.tanh(2.0 * 0.5 + 0.1)
        e1, e2 = math.exp(1.5 * h + 0.2), math.exp(-0.5 * h - 0.1)
        expected = np.array([e1, e2]) / (e1 + e2)
        got = forward_actor(params, spec, np.array([0.5]))
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_hand_computed_critic(self):
        spec = MlpSpec(2, (1,), 1, "linear")
        params = np.array([0.3, -0.7, 0.25, 1.2, -0.4])
        expected = 1.2 * math.tanh(0.3 * 0.8 - 0.7 * 0.6 + 0.25) - 0.4
        got = forward_batch(params, spec, np.array([[0.8, 0.6]]))[0, 0]
        assert got == pytest.approx(expected, abs=1e-15)

    def test_linear_head_scales_with_last_layer(self):
        rng = np.random.default_rng(3)
        spec = MlpSpec(4, (5,), 1, "linear")
        params = rng.normal(size=spec.param_count())
        layers = unflatten(params, spec)
        doubled = [(w.copy(), b.copy()) for w, b in layers]
        doubled[-1] = (2.0 * doubled[-1][0], 2.0 * doubled[-1][1])
        x = rng.normal(size=(1, 4))
        assert forward_batch(_join(doubled), spec, x)[0, 0] == pytest.approx(
            2.0 * forward_batch(params, spec, x)[0, 0], rel=1e-12
        )

    def test_head_contract_enforced(self):
        lin = MlpSpec(3, (4,), 2, "linear")
        with pytest.raises(ContractError):
            forward_actor(np.zeros(lin.param_count()), lin, np.zeros(3))

    def test_non_finite_params_raise(self):
        spec = MlpSpec(3, (4,), 2, "simplex")
        params = np.zeros(spec.param_count())
        params[0] = np.nan
        with pytest.raises(NumericError):
            forward_actor(params, spec, np.ones(3))


def _grad(params, spec, x, upstream):
    """Parameter gradient of upstream . forward(params) at one input row."""
    return vjp_batch(params, spec, x[None, :], upstream[None, :])[0]


def _fd_gradient(params, spec, x, upstream, h=1e-5):
    """Central finite differences of upstream . forward(params)."""
    grad = np.zeros_like(params)
    for j in range(params.size):
        plus, minus = params.copy(), params.copy()
        plus[j] += h
        minus[j] -= h
        f_plus = float((forward_batch(plus, spec, x[None, :])[0] * upstream).sum())
        f_minus = float((forward_batch(minus, spec, x[None, :])[0] * upstream).sum())
        grad[j] = (f_plus - f_minus) / (2.0 * h)
    return grad


class TestBackward:
    @pytest.mark.parametrize(
        "spec",
        [MlpSpec(3, (4,), 2, "simplex"), MlpSpec(5, (4, 3), 1, "linear")],
        ids=["simplex", "linear"],
    )
    def test_matches_finite_differences(self, spec):
        """Analytic gradient vs central differences on 20 random nets."""
        rng = np.random.default_rng(99)
        for _ in range(20):
            params = rng.normal(0, 0.8, size=spec.param_count())
            x = rng.normal(size=spec.input_dim)
            upstream = rng.normal(size=spec.output_dim)
            analytic = _grad(params, spec, x, upstream)
            numeric = _fd_gradient(params, spec, x, upstream)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err <= 1e-4

    def test_zero_upstream_gives_zero_gradient(self):
        spec = MlpSpec(3, (4,), 2, "simplex")
        params = np.random.default_rng(0).normal(size=spec.param_count())
        grad = _grad(params, spec, np.ones(3), np.zeros(2))
        np.testing.assert_array_equal(grad, 0.0)

    def test_simplex_head_gradient_orthogonal_to_ones(self):
        """The output-layer bias gradient (the logit gradient) sums to zero."""
        spec = MlpSpec(3, (4,), 2, "simplex")
        rng = np.random.default_rng(1)
        params = rng.normal(size=spec.param_count())
        grad = _grad(params, spec, rng.normal(size=3), rng.normal(size=2))
        bias_grad = unflatten(grad, spec)[-1][1]
        assert abs(bias_grad.sum()) <= 1e-12

    def test_shape_mismatch(self):
        spec = MlpSpec(3, (4,), 2, "simplex")
        params = np.zeros(spec.param_count())
        with pytest.raises(ContractError):
            vjp_batch(params, spec, np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(ContractError):
            vjp_batch(params, spec, np.zeros((1, 4)), np.zeros((1, 2)))


class TestFlatten:
    def test_round_trip_identity(self):
        spec = MlpSpec(3, (5, 4), 2, "simplex")
        params = np.random.default_rng(8).normal(size=spec.param_count())
        assert _join(unflatten(params, spec)).tobytes() == params.tobytes()

    def test_single_index_maps_to_single_weight(self):
        spec = MlpSpec(3, (5,), 2, "linear")
        params = np.zeros(spec.param_count())
        for j in [0, 7, 15, 20, spec.param_count() - 1]:
            bumped = params.copy()
            bumped[j] = 1.0
            changed = [
                int((w != 0).sum() + (b != 0).sum())
                for w, b in unflatten(bumped, spec)
            ]
            assert sum(changed) == 1

    def test_wrong_length_rejected(self):
        spec = MlpSpec(3, (5,), 2, "linear")
        with pytest.raises(ContractError):
            unflatten(np.zeros(spec.param_count() + 1), spec)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        spec = MlpSpec(3, (64, 64), 2, "simplex")
        params = init_params(spec, 4)
        path = tmp_path / "actor.ckpt"
        save_checkpoint(path, spec, params)
        loaded_spec, loaded_params = load_checkpoint(path)
        assert loaded_spec == spec
        np.testing.assert_array_equal(loaded_params, params)

    def test_byte_deterministic(self, tmp_path):
        spec = MlpSpec(3, (8,), 2, "simplex")
        params = init_params(spec, 4)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, spec, params)
        save_checkpoint(p2, spec, params)
        assert p1.read_bytes() == p2.read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ArtifactError):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        spec = MlpSpec(3, (8,), 2, "simplex")
        path = tmp_path / "trunc.ckpt"
        save_checkpoint(path, spec, init_params(spec, 4))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ArtifactError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_count_top_bit_flip_rejected(self, tmp_path):
        """A parameter count past 2**63 is a corrupt header, not an OverflowError."""
        spec = MlpSpec(3, (8,), 2, "simplex")
        path = tmp_path / "flip.ckpt"
        save_checkpoint(path, spec, init_params(spec, 4))
        blob = bytearray(path.read_bytes())
        blob[_header_size(spec) - 1] ^= 0x80  # the little-endian count's top byte
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            load_checkpoint(path)

    def test_json_export(self, tmp_path):
        import json

        spec = MlpSpec(1, (1,), 2, "simplex")
        params = np.array([2.0, 0.1, 1.5, -0.5, 0.2, -0.1])
        path = tmp_path / "actor.json"
        export_json(path, spec, params)
        doc = json.loads(path.read_text())
        assert doc["hidden_dims"] == [1]
        assert doc["params"] == params.tolist()


class TestForwardActorProperty:
    """forward_actor is forward_population's one-row call; a one-row forward_batch,
    the per-row pass it replaced, is the independent reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        hidden=st.one_of(st.lists(st.integers(1, 64), min_size=1, max_size=3).map(tuple),
                         st.just((64, 64))),
        seed=st.integers(0, 2**32 - 1),
        scale=st.one_of(st.floats(1e-3, 30.0), st.sampled_from([1e150, 1e300])),
        state=st.lists(st.one_of(st.floats(-10.0, 10.0),
                                 st.sampled_from([0.0, 1e300, np.inf, np.nan])),
                       min_size=3, max_size=3),
    )
    def test_bit_identical_to_a_one_row_forward_batch(self, hidden, seed, scale, state):
        spec = MlpSpec(3, hidden, 2, "simplex")
        params = scale * np.random.default_rng(seed).normal(size=spec.param_count())
        state = np.array(state)
        with np.errstate(all="ignore"):
            expected = forward_batch(params, spec, state[None])[0]
        if np.all(np.isfinite(expected)):
            assert forward_actor(params, spec, state).tobytes() == expected.tobytes()
        else:
            with pytest.raises(NumericError):
                forward_actor(params, spec, state)


class TestActorPolicy:
    def test_act_matches_forward(self):
        spec = MlpSpec(3, (4,), 2, "simplex")
        params = init_params(spec, 12)
        states = np.array([[0.1, 0.2, 0.3], [-0.4, 0.0, 0.9], [0.5, 0.5, -0.2]])
        np.testing.assert_array_equal(
            ActorPolicy(spec, params).act(states),
            [forward_batch(params, spec, state[None])[0] for state in states],
        )


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize(
    "call",
    [
        lambda spec, params, tmp: forward_actor(params, spec, np.zeros(spec.input_dim)),
        lambda spec, params, tmp: save_checkpoint(tmp / "net.ckpt", spec, params),
        lambda spec, params, tmp: export_json(tmp / "net.json", spec, params),
    ],
    ids=["forward_actor", "save_checkpoint", "export_json"],
)
def test_one_network_entry_points_reject_a_stack(call, k, tmp_path):
    spec = MlpSpec(3, (4,), 2, "simplex")
    stack = np.stack([init_params(spec, seed) for seed in range(k)])
    with pytest.raises(ContractError):
        call(spec, stack, tmp_path)


_specs = st.builds(
    MlpSpec,
    input_dim=st.integers(1, 6),
    hidden_dims=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
    output_dim=st.integers(1, 4),
    output_head=st.sampled_from(["simplex", "linear"]),
)


def _any_bits(spec, seed):
    """A parameter vector of arbitrary float64 bit patterns (NaNs, -0.0, subnormals)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=spec.param_count(), dtype=np.uint64).view(np.float64)


def _header_size(spec):
    return 4 + 4 + 1 + 4 + 4 + 4 * len(spec.hidden_dims) + 4 + 8


class TestRoundTripProperties:
    """Layout and persistence keep every bit of every parameter."""

    @settings(max_examples=100, deadline=None)
    @given(spec=_specs, seed=st.integers(0, 2**32 - 1))
    def test_unflatten_flatten_bit_exact(self, spec, seed):
        params = _any_bits(spec, seed)
        assert _join(unflatten(params, spec)).tobytes() == params.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(spec=_specs, seed=st.integers(0, 2**32 - 1))
    def test_checkpoint_bit_exact(self, spec, seed, tmp_path_factory):
        params = _any_bits(spec, seed)
        path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
        save_checkpoint(path, spec, params)
        loaded_spec, loaded = load_checkpoint(path)
        assert loaded_spec == spec
        assert loaded.dtype == np.float64
        assert loaded.tobytes() == params.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(spec=_specs, seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_corrupt_checkpoint_raises_only_artifact_error(
        self, spec, seed, data, tmp_path_factory
    ):
        """Truncated or byte-flipped, the file loads or raises ArtifactError."""
        path = tmp_path_factory.mktemp("ckpt") / "net.ckpt"
        save_checkpoint(path, spec, _any_bits(spec, seed))
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            # Half of the flipped bytes lie in the header, where they change the layout.
            limit = data.draw(st.sampled_from([_header_size(spec), len(blob)]))
            pos = data.draw(st.integers(0, limit - 1), label="byte")
            blob[pos] ^= data.draw(st.integers(1, 255), label="bits")
        path.write_bytes(bytes(blob))
        try:
            load_checkpoint(path)
        except ArtifactError:
            pass


class TestParameterStacks:
    """A (K, P) stack through the kernel is K one-network passes, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        spec=st.builds(
            MlpSpec,
            input_dim=st.integers(1, 6),
            hidden_dims=st.lists(st.integers(1, 64), min_size=1, max_size=3).map(tuple),
            output_dim=st.integers(1, 4),
            output_head=st.sampled_from(["simplex", "linear"]),
        ),
        k=st.integers(1, 4),
        n=st.sampled_from([1, 2, 17, 64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_each_row_equals_the_single_network(self, spec, k, n, seed):
        rng = np.random.default_rng(seed)
        stack = rng.normal(0, 0.8, size=(k, spec.param_count()))
        x = rng.normal(size=(n, spec.input_dim))
        upstream = rng.normal(size=(k, n, spec.output_dim))
        y, cache = _forward_cached(stack, spec, x)
        grad, x_grad = _backward(spec, cache, upstream)
        assert y.shape == (k, n, spec.output_dim)
        assert grad.shape == stack.shape
        for row in range(k):
            y_row, cache_row = _forward_cached(stack[row], spec, x)
            grad_row, x_grad_row = _backward(spec, cache_row, upstream[row])
            np.testing.assert_array_equal(y[row], y_row)
            np.testing.assert_array_equal(grad[row], grad_row)
            np.testing.assert_array_equal(x_grad[row], x_grad_row)
