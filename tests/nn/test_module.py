"""Tests for the Module base class: registration, modes, state dicts."""

import numpy as np
import pytest

from repro.nn import MLP, Linear, Module, ModuleList, Parameter, Sequential, Tensor


class _ToyModel(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(4, 8, rng=0)
        self.second = Linear(8, 2, rng=0)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.second(self.first(x).relu()) * self.scale


class TestRegistration:
    def test_named_parameters_include_children(self):
        model = _ToyModel()
        names = dict(model.named_parameters()).keys()
        assert "first.weight" in names
        assert "second.bias" in names
        assert "scale" in names

    def test_num_parameters(self):
        model = _ToyModel()
        expected = 4 * 8 + 8 + 8 * 2 + 2 + 1
        assert model.num_parameters() == expected

    def test_modules_iteration(self):
        model = _ToyModel()
        assert len(list(model.modules())) == 3  # model + two Linears

    def test_train_eval_propagates(self):
        model = _ToyModel()
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())


class TestStateDict:
    def test_roundtrip(self):
        model_a = _ToyModel()
        model_b = _ToyModel()
        model_b.load_state_dict(model_a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_allclose(model_a(x).data, model_b(x).data)

    def test_strict_missing_key_raises(self):
        model = _ToyModel()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        model = _ToyModel()
        state = model.state_dict()
        state["scale"] = np.ones(5)
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_non_strict_ignores_extra_keys(self):
        model = _ToyModel()
        state = model.state_dict()
        state["does.not.exist"] = np.ones(1)
        model.load_state_dict(state, strict=False)


class TestFreezing:
    def test_freeze_disables_grads(self):
        model = _ToyModel()
        model.freeze()
        assert all(not p.requires_grad for p in model.parameters())
        model.unfreeze()
        assert all(p.requires_grad for p in model.parameters())

    def test_zero_grad_clears(self):
        model = _ToyModel()
        out = model(Tensor(np.ones((2, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestContainers:
    def test_module_list_registration(self):
        layers = ModuleList([Linear(2, 2, rng=0), Linear(2, 2, rng=0)])
        assert len(layers) == 2
        assert len(list(layers.parameters())) == 4
        assert isinstance(layers[1], Linear)

    def test_module_list_cannot_be_called(self):
        with pytest.raises(RuntimeError):
            ModuleList([Linear(2, 2)])(Tensor(np.ones((1, 2))))

    def test_sequential_chains(self):
        seq = Sequential(Linear(3, 5, rng=0), Linear(5, 2, rng=0))
        out = seq(Tensor(np.ones((4, 3))))
        assert out.shape == (4, 2)
        assert len(seq) == 2

    def test_mlp_is_module(self):
        assert isinstance(MLP([2, 2]), Module)


class TestCast:
    """Module.cast powers the float32 serving path (PR 6)."""

    def _model_with_buffer(self):
        model = Sequential(Linear(3, 5, rng=0), Linear(5, 2, rng=0))
        model.register_buffer("scale", np.linspace(0.0, 1.0, 4))
        return model

    def test_cast_converts_parameters_grads_and_buffers(self):
        model = self._model_with_buffer()
        out = model(Tensor(np.ones((4, 3))))
        out.sum().backward()
        assert model.cast(np.float32) is model
        for param in model.parameters():
            assert param.data.dtype == np.float32
            if param.grad is not None:
                assert param.grad.dtype == np.float32
        assert model.scale.dtype == np.float32

    def test_cast_roundtrip_preserves_values_within_float32(self):
        model = self._model_with_buffer()
        before = model.state_dict()
        model.cast(np.float32).cast(np.float64)
        for name, value in model.state_dict().items():
            np.testing.assert_allclose(value, before[name], rtol=1e-6, atol=1e-7)

    def test_cast_rejects_non_float_dtypes(self):
        model = self._model_with_buffer()
        with pytest.raises(ValueError, match="float32/float64"):
            model.cast(np.int64)

    def test_state_dict_loads_into_cast_model_at_model_dtype(self):
        source = self._model_with_buffer()
        target = self._model_with_buffer().cast(np.float32)
        target.load_state_dict(source.state_dict())
        for param in target.parameters():
            assert param.data.dtype == np.float32
        assert target.scale.dtype == np.float32


class TestDeepCopy:
    """``Module`` and ``Tensor`` copy themselves without the reduce
    protocol; the result must be what the generic deep copy gives."""

    def test_copy_is_independent_and_shares_nothing(self):
        import copy

        model = Sequential(_ToyModel(), ModuleList([Linear(2, 2, rng=1)]))
        model.eval()
        first = model._items[0]
        first.scale.grad = np.full(1, 3.0)
        first.scale.note = ["kept"]  # a subclass's own attribute
        clone = copy.deepcopy(model)
        assert type(clone) is Sequential and not clone.training
        for (name, param), (clone_name, twin) in zip(model.named_parameters(),
                                                     clone.named_parameters()):
            assert name == clone_name and type(twin) is type(param)
            assert twin is not param and twin.data is not param.data
            np.testing.assert_array_equal(twin.data, param.data)
            assert twin.requires_grad == param.requires_grad
        twin_scale = clone._items[0].scale
        np.testing.assert_array_equal(twin_scale.grad, [3.0])
        assert twin_scale.note == ["kept"] and twin_scale.note is not first.scale.note
        # Every path to a child reaches the same copy.
        assert clone._items[0] is clone._modules["0"]
        assert clone._items[1]._items[0] is clone._items[1]._modules["0"]
        assert clone._items[0].first is clone._items[0]._modules["first"]
        assert clone._items[0].first.weight is clone._items[0].first._parameters["weight"]
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        np.testing.assert_array_equal(clone._items[0](x).data, first(x).data)
