import numpy as np
import pytest
from conftest import random_sparse
from oracles import max_rel_dev

from lift.errors import ShapeError, StructuralError
from lift.reparam import (BN_EPSILON, BnParams, RepConvLayer, apply_fused,
                          apply_training_form, fold_bn, fuse)
from lift.sparse import SparseTensor2D, submanifold_conv


def random_bn(rng, c):
    return BnParams(gamma=rng.uniform(0.5, 1.5, c), beta=rng.uniform(-0.5, 0.5, c),
                    running_mean=rng.uniform(-0.5, 0.5, c),
                    running_var=rng.uniform(0.1, 1.5, c))


def random_layer(rng, cin, cout, mode):
    return RepConvLayer(
        kernel3=rng.normal(size=(3, 3, cin, cout)), bn3=random_bn(rng, cout),
        kernel1=rng.normal(size=(1, 1, cin, cout)), bn1=random_bn(rng, cout),
        identity_bn=random_bn(rng, cout) if (cin == cout and mode == "submanifold")
        else None)


class TestFoldBn:
    def test_identity_normalization_is_noop(self):
        kernel = np.arange(3 * 3 * 2 * 2, dtype=float).reshape(3, 3, 2, 2)
        k, b = fold_bn(kernel, BnParams.identity(2))
        assert np.allclose(k, kernel)
        assert np.allclose(b, 0.0)

    def test_hand_computed_fold(self):
        # gamma 2, beta 3, mean 1, var 1 - eps: kernel doubles, bias = 3 - 2 = 1
        bn = BnParams(gamma=np.array([2.0]), beta=np.array([3.0]),
                      running_mean=np.array([1.0]), running_var=np.array([1.0 - BN_EPSILON]))
        kernel = np.ones((3, 3, 1, 1))
        k, b = fold_bn(kernel, bn)
        assert np.allclose(k, 2.0)
        assert np.allclose(b, 1.0)

    def test_functional_equivalence(self, rng):
        cin, cout = 3, 5
        kernel = rng.normal(size=(3, 3, cin, cout))
        bn = random_bn(rng, cout)
        x = random_sparse(rng, 10, 10, cin, occupancy=0.4)
        normalized = bn.apply(submanifold_conv(x, kernel).features)
        k, b = fold_bn(kernel, bn)
        folded = submanifold_conv(x, k, b).features
        assert max_rel_dev(normalized, folded) < 1e-5


class TestFuse:
    def test_pure_identity_layer(self, rng):
        c = 4
        zero_bn = BnParams.identity(c)
        layer = RepConvLayer(kernel3=np.zeros((3, 3, c, c)), bn3=zero_bn,
                             kernel1=np.zeros((1, 1, c, c)), bn1=zero_bn,
                             identity_bn=BnParams.identity(c))
        fused = fuse(layer)
        x = random_sparse(rng, 8, 8, c, occupancy=0.5)
        y = apply_fused(fused, x, "submanifold")
        # 3x3/1x1 branches fold to zero kernels but keep their BN shift;
        # with identity BN stats that shift is zero, so only x remains
        assert max_rel_dev(y.features, x.features) < 1e-12

    def test_no_identity_zero_1x1_equals_folded_3x3(self, rng):
        cin, cout = 3, 6
        layer = RepConvLayer(kernel3=rng.normal(size=(3, 3, cin, cout)),
                             bn3=random_bn(rng, cout),
                             kernel1=np.zeros((1, 1, cin, cout)),
                             bn1=BnParams.identity(cout))
        fused = fuse(layer)
        k, b = fold_bn(layer.kernel3, layer.bn3)
        assert np.allclose(fused.kernel, k)
        assert np.allclose(fused.bias, b)

    def test_identity_requires_matching_channels(self, rng):
        with pytest.raises(StructuralError):
            RepConvLayer(kernel3=np.zeros((3, 3, 2, 4)), bn3=random_bn(rng, 4),
                         kernel1=np.zeros((1, 1, 2, 4)), bn1=random_bn(rng, 4),
                         identity_bn=random_bn(rng, 4))

    def test_downsample_cannot_have_identity(self, rng):
        layer = RepConvLayer(kernel3=np.zeros((3, 3, 4, 4)), bn3=random_bn(rng, 4),
                             kernel1=np.zeros((1, 1, 4, 4)), bn1=random_bn(rng, 4),
                             identity_bn=random_bn(rng, 4))
        x = random_sparse(rng, 8, 8, 4, occupancy=0.5)
        with pytest.raises(StructuralError):
            apply_training_form(layer, x, "stride2")


class TestTrainingFormEquivalence:
    @pytest.mark.parametrize("mode,cin,cout", [
        ("submanifold", 4, 4), ("submanifold", 3, 7),
        pytest.param("stride2", 4, 6, id="downsample-4-6")])
    def test_fused_matches_training_form(self, rng, mode, cin, cout):
        for _ in range(25):
            layer = random_layer(rng, cin, cout, mode)
            fused = fuse(layer)
            x = random_sparse(rng, 12, 12, cin, occupancy=float(rng.uniform(0.1, 0.7)))
            out_train = apply_training_form(layer, x, mode)
            out_fused = apply_fused(fused, x, mode)
            assert np.array_equal(out_train.coords, out_fused.coords)
            assert max_rel_dev(out_train.features, out_fused.features) < 1e-4

    def test_empty_input(self, rng):
        layer = random_layer(rng, 4, 4, "submanifold")
        x = SparseTensor2D.build(8, 8, [], np.empty((0, 4)))
        y = apply_training_form(layer, x, "submanifold")
        assert len(y) == 0

    @pytest.mark.parametrize("mode", ["submanifold", "stride2"])
    def test_an_input_of_the_wrong_width_is_refused_by_the_first_branch_conv(self, rng, mode):
        layer = random_layer(rng, 4, 4, mode)
        x = random_sparse(rng, 8, 8, 3, occupancy=0.3)
        with pytest.raises(ShapeError, match="input has 3 channels, kernel expects 4"):
            apply_training_form(layer, x, mode)

    def test_single_site_identity_only_layer(self):
        c = 3
        layer = RepConvLayer(kernel3=np.zeros((3, 3, c, c)), bn3=BnParams.identity(c),
                             kernel1=np.zeros((1, 1, c, c)), bn1=BnParams.identity(c),
                             identity_bn=BnParams.identity(c))
        x = SparseTensor2D.build(8, 8, [(2, 5)], [[1.0, -2.0, 0.5]])
        y = apply_training_form(layer, x, "submanifold")
        assert np.allclose(y.features, x.features, atol=1e-9)

    def test_downsample_active_set_matches_conv(self, rng):
        layer = random_layer(rng, 2, 4, "stride2")
        x = random_sparse(rng, 14, 14, 2, occupancy=0.2)
        out_train = apply_training_form(layer, x, "stride2")
        out_fused = apply_fused(fuse(layer), x, "stride2")
        assert np.array_equal(out_train.coords, out_fused.coords)
        assert (out_train.width, out_train.height) == (7, 7)
