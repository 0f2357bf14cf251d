import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tikmor import DimensionError, ssim
from tikmor.metrics import SSIM_C2


def test_identical_images_score_one(rng):
    img = rng.random(64)
    assert ssim(img, img) == pytest.approx(1.0)


def test_constant_zero_images_score_one():
    z = np.zeros(16)
    assert ssim(z, z) == pytest.approx(1.0)


def test_hand_computed_anticorrelated_pair():
    # mu = 0.5 each, var = 0.25 each, cov = -0.25: C1 factors cancel and
    # the value collapses to (-0.5 + C2) / (0.5 + C2)
    got = ssim([0.0, 1.0], [1.0, 0.0])
    expected = (-0.5 + SSIM_C2) / (0.5 + SSIM_C2)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-0.996406, abs=1e-6)


def test_symmetry_on_random_pairs(rng):
    for _ in range(100):
        a = rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5))
        assert ssim(a, b) == ssim(b, a)


@given(
    arrays(np.float64, 12, elements=st.floats(-100, 100)),
    arrays(np.float64, 12, elements=st.floats(-100, 100)),
)
@settings(max_examples=200, deadline=None)
def test_range_property(a, b):
    val = ssim(a, b)
    assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


@given(arrays(np.float64, 9, elements=st.floats(-50, 50)))
@settings(max_examples=100, deadline=None)
def test_self_similarity_is_one(a):
    img = a.reshape(3, 3)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    # equal sizes, different shapes
    with pytest.raises(DimensionError, match=r"image shapes differ: \(2, 2\) vs \(4, 1\)"):
        ssim(np.zeros((2, 2)), np.zeros((4, 1)))


def test_size_mismatch_rejected():
    with pytest.raises(DimensionError):
        ssim(np.zeros(5), np.zeros((2, 2)))
