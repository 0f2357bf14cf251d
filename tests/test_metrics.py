import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tikmor import DimensionError, ImageView, ssim
from tikmor.metrics import SSIM_C2


def view(values, width=None, height=1):
    values = np.asarray(values, dtype=float)
    return ImageView(data=values, width=width or values.size, height=height)


def test_identical_images_score_one(rng):
    img = view(rng.random(64))
    assert ssim(img, img) == pytest.approx(1.0)


def test_constant_zero_images_score_one():
    z = view(np.zeros(16))
    assert ssim(z, z) == pytest.approx(1.0)


def test_hand_computed_anticorrelated_pair():
    # mu = 0.5 each, var = 0.25 each, cov = -0.25: C1 factors cancel and
    # the value collapses to (-0.5 + C2) / (0.5 + C2)
    got = ssim(view([0.0, 1.0]), view([1.0, 0.0]))
    expected = (-0.5 + SSIM_C2) / (0.5 + SSIM_C2)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(-0.996406, abs=1e-6)


def test_symmetry_on_random_pairs(rng):
    for _ in range(100):
        a = view(rng.standard_normal(25), width=5, height=5)
        b = view(rng.standard_normal(25), width=5, height=5)
        assert ssim(a, b) == ssim(b, a)


@given(
    arrays(np.float64, 12, elements=st.floats(-100, 100)),
    arrays(np.float64, 12, elements=st.floats(-100, 100)),
)
@settings(max_examples=200, deadline=None)
def test_range_property(a, b):
    val = ssim(view(a), view(b))
    assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


@given(arrays(np.float64, 9, elements=st.floats(-50, 50)))
@settings(max_examples=100, deadline=None)
def test_self_similarity_is_one(a):
    img = view(a, width=3, height=3)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        ssim(view(np.zeros(4), width=2, height=2), view(np.zeros(4), width=4, height=1))


def test_image_view_validates_size():
    with pytest.raises(DimensionError):
        ImageView(data=np.zeros(5), width=2, height=2)
