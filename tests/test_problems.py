import numpy as np
import pytest

from tikmor import (
    DimensionError,
    InverseProblem,
    as_operator,
    load_problem,
    priorconditioned_problem,
    random_uniform_problem,
    relative_error,
    save_problem,
    sine_wave_problem,
    RegularizationMatrix,
)
from tikmor.problems import gaussian


def test_epsilon_is_exact_fraction_of_exact_rhs():
    p = random_uniform_problem(700, 500, 0.10, seed=3)
    assert p.noise_level == pytest.approx(0.10 * np.linalg.norm(p.b_exact), rel=0, abs=0)


def test_seeded_determinism():
    a = random_uniform_problem(5, 5, 0.10, seed=99)
    b = random_uniform_problem(5, 5, 0.10, seed=99)
    assert np.array_equal(a.operator.to_dense(), b.operator.to_dense())
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.ground_truth, b.ground_truth)
    assert np.array_equal(a.b_exact, b.b_exact)
    assert a.sigma == b.sigma


def test_dimension_rejection():
    with pytest.raises(DimensionError):
        random_uniform_problem(4, 6, 0.10, seed=0)


def test_entries_in_uniform_range():
    p = random_uniform_problem(50, 30, 0.10, seed=1)
    A = p.operator.to_dense()
    assert A.min() >= -1.0 and A.max() <= 1.0
    assert p.ground_truth.min() >= -1.0 and p.ground_truth.max() <= 1.0


def test_sine_values_n3():
    p = sine_wave_problem(np.eye(3), 0.0, seed=0)
    assert np.allclose(p.ground_truth, [1.0, 0.0, -1.0], atol=1e-15)


def test_sine_values_n1():
    p = sine_wave_problem(np.eye(1), 0.0, seed=0)
    assert abs(p.ground_truth[0]) <= 1e-15


def test_sine_noiseless():
    A = np.arange(12.0).reshape(4, 3) + 1.0
    p = sine_wave_problem(A, 0.0, seed=5)
    assert p.noise_level == 0.0
    assert np.array_equal(p.b, A @ p.ground_truth)


def test_noise_norm_concentration():
    # ||e|| / (sigma sqrt(m)) concentrates near 1 for m = 1000
    m = 1000
    rng = np.random.default_rng(2024)
    ratios = []
    for _ in range(1000):
        e = gaussian(rng, m)
        ratios.append(np.linalg.norm(e) / np.sqrt(m))
    ratios = np.array(ratios)
    inside = ((ratios >= 0.9) & (ratios <= 1.1)).mean()
    assert inside >= 0.99


def test_gaussian_moments():
    rng = np.random.default_rng(7)
    z = gaussian(rng, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_relative_stats_exact_solution():
    A = np.eye(4)
    p = sine_wave_problem(A, 0.0, seed=0)
    err = relative_error(p, p.ground_truth)
    assert err is not None
    assert err == pytest.approx(0.0, abs=1e-15)


def test_relative_stats_zero_reconstruction():
    p = random_uniform_problem(8, 5, 0.10, seed=11)
    assert relative_error(p, np.zeros(5)) == pytest.approx(1.0)


def test_relative_stats_recomputable(rng):
    p = random_uniform_problem(9, 6, 0.10, seed=4)
    x = rng.standard_normal(6)
    expected = np.linalg.norm(x - p.ground_truth) / np.linalg.norm(p.ground_truth)
    assert relative_error(p, x) == pytest.approx(expected, rel=1e-14)


def test_relative_stats_no_ground_truth():
    p = InverseProblem(operator=as_operator(np.eye(2)), b=np.ones(2), noise_level=0.1)
    assert relative_error(p, np.ones(2)) is None


def test_relative_stats_zero_truth_flagged():
    p = InverseProblem(
        operator=as_operator(np.eye(2)), b=np.ones(2), noise_level=0.1,
        ground_truth=np.zeros(2),
    )
    assert relative_error(p, np.ones(2)) is None


def test_eta_scales_discrepancy_target():
    p = InverseProblem(
        operator=as_operator(np.eye(2)), b=np.ones(2), noise_level=0.1, eta=1.5
    )
    assert p.discrepancy_target == pytest.approx(0.15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("field", ["noise_level", "eta"])
def test_discrepancy_level_must_be_finite(field, bad):
    # NaN passes a bare `< 0` or `< 1` test; a solver would spend its whole budget on it
    levels = {"noise_level": 0.1, "eta": 1.0, field: bad}
    with pytest.raises(ValueError, match=f"{field.replace('_', ' ')} must be finite"):
        InverseProblem(operator=as_operator(np.eye(2)), b=np.ones(2), **levels)


def test_problem_round_trip_dense(tmp_path):
    p = random_uniform_problem(12, 7, 0.10, seed=21)
    save_problem(p, tmp_path / "prob")
    q = load_problem(tmp_path / "prob")
    assert np.array_equal(q.operator.to_dense(), p.operator.to_dense())
    assert np.array_equal(q.b, p.b)
    assert np.array_equal(q.ground_truth, p.ground_truth)
    assert q.noise_level == p.noise_level
    assert q.sigma == p.sigma
    assert q.seed == p.seed
    assert q.eta == p.eta


def test_priorconditioned_problem_preserves_residuals(rng):
    p = random_uniform_problem(10, 6, 0.10, seed=2)
    reg = RegularizationMatrix(6)
    transformed, recover = priorconditioned_problem(p, reg)
    z = rng.standard_normal(6)
    x = recover(z)
    res_t = np.linalg.norm(transformed.operator.matvec(z) - transformed.b)
    res_o = np.linalg.norm(p.operator.matvec(x) - p.b)
    assert res_t == pytest.approx(res_o, rel=1e-12)
    assert transformed.noise_level == p.noise_level
