import numpy as np
import pytest

from flowlab.stats import Moments
from oracles import two_pass_moments


def test_textbook_variance():
    m = Moments()
    for x in [2, 4, 4, 4, 5, 5, 7, 9]:
        m.push(x)
    assert m.mean == pytest.approx(5.0, abs=1e-12)
    assert m.variance == pytest.approx(4.0, rel=1e-12)


def test_single_value_moments_undefined():
    m = Moments()
    m.push(3.0)
    assert m.mean == 3.0 and m.mean_defined
    assert not m.variance_defined and m.variance == 0.0
    assert not m.shape_defined and m.skewness == 0.0 and m.kurtosis == 0.0


def test_constant_sequence_shape_undefined():
    m = Moments()
    for _ in range(10):
        m.push(7.0)
    assert m.variance == 0.0 and m.variance_defined
    assert not m.shape_defined


def test_min_max():
    m = Moments()
    for x in [5.0, -2.0, 9.0]:
        m.push(x)
    assert m.minimum == -2.0 and m.maximum == 9.0


@pytest.mark.parametrize("seed", range(5))
def test_streaming_matches_two_pass(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(2, 1000))
        xs = rng.normal(rng.uniform(-100, 100), rng.uniform(0.1, 50), n)
        m = Moments()
        for x in xs:
            m.push(float(x))
        mean, var, skew, kurt = two_pass_moments(xs)
        assert m.mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert m.variance == pytest.approx(var, rel=1e-9)
        assert m.skewness == pytest.approx(skew, rel=1e-9, abs=1e-9)
        assert m.kurtosis == pytest.approx(kurt, rel=1e-9, abs=1e-9)
