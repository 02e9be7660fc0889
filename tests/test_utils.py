"""Tests for repro.utils: RNG management and validation helpers."""

import math

import numpy as np
import pytest

from repro.utils import (
    check_finite,
    check_in_range,
    check_positive,
    check_probability,
    ensure_rng,
    spawn_rngs,
)


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(ensure_rng(1).random(5), ensure_rng(2).random(5))

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]

    def test_numpy_integer_accepted(self):
        assert isinstance(ensure_rng(np.int64(3)), np.random.Generator)


class TestChildAndSpawn:
    def test_spawn_rngs_count_and_independence(self):
        rngs = spawn_rngs(123, 4)
        assert len(rngs) == 4
        draws = [g.random(3).tolist() for g in rngs]
        # all four streams distinct
        assert len({tuple(d) for d in draws}) == 4

    def test_spawn_rngs_deterministic(self):
        a = [g.random() for g in spawn_rngs(5, 3)]
        b = [g.random() for g in spawn_rngs(5, 3)]
        assert a == b


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5

    def test_check_positive_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0.0)

    def test_check_positive_nonstrict_accepts_zero(self):
        assert check_positive("x", 0.0, strict=False) == 0.0

    def test_check_positive_nonstrict_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)

    def test_check_in_range_inclusive_bounds(self):
        assert check_in_range("y", 0.0, 0.0, 1.0) == 0.0
        assert check_in_range("y", 1.0, 0.0, 1.0) == 1.0

    def test_check_in_range_exclusive(self):
        with pytest.raises(ValueError):
            check_in_range("y", 0.0, 0.0, 1.0, inclusive=False)

    def test_check_in_range_rejects_outside(self):
        with pytest.raises(ValueError, match="y"):
            check_in_range("y", 2.0, 0.0, 1.0)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValueError):
            check_probability("p", 1.2)

    def test_check_finite_scalar_and_iterable(self):
        check_finite("v", 1.0)
        check_finite("v", [0.0, 2.5])
        with pytest.raises(ValueError):
            check_finite("v", math.inf)
        with pytest.raises(ValueError):
            check_finite("v", [1.0, math.nan])
