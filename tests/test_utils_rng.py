"""Unit tests for deterministic RNG management."""

import numpy as np
import pytest

from repro.utils.rng import RngFactory, as_generator, spawn_seeds


class TestAsGenerator:
    def test_int_seed_deterministic(self):
        a = as_generator(42).random(5)
        b = as_generator(42).random(5)
        np.testing.assert_array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(1)
        assert as_generator(g) is g

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestSpawnSeeds:
    def test_deterministic(self):
        np.testing.assert_array_equal(spawn_seeds(7, 5), spawn_seeds(7, 5))

    def test_distinct_children(self):
        seeds = spawn_seeds(7, 100)
        assert len(set(seeds.tolist())) == 100

    def test_streams_disjoint(self):
        a = spawn_seeds(7, 10, stream=0)
        b = spawn_seeds(7, 10, stream=1)
        assert set(a.tolist()).isdisjoint(b.tolist())

    def test_prefix_stability(self):
        # Child i doesn't change when asking for more children.
        a = spawn_seeds(7, 3)
        b = spawn_seeds(7, 10)
        np.testing.assert_array_equal(a, b[:3])

    def test_negative_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            spawn_seeds(7, -1)


class TestRngFactory:
    def test_same_key_same_stream(self):
        f = RngFactory(123)
        a = f.child("x", 1).random(4)
        b = RngFactory(123).child("x", 1).random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_differ(self):
        f = RngFactory(123)
        a = f.child("x", 1).random(4)
        b = f.child("x", 2).random(4)
        c = f.child("y", 1).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_string_hash_stable(self):
        # The FNV hash must be process-independent: fixed expected value.
        assert RngFactory._encode("dataset") == RngFactory._encode("dataset")
        assert RngFactory._encode("a") != RngFactory._encode("b")

    def test_child_seed_matches_child(self):
        f = RngFactory(9)
        seed = f.child_seed("m", 3)
        assert isinstance(seed, int)
        assert seed == RngFactory(9).child_seed("m", 3)

    def test_bad_root_type(self):
        with pytest.raises(TypeError, match="int"):
            RngFactory("not-an-int")

    def test_negative_int_key_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            RngFactory(1).child(-5)

    def test_bad_key_type_raises(self):
        with pytest.raises(TypeError, match="str or int"):
            RngFactory(1).child(3.14)

    def test_float_key_equal_to_a_cached_int_still_raises(self):
        """Key hashes are memoized per type: 1.0 never hits the entry for 1."""
        RngFactory(1).child(1)
        with pytest.raises(TypeError, match="str or int"):
            RngFactory(1).child(1.0)
