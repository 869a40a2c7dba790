"""Tests for repro.utils.rng."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils.rng import RngFactory, as_generator, stable_hash


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(7).integers(0, 1000, size=5)
        b = as_generator(7).integers(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_existing_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert as_generator(generator) is generator

    def test_none_gives_generator(self):
        assert isinstance(as_generator(None), np.random.Generator)


class TestRngFactory:
    def test_same_name_same_stream(self):
        factory = RngFactory(42)
        a = factory.named("model", "bert").integers(0, 10**6, size=4)
        b = factory.named("model", "bert").integers(0, 10**6, size=4)
        assert np.array_equal(a, b)

    def test_different_names_differ(self):
        factory = RngFactory(42)
        a = factory.named("model", "bert").integers(0, 10**6, size=8)
        b = factory.named("model", "roberta").integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)

    def test_different_root_seeds_differ(self):
        a = RngFactory(1).named("x").integers(0, 10**6, size=8)
        b = RngFactory(2).named("x").integers(0, 10**6, size=8)
        assert not np.array_equal(a, b)

    def test_root_seed_property(self):
        assert RngFactory(9).root_seed == 9


class TestStableHash:
    def test_deterministic_across_calls(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_distinct_inputs(self):
        assert stable_hash("hello") != stable_hash("world")

    def test_non_negative(self):
        assert stable_hash("anything") >= 0


_NAMED_SCRIPT = (
    "import json; from repro.utils.rng import RngFactory; "
    "stream = RngFactory(0).named('model', 3); "
    "print(json.dumps(stream.integers(0, 2**31, size=4).tolist()))"
)


def _named_draws_with_hashseed(hashseed: str) -> list:
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _NAMED_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def test_named_stream_is_stable_across_processes():
    assert _named_draws_with_hashseed("1") == _named_draws_with_hashseed("2")
