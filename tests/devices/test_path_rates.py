"""The measured path rates are pinned, key by key.

``path_rates.json`` holds the :class:`PathRates` of every
(transform, variance) key the harness, the engine's jobs and the serve
traces ask for, as computed with numpy's ``x**4`` and
``scipy.stats.norm.ppf``.  The rates are means of boolean arrays, so
equality per key is the check; the property below pins the squeeze
decisions themselves at a smaller sample count.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from repro.devices.profiles import PathRates, measured_path_rates, squeeze_test
from repro.paper import SETUP
from repro.rng.erfinv import CENTRAL_W_LIMIT
from repro.rng.gamma import marsaglia_tsang_constants
from repro.serve.loadgen import WorkloadSpec

TABLE = json.loads((Path(__file__).parent / "path_rates.json").read_text())


@pytest.mark.parametrize(
    "transform,variance,rates", TABLE, ids=[f"{t}-{v}" for t, v, _ in TABLE]
)
def test_rates_equal_the_table(transform, variance, rates):
    assert dataclasses.asdict(measured_path_rates(transform, variance)) == rates


def test_table_covers_the_keys_in_use():
    keys = {(t, v) for t, v, _ in TABLE}
    variances = set(WorkloadSpec().variances) | {SETUP.sector_variance}
    variances |= {0.1, 10.0, 100.0}  # the variance and rejection sweeps
    for transform in ("marsaglia_bray", "icdf_fpga"):
        assert {(transform, v) for v in variances} <= keys
    assert ("icdf_cuda", SETUP.sector_variance) in keys


def _reference(transform, variance, samples, seed):
    """The Monte Carlo with ``x**4`` and ``norm.ppf``; also returns the
    squeeze operands."""
    rng = np.random.default_rng(seed)
    consts = marsaglia_tsang_constants(1.0 / variance)
    if transform == "marsaglia_bray":
        u1 = rng.uniform(-1.0, 1.0, samples)
        u2 = rng.uniform(-1.0, 1.0, samples)
        s = u1 * u1 + u2 * u2
        valid = (s > 0.0) & (s < 1.0)
        normal_accept = float(np.mean(valid))
        factor = np.sqrt(-2.0 * np.log(np.where(valid, s, 0.5)) / np.where(valid, s, 0.5))
        x = np.where(valid, u1 * factor, 0.0)[valid]
        erfinv_tail = 0.0
    else:
        u = rng.random(samples)
        normal_accept = 1.0
        x = norm.ppf(u)
        arg = 2.0 * u - 1.0
        w = -np.log((1.0 - arg) * (1.0 + arg))
        erfinv_tail = float(np.mean(w >= CENTRAL_W_LIMIT))
    u_rej = rng.random(x.size)
    t = 1.0 + consts.c * x
    v = t * t * t
    positive = t > 0.0
    squeeze_pass = u_rej < 1.0 - 0.0331 * x**4
    with np.errstate(invalid="ignore", divide="ignore"):
        full_pass = np.log(u_rej) < 0.5 * x * x + consts.d * (
            1.0 - v + np.log(np.where(positive, v, 1.0))
        )
    accepted = positive & (squeeze_pass | full_pass)
    rates = PathRates(
        normal_accept=normal_accept,
        gamma_accept=float(np.mean(accepted)),
        squeeze_miss=float(np.mean(positive & ~squeeze_pass)),
        cube_negative=float(np.mean(~positive)),
        erfinv_tail=erfinv_tail,
    )
    return rates, u_rej, x, squeeze_pass


@settings(max_examples=40, deadline=None)
@given(
    transform=st.sampled_from(["marsaglia_bray", "icdf_fpga"]),
    variance=st.floats(0.05, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_squeeze_decisions_equal_the_pow_reference(transform, variance, seed):
    samples = 20_000
    rates, u_rej, x, squeeze_pass = _reference(transform, variance, samples, seed)
    np.testing.assert_array_equal(squeeze_test(u_rej, x), squeeze_pass)
    got = measured_path_rates.__wrapped__(transform, variance, samples, seed)
    assert got == rates
