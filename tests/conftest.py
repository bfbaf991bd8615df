import json
import math
from pathlib import Path

import numpy as np
import pytest

import condpoint as cp
from condpoint.config import build_space

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


def full_stream_cond(space, rv, event):
    """E[rv | event] on a sampler in plain numpy over its full stream
    (``values_of`` and ``indicator``, which read ``Sampler.columns``): the
    reference that every streamed pass must match up to summation order."""
    xs = space.values_of(rv)[space.indicator(event)]
    k = xs.size
    if k == 0:
        return cp.ConditionalEstimate(0.0, n=0, prob=0.0, degenerate=True)
    se = float(xs.std(ddof=1)) / math.sqrt(k) if k > 1 else math.inf
    return cp.ConditionalEstimate(float(xs.mean()), se=se, n=k, prob=k / space.budget)


@pytest.fixture(scope="session")
def dice():
    return cp.DiscreteAtoms(tuple(range(1, 7)), np.full(6, 1.0 / 6.0))


@pytest.fixture(scope="session")
def dice_X():
    return cp.RandomVariable("X", lambda w: w)


@pytest.fixture(scope="session")
def dice_halves(dice):
    return cp.Partition.from_atom_groups(dice, [{1, 2}, {3, 4, 5, 6}],
                                         labels=["low", "high"])


@pytest.fixture(scope="session")
def coin_pair():
    atoms = ((0, 0), (0, 1), (1, 0), (1, 1))
    return cp.DiscreteAtoms(atoms, np.full(4, 0.25))


@pytest.fixture(scope="session")
def d8_null():
    """Fair 8-sided die plus one zero-mass atom; dyadic weights keep every
    moment exact in binary floating point."""
    space = cp.DiscreteAtoms(tuple(range(0, 9)), np.array([0.0] + [0.125] * 8))
    X = cp.RandomVariable("X", lambda w: w)
    A = cp.Event.from_atoms({0}, name="A")
    return space, X, A


@pytest.fixture(scope="session")
def normal_grid():
    return build_space({"kind": "grid1d", "density": {"family": "normal"},
                        "nodes": 1601, "axis": "y"})


@pytest.fixture(scope="session")
def gaussian_sum_grid():
    return build_space({"kind": "grid2d", "axes": ["x", "y"],
                        "density": {"family": "gaussian-sum", "var_x": 1.0, "var_noise": 1.0},
                        "nodes": [1201, 1201]})


@pytest.fixture(scope="session")
def bivariate():
    cache = {}

    def make(rho: float):
        if rho not in cache:
            cache[rho] = build_space({"kind": "grid2d",
                                      "density": {"family": "bivariate-normal", "rho": rho},
                                      "nodes": [801, 801]})
        return cache[rho]

    return make


@pytest.fixture(scope="session")
def uniform_square():
    return build_space({"kind": "grid2d", "density": {"family": "uniform"},
                        "ranges": [[0.0, 1.0], [0.0, 1.0]], "nodes": [201, 201]})


@pytest.fixture(scope="session")
def gaussian_sum_sampler():
    return cp.Sampler("gaussian-sum", {"var_x": 1.0, "var_noise": 1.0},
                      seed=20260811, budget=10**6)


@pytest.fixture(scope="session")
def paradox_oracle():
    return json.loads((FIXTURE_DIR / "paradox_oracle.json").read_text())
