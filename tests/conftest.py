import numpy as np
import pytest

from sensebound.channels import make_channel
from sensebound.experiments import load_bundled
from sensebound.priors import GaussianPrior
from sensebound.report import run_experiment
from sensebound.system import SystemModel, decompose


@pytest.fixture
def scalar_double():
    """a=2, b=1: the workhorse scalar plant."""
    return decompose(SystemModel([[2.0]], [[1.0]]))


@pytest.fixture
def unit_gaussian_channel():
    return make_channel("linear-gaussian", C=[[1.0]], R=[[1.0]])


@pytest.fixture
def unit_prior():
    return GaussianPrior([0.0], [[1.0]])


@pytest.fixture(scope="session")
def bundles():
    """Run bundled experiments on demand and cache the results."""
    cache = {}

    def get(name, **overrides):
        key = (name, tuple(sorted(overrides.items())))
        if key not in cache:
            cfg = load_bundled(name)
            cache[key] = run_experiment(cfg, write=False, **overrides)
        return cache[key]

    return get


def fd_hessian_1d(f, x, h=1e-5):
    """Central second difference, the derivative oracle used throughout."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def fd_hessian(f, x, h=1e-4):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n); ei[i] = h
            ej = np.zeros(n); ej[j] = h
            H[i, j] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h * h)
    return H
