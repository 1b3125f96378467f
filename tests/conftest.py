"""Shared fixtures: physics constants, small generated cohorts and the
CPUs that cross-validation sees.

Hypothesis runs derandomized by default (the "deterministic" profile), so
every run of the suite checks the same examples; pass
--hypothesis-profile=default for random ones.
"""

import os

import pytest

from epc_pinn.physics import PhysicsConstants
from epc_pinn.synth import GeneratorConfig, generate_cohort

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
    settings.load_profile("deterministic")


@pytest.fixture
def constants():
    return PhysicsConstants()


@pytest.fixture(scope="session")
def clean_cohort_dir(tmp_path_factory):
    """40 noise-free buildings; measured consumption equals the model
    output exactly, so closure and training sanity checks are sharp."""
    out = tmp_path_factory.mktemp("clean_cohort")
    generate_cohort(
        GeneratorConfig(n_buildings=40, seed=101, consumption_noise=0.0, audit_noise=0.0),
        out,
    )
    return out


@pytest.fixture
def usable_cpus(monkeypatch):
    """Sets the number n of CPUs the process may run on, as
    train.cross_validate reads it, which then trains on min(k_folds, n)
    workers."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    return set_cpus
