"""Session-wide guards for the tier-1 suite."""

import os

import pytest


def _repro_environment() -> dict:
    return {
        name: value
        for name, value in os.environ.items()
        if name.startswith("REPRO_")
    }


@pytest.fixture(scope="session", autouse=True)
def repro_environment_is_left_alone():
    """Fail the session if it ends with ``REPRO_*`` variables changed.

    ``env_reps()`` / ``env_scale()`` readers pick their defaults from
    the environment, so a leaked ``REPRO_REPS`` or ``REPRO_SCALE``
    silently resizes every test that runs after the leak.
    """
    before = _repro_environment()
    yield
    assert _repro_environment() == before, (
        "the test session changed the REPRO_* environment: "
        f"{before} -> {_repro_environment()}"
    )
