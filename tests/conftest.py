import hashlib

import numpy as np
import pytest

from qsdc3.cli import render_json

# Report fields computed by the exact enumerator, not sampled: the analytic
# probability of a check (``analytic`` in a curve row) and the z-score
# measured against it.
ENUMERATED_FIELDS = ("analytic_probability", "analytic", "z_score")


class ScriptedRng:
    """Stand-in generator returning a scripted sequence of uniforms.

    Lets a test force a specific basis choice or measurement branch.
    """

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)

    def integers(self, low, high=None, size=None):
        value = self.values.pop(0)
        if size is not None:
            raise NotImplementedError("scripted draws are scalar")
        return int(value)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def scripted():
    return ScriptedRng


def _sampled_fields(payload):
    if isinstance(payload, dict):
        return {
            key: _sampled_fields(value) for key, value in payload.items() if key not in ENUMERATED_FIELDS
        }
    if isinstance(payload, list):
        return [_sampled_fields(value) for value in payload]
    return payload


@pytest.fixture
def sampled_digest():
    """The sha256 of a report's JSON without its ``ENUMERATED_FIELDS``:
    pins what the sessions sampled, whatever the enumerator gives."""

    def digest(payload):
        return hashlib.sha256(render_json(_sampled_fields(payload)).encode()).hexdigest()

    return digest
