import hashlib

import numpy as np
import pytest

from qsdc3 import protocol
from qsdc3.adversary import attack_points
from qsdc3.cli import render_json
from qsdc3.states import BERNOULLI, BIT, TransitionTable

# Report fields computed by the exact enumerator, not sampled: the analytic
# probability of a check (``analytic`` in a curve row) and the z-score
# measured against it.
ENUMERATED_FIELDS = ("analytic_probability", "analytic", "z_score")


class ScriptedRng:
    """Stand-in generator returning a scripted sequence of uniforms.

    Lets a test force a specific basis choice or measurement branch, or a
    session's leaf for each round.  ``random(size)`` returns the next
    ``size`` values as an array, or the ones left when fewer are; with
    none left it raises ``IndexError``.
    """

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        if not self.values:
            raise IndexError("the scripted draws are used up")
        block, self.values = self.values[:size], self.values[size:]
        return np.array(block)


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


# A reference enumerator of chance-point steps, independent of the compiled
# tree: it replays fresh steps from the start along every path of answers.
# ``protocol.leaf_weights`` must weigh the tree exactly as this weighs the
# round.


def _replay(steps, answers):
    """Run ``steps`` along ``answers``, one per chance point.

    Returns ``(point, None)`` with the next chance point, or ``(None,
    value)`` when the steps end first, with what they return.
    """
    try:
        point = steps.send(None)
        for answer in answers:
            point = steps.send(answer)
    except StopIteration as stop:
        return None, stop.value
    return point, None


def _weighted_answers(kind, data):
    """Every answer to a chance point, as ``(answer, probability)`` pairs:
    True with ``p`` and False with ``1 - p``, and a choice's pairs as it
    carries them."""
    if kind is BERNOULLI:
        return ((True, data), (False, 1.0 - data))
    return data


def _weigh(make_steps):
    """Every end of the steps ``make_steps()`` gives, with its probability.

    Answers each chance point with every answer of positive probability,
    replaying fresh steps along each path of answers.  Returns ``[(weight,
    value), ...]``, one pair per end in the order of the answers; a weight
    is the product of its path's probabilities, from the first answer on.
    """
    ends = []
    stack = [(1.0, ())]
    while stack:
        weight, path = stack.pop()
        point, value = _replay(make_steps(), path)
        if point is None:
            ends.append((weight, value))
            continue
        for answer, p in reversed(_weighted_answers(*point)):
            if p > 0.0:
                stack.append((weight * p, path + (answer,)))
    return ends


@pytest.fixture
def weigh():
    """The reference enumerator: ``weigh(make_steps)`` gives every end of
    the steps with its exact probability."""
    return _weigh


def eve_hop(table, model, segment, state):
    """Eve's steps on ``segment`` as the round enters them: only on a
    segment the model covers.  Returns ``(state, record)``, the record None
    when she does not act."""
    records = []
    if segment in model.covered:
        state = yield from attack_points(table, model, segment, state, records)
    return state, (records[0] if records else None)


def rooted_round(table, schedule, model, j, k):
    """``protocol._round_points`` from the root of Bob's bit ``j`` and
    Charlie's bit ``k``: its bit points are answered here, and every other
    point is yielded.  Returns ``(path, value)``: the root (j, k) followed
    by every answer the round was given, bit answers included, and what
    the round returns."""
    steps = protocol._round_points(table, schedule, model)
    bits = {"bob": j, "charlie": k}
    path = (j, k)
    try:
        point = steps.send(None)
        while True:
            answer = bits[point[1]] if point[0] is BIT else (yield point)
            path += (answer,)
            point = steps.send(answer)
    except StopIteration as stop:
        return path, stop.value


@pytest.fixture
def two_enumerations(weigh):
    """``two_enumerations(schedule, model, j, k)``: the round from the root
    (j, k) as ``protocol.leaf_weights`` weighs its tree, and as the
    reference enumerator weighs :func:`rooted_round` on a fresh table.  The
    roots of one schedule and model are read from one walk, on a table of
    their own.  Both are ``[(weight, end), ...]`` lists, with each end as the
    fields of the :class:`~qsdc3.protocol.Leaf` it is: kind, path, passed,
    touched, Bell label, decoy family, events, Eve's records after the
    round index and leakage keys."""

    walked = {}

    def enumerate_both(schedule, model, j, k):
        walk = walked.setdefault((schedule, model), TransitionTable())
        got = [(weight, tuple(leaf)) for weight, leaf in protocol.leaf_weights(walk, schedule, model, j, k)]
        table = TransitionTable()
        expected = []
        for weight, (path, value) in weigh(lambda: rooted_round(table, schedule, model, j, k)):
            kind, passed, label, family, events, eve = value
            keys = None if label is None else tuple((label.flip ^ i, label.phase ^ i, i, j, k) for i in (0, 1))
            touched = tuple(record.segment for record in eve)
            eve = tuple(map(_eve_fields, eve))
            expected.append((weight, (kind, path, passed, touched, label, family, events, eve, keys)))
        return got, expected

    return enumerate_both


def _eve_fields(record):
    return (record.segment, record.kind, record.basis, record.outcome, record.ancilla_outcome)
