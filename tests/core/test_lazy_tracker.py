"""The instance tracker's deferred sketch fold is invisible.

``InstanceTracker`` records executed tuples and folds them into its
(F, W) pair only when something reads the pair: a window close,
``restart()``, or the ``matrices`` view.  Reading the view after every
call forces a fold per call; a tracker read only at the end folds once
per window.  Both must emit the same messages (shipped F/W bytes
included), report the same ``stats()`` and end on the same matrices —
and both must match a pair fed tuple by tuple through ``FWPair.update``,
which does not go through the batched scatter every fold uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.instance import InstanceTracker
from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.messages import MatricesMessage, SyncReply, SyncRequest

#: a small window closes often; a large one takes long batches
CONFIGS = {
    window: POSGConfig(
        window_size=window, rows=2, cols=8, mu=1.0,
        recovery=RecoveryConfig(rebroadcast_windows=1),
    )
    for window in (8, 64)
}
HASHES = make_shared_hashes(CONFIGS[8], np.random.default_rng(0))

#: nine decades of times, so a reassociated sum shows
TIMES = st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e9))
#: a few hot ids that share cells, and any 63-bit id
ITEMS = st.one_of(st.integers(0, 12), st.integers(0, 2**63 - 1))
EXECUTE = st.tuples(st.just("execute"), ITEMS, TIMES, st.booleans())
RESTART = st.tuples(st.just("restart"))


def operations(window):
    """Random calls; a batch holds up to one window and is trimmed to
    end on the boundary at most, and one call in ten is a restart."""
    batch = st.tuples(
        st.just("batch"), st.lists(st.tuples(ITEMS, TIMES), max_size=window)
    )
    return st.lists(
        st.integers(0, 9).flatmap(
            lambda n: EXECUTE if n < 5 else batch if n < 9 else RESTART
        ),
        max_size=80,
    )


def wire(message):
    """A message as comparable values, shipped matrices as their bytes."""
    if isinstance(message, MatricesMessage):
        return (
            "matrices", message.instance, message.generation,
            message.tuples_observed, message.matrices.freq.matrix.tobytes(),
            message.matrices.work.matrix.tobytes(),
        )
    assert isinstance(message, SyncReply)
    return ("reply", message.epoch, np.float64(message.delta).tobytes(), message.generation)


def pair_bytes(pair):
    return (
        pair.freq.matrix.tobytes(), pair.work.matrix.tobytes(),
        np.float64(pair.freq.total_weight).tobytes(),
        np.float64(pair.work.total_weight).tobytes(),
        pair.tuples_seen,
    )


def drive(operations, config, read_every_call):
    """Run ``operations`` on a fresh tracker beside ``oracle``, a pair
    that takes each tuple through ``FWPair.update`` and is wiped where
    the tracker ships or restarts; every shipped pair, and with
    ``read_every_call`` the tracker's pair after every call, must be
    the oracle's."""
    tracker = InstanceTracker(0, config, HASHES)
    oracle = FWPair(HASHES)
    sent = []
    for epoch, operation in enumerate(operations):
        kind = operation[0]
        shipped = tracker.matrices_sent
        if kind == "execute":
            _, item, time, sync = operation
            request = SyncRequest(0, epoch, 1.5) if sync else None
            messages = tracker.execute(item, time, request)
            batch = [(item, time)]
        elif kind == "batch":
            batch = operation[1][:tracker.window_remaining]
            items = [item for item, _ in batch]
            times = [time for _, time in batch]
            messages = tracker.execute_batch(items, times)
        else:
            tracker.restart()
            oracle.reset()
            messages, batch = [], []
        for item, time in batch:
            oracle.update(item, time)
        if tracker.matrices_sent > shipped:
            # a window closes on the call's last tuple; its ship comes
            # after the reply that tuple may carry
            message = messages[-1]
            assert isinstance(message, MatricesMessage)
            assert pair_bytes(message.matrices) == pair_bytes(oracle)
            oracle.reset()
        sent.append(list(map(wire, messages)))
        if read_every_call:
            assert pair_bytes(tracker.matrices) == pair_bytes(oracle)
    assert pair_bytes(tracker.matrices) == pair_bytes(oracle)
    return sent, tracker.stats(), pair_bytes(tracker.matrices)


@pytest.mark.parametrize("window", sorted(CONFIGS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reading_the_matrices_after_every_call_changes_nothing(window, data):
    calls = data.draw(operations(window))
    config = CONFIGS[window]
    assert drive(calls, config, True) == drive(calls, config, False)


def test_a_tracker_folds_once_per_window_close(monkeypatch):
    """Reports and batches that stop short of the boundary fold nothing;
    the close folds them in one ``FWPair.fold``, and a restart folds
    what it is about to wipe."""
    folds = []
    fold = FWPair.fold

    def counting(pair, items, times):
        folds.append(len(items))
        fold(pair, items, times)

    monkeypatch.setattr(FWPair, "fold", counting)
    tracker = InstanceTracker(0, CONFIGS[8], HASHES)
    tracker.execute_batch([1, 2, 3], [1.0, 2.0, 3.0])
    for item in (4, 5, 6, 7):
        tracker.execute(item, 1.0)
    assert folds == []
    tracker.execute(8, 1.0)  # the eighth tuple closes the window
    assert folds == [8]
    tracker.execute_batch([1, 2], [1.0, 1.0])
    tracker.restart()
    assert folds == [8, 2]
    tracker.stats()
    assert folds == [8, 2]
