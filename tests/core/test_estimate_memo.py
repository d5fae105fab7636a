"""The scheduler's per-tuple estimate memo never outlives its matrices.

``POSGScheduler.estimate`` memoises ``(item, instance)`` (per item when
pooled) until a write to ``_matrices`` moves ``_matrices_version``.  Random walks over ``submit``
and ``on_message`` — replaced and merged matrices, ``merge_decay < 1``,
the staleness watchdog dropping pairs, restart generations — must leave
``estimate()`` equal to a recomputation from ``_matrices`` after every
step, with the memo kept warm so a missed invalidation shows at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.messages import MatricesMessage, SyncReply
from repro.core.scheduler import POSGScheduler

ITEMS = range(12)
#: a watchdog that fires within a walk of ~80 steps
WATCHDOG = RecoveryConfig(
    sync_timeout=4, sync_timeout_max=8, sync_max_retries=1, staleness_limit=12,
    rebroadcast_windows=None,
)
SAMPLES = st.lists(
    st.tuples(st.sampled_from(ITEMS), st.sampled_from([0.5, 1.0, 3.0, 25.0])),
    min_size=1, max_size=6,
)
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(ITEMS)),
        st.tuples(
            st.just("matrices"), st.integers(0, 3), SAMPLES,
            st.booleans(),  # from a restarted incarnation
        ),
        st.tuples(
            st.just("reply"), st.integers(0, 3), st.integers(0, 2),
            st.sampled_from([-2.0, 0.0, 5.0]),
        ),
    ),
    max_size=80,
)
CONFIGS = st.builds(
    POSGConfig,
    rows=st.just(2),
    cols=st.just(8),
    pooled_estimates=st.booleans(),
    merge_matrices=st.booleans(),
    merge_decay=st.sampled_from([1.0, 0.5]),
    recovery=st.sampled_from([None, WATCHDOG]),
)


def memo_free(scheduler, item, instance):
    """``estimate`` as the paper states it, straight from the matrices."""
    pairs = list(scheduler._matrices.values())
    if scheduler._config.pooled_estimates and pairs:
        return sum(pair.estimate(item) for pair in pairs) / len(pairs)
    pair = scheduler._matrices.get(instance)
    return pair.estimate(item) if pair is not None else 0.0


def assert_memo_fresh(scheduler, k):
    for item in ITEMS:
        for instance in range(k):
            assert scheduler.estimate(item, instance) == memo_free(
                scheduler, item, instance
            )


def pair_of(hashes, samples):
    pair = FWPair(hashes)
    for item, time in samples:
        pair.update(item, time)
    return pair


class TestEstimateMemo:
    @given(st.integers(1, 4), CONFIGS, STEPS)
    @settings(max_examples=150, deadline=None)
    def test_estimate_equals_recomputation_after_every_step(self, k, config, steps):
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(k, config)
        generations = [0] * k
        assert_memo_fresh(scheduler, k)
        for step in steps:
            if step[0] == "submit":
                decision = scheduler.submit(step[1])
                # what submit added to C_hat is the memo-free estimate too
                if decision.estimate:
                    assert decision.estimate == memo_free(
                        scheduler, step[1], decision.instance
                    )
            elif step[0] == "matrices":
                _, instance, samples, restarted = step
                instance %= k
                generations[instance] += restarted
                scheduler.on_message(
                    MatricesMessage(
                        instance=instance,
                        matrices=pair_of(hashes, samples),
                        tuples_observed=len(samples),
                        generation=generations[instance],
                    )
                )
            else:
                _, instance, epoch_lag, delta = step
                scheduler.on_message(
                    SyncReply(
                        instance=instance % k,
                        epoch=scheduler.stats()["epoch"] - epoch_lag,
                        delta=delta,
                        generation=generations[instance % k],
                    )
                )
            assert_memo_fresh(scheduler, k)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_a_merge_moves_a_memoised_estimate(self, pooled):
        """The mutant "no invalidation on merge" dies here: the stored
        pair is mutated in place, so only the clear at the write can tell."""
        config = POSGConfig(
            rows=2, cols=8, merge_matrices=True, merge_decay=0.5,
            pooled_estimates=pooled,
        )
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(2, config)
        for instance in range(2):
            scheduler.on_message(
                MatricesMessage(instance, pair_of(hashes, [(3, 1.0)]), 1)
            )
        before = scheduler.estimate(3, 0)
        assert before == 1.0
        stored = scheduler._matrices[0]
        scheduler.on_message(
            MatricesMessage(0, pair_of(hashes, [(3, 25.0)]), 1)
        )
        assert scheduler._matrices[0] is stored  # merged in place
        after = scheduler.estimate(3, 0)
        assert after == memo_free(scheduler, 3, 0)
        assert after > before

    def test_the_watchdog_dropping_a_pair_clears_its_estimates(self):
        config = POSGConfig(rows=2, cols=8, recovery=WATCHDOG)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(2, config)
        for instance in range(2):
            scheduler.on_message(
                MatricesMessage(instance, pair_of(hashes, [(3, 4.0)]), 1)
            )
        assert scheduler.estimate(3, 1) == 4.0
        for _ in range(WATCHDOG.staleness_limit + 2):
            scheduler.submit(3)
        assert scheduler.stats()["watchdog_fallbacks"] == 1
        assert scheduler.estimate(3, 1) == 0.0
