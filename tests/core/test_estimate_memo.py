"""The scheduler's estimate memo and estimate table never outlive their matrices.

``POSGScheduler.estimate`` memoises ``(item, instance)`` (per item when
pooled) until a write to ``_matrices`` moves ``_matrices_version``, and
``_block_estimates`` reads ``(instance, id)`` cells out of a table whose
row a delivery for that instance voids, and which serves a row only to
a reader holding the pair that filled it.  Random walks over ``submit``,
``on_message`` and block gathers — replaced and merged matrices, the
staleness watchdog dropping pairs, restart
generations — must leave ``estimate()`` and every gathered column equal
to a recomputation from ``_matrices`` after every step, with memo and
table kept warm so a missed invalidation shows at once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import POSGConfig, RecoveryConfig
from repro.core.matrices import FWPair, make_shared_hashes
from repro.core.messages import MatricesMessage, SyncReply
from repro.core.scheduler import POSGScheduler
from repro.sketches.bucket_cache import MAX_CACHED_ITEM

ITEMS = range(12)
#: ids a block may hold: the walk's items, one past the table's first
#: 1024 slots (a capacity doubling), and both sides of the tabled range
BLOCK_IDS = [*ITEMS, 1_500, MAX_CACHED_ITEM + 1, -3]
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
        st.tuples(
            st.just("gather"),
            st.lists(st.sampled_from(BLOCK_IDS), min_size=1, max_size=8),
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


def table_free(scheduler, items):
    """``_block_estimates`` as ``FWPair.estimate_many`` states it."""
    items = np.asarray(items, dtype=np.int64)
    pairs = list(scheduler._matrices.values())
    if scheduler._config.pooled_estimates and pairs:
        total = np.zeros(len(items))
        for pair in pairs:
            total = total + pair.estimate_many(items)
        return [(total / len(pairs)).tolist()] * scheduler.k
    return [
        scheduler._matrices[instance].estimate_many(items).tolist()
        if instance in scheduler._matrices
        else [0.0] * len(items)
        for instance in range(scheduler.k)
    ]


def block_values(scheduler, items):
    """A block's estimate columns as lists: the values, whatever holds them."""
    gathered = scheduler._block_estimates(np.asarray(items, dtype=np.int64))
    return [list(column) for column in gathered]


def assert_table_fresh(scheduler, items=tuple(ITEMS)):
    assert block_values(scheduler, items) == table_free(scheduler, items)


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
        assert_table_fresh(scheduler)
        for step in steps:
            if step[0] == "gather":
                assert_table_fresh(scheduler, step[1])
            elif step[0] == "submit":
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
            assert_table_fresh(scheduler)
        # a fresh gather never evaluates less than the table did
        assert scheduler._table.evaluations <= scheduler._table.requests

    @pytest.mark.parametrize("pooled", [False, True])
    def test_a_merge_moves_a_memoised_estimate(self, pooled):
        """The mutant "no invalidation on merge" dies here: the stored
        pair is mutated in place, so only the clear at the write can tell."""
        config = POSGConfig(
            rows=2, cols=8, merge_matrices=True, pooled_estimates=pooled,
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


    def test_pooled_pairs_on_two_hash_families_read_their_own_columns(self):
        """A pooled miss hashes the item once when every stored pair shares
        one family; pairs on two families must each read their own
        columns, and an instance without matrices adds nothing."""
        config = POSGConfig(rows=2, cols=8, pooled_estimates=True)
        families = [
            make_shared_hashes(config, np.random.default_rng(seed)) for seed in (0, 1)
        ]
        #: never observed by any pair: the estimates read the pairs' means
        unseen = (40, 41, 1_000)
        assert any(
            families[0].hash_all(item) != families[1].hash_all(item)
            for item in ITEMS
        )
        scheduler = POSGScheduler(4, config)  # instance 3 never delivers
        rng = np.random.default_rng(2)
        # (instance, family): shared, mixed, mixed, shared again, mixed
        for instance, family in ((0, 0), (1, 1), (2, 0), (1, 0), (0, 1)):
            samples = [
                (int(rng.integers(0, len(ITEMS))), float(rng.uniform(0.5, 25.0)))
                for _ in range(5)
            ]
            deliver(scheduler, instance, families[family], samples)
            for item in (*ITEMS, *unseen):
                for target in range(4):
                    assert scheduler.estimate(item, target) == memo_free(
                        scheduler, item, target
                    )


def deliver(scheduler, instance, hashes, samples):
    scheduler.on_message(
        MatricesMessage(instance, pair_of(hashes, samples), len(samples))
    )


class TestEstimateTable:
    """What each test here kills is recorded in CHANGES.md (PR 16)."""

    @staticmethod
    def warmed(k=3, **overrides):
        config = POSGConfig(rows=2, cols=8, **overrides)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(k, config)
        for instance in range(k):
            deliver(scheduler, instance, hashes, [(3, 1.0 + instance), (5, 7.0)])
        return scheduler, hashes

    @pytest.mark.parametrize("pooled", [False, True])
    def test_a_merge_voids_the_merged_row(self, pooled):
        """The stored pair is mutated in place by ``merge``, so only the
        dirty mark at the write can tell the row moved."""
        scheduler, hashes = self.warmed(
            merge_matrices=True, pooled_estimates=pooled
        )
        before = block_values(scheduler, [3, 5, 3])
        stored = scheduler._matrices[1]
        deliver(scheduler, 1, hashes, [(3, 25.0)])
        assert scheduler._matrices[1] is stored
        after = block_values(scheduler, [3, 5, 3])
        assert after == table_free(scheduler, [3, 5, 3])
        assert after[1][0] > before[1][0]
        if not pooled:
            assert after[0] == before[0] and after[2] == before[2]

    def test_a_delivery_costs_one_row_and_only_what_is_read(self):
        scheduler, hashes = self.warmed()
        block = np.array([3, 5, 3, 7])
        scheduler._block_estimates(block)
        evaluated = scheduler._table.evaluations
        # one evaluation per (instance, distinct id): id 3 sits at two
        # positions of the block and is evaluated once per row
        assert evaluated == 3 * 3
        scheduler._block_estimates(block)
        assert scheduler._table.evaluations == evaluated  # all repeats
        deliver(scheduler, 2, hashes, [(7, 4.0)])
        scheduler._block_estimates(np.array([5, 5]))
        assert scheduler._table.evaluations == evaluated + 1  # row 2, id 5
        assert_table_fresh(scheduler, block)

    def test_a_repeated_id_reads_the_same_float_at_every_position(self):
        scheduler, hashes = self.warmed()
        for block in ([3, 5, 3, 7], [3, 3, 3], [7, 3, 5, 3]):
            deliver(scheduler, 1, hashes, [(3, 1.0 / 3.0), (5, 0.1)])  # voids row 1
            for instance, column in enumerate(block_values(scheduler, block)):
                pair = scheduler._matrices[instance]
                assert column == [pair.estimate(item) for item in block]
                at = [j for j, item in enumerate(block) if item == 3]
                assert len({column[j].hex() for j in at}) == 1

    def test_a_fill_is_scalar_estimate_cell_by_cell(self):
        """``estimate_many_stacked`` against ``FWPair.estimate`` on five
        warmed pairs: trained ones, a sparse one (never-observed ids read
        its mean) and an empty one (reads 0.0)."""
        config = POSGConfig(rows=4, cols=54)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(5, config)
        rng = np.random.default_rng(1)
        for instance, samples in enumerate((400, 300, 200, 3, 0)):
            deliver(
                scheduler, instance, hashes,
                [
                    (int(rng.integers(0, 256)), float(rng.uniform(1.0, 8.0)))
                    for _ in range(samples)
                ],
            )
        block = rng.integers(0, 512, size=700).tolist()
        columns = block_values(scheduler, block)
        # the table's fill ran, once per (pair, distinct id)
        assert scheduler._table.evaluations == 5 * len(set(block))
        for instance, column in enumerate(columns):
            pair = scheduler._matrices[instance]
            assert column == [pair.estimate(item) for item in block]
        assert set(columns[4]) == {0.0}
        assert scheduler._matrices[3].mean_execution_time() in columns[3]

    def test_an_id_first_seen_after_a_fill_is_filled_in_every_row(self):
        """Validity is per (row, id): a row that filled ids 3 and 5 has
        not filled 9, and a voided row that re-filled 9 has not 3."""
        scheduler, hashes = self.warmed()
        assert_table_fresh(scheduler, [3, 5])
        assert_table_fresh(scheduler, [9, 3])
        deliver(scheduler, 0, hashes, [(9, 2.0), (3, 8.0)])
        assert_table_fresh(scheduler, [9])
        assert_table_fresh(scheduler, [3, 5, 9])

    def test_pooled_sum_follows_first_arrival_order(self):
        """Float addition does not associate: 1e16 + 1 + 1 depends on
        who is summed first, and ``estimate`` sums in arrival order."""
        config = POSGConfig(rows=2, cols=8, pooled_estimates=True)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(3, config)
        for instance, time in ((2, 1.0), (1, 1.0), (0, 1e16)):
            deliver(scheduler, instance, hashes, [(3, time)])
        assert list(scheduler._matrices) == [2, 1, 0]
        arrival = ((0.0 + 1.0) + 1.0) + 1e16
        by_instance = ((0.0 + 1e16) + 1.0) + 1.0
        assert arrival != by_instance
        (column,) = {tuple(c) for c in scheduler._block_estimates(np.array([3]))}
        assert column == (arrival / 3,) == (scheduler.estimate(3, 0),)

    def test_capacity_doubling_keeps_what_was_filled(self):
        scheduler, hashes = self.warmed()
        assert_table_fresh(scheduler, [3, 5])
        capacity = scheduler._table.valid.shape[1]
        evaluated = scheduler._table.evaluations
        assert_table_fresh(scheduler, [3, capacity + 7])
        assert scheduler._table.valid.shape[1] == 2 * capacity
        # id 3 survived the copy; only the new id was evaluated
        assert scheduler._table.evaluations == evaluated + 3
        deliver(scheduler, 1, hashes, [(capacity + 7, 2.0)])
        assert_table_fresh(scheduler, [3, capacity + 7])

    def test_two_schedulers_on_one_family_keep_their_own_rows(self):
        """Shards share the hash family (and its bucket cache), never
        the matrices: a table hung on the family would mix them."""
        ours, hashes = self.warmed()
        theirs = POSGScheduler(3, ours.config)
        for instance in range(3):
            deliver(theirs, instance, hashes, [(3, 40.0 + instance)])
        for scheduler in (ours, theirs, ours, theirs):
            assert_table_fresh(scheduler, [3, 5, 9])
        assert ours._block_estimates(np.array([3])) != theirs._block_estimates(
            np.array([3])
        )

    def test_a_shared_row_serves_only_the_pair_that_filled_it(self):
        """Two schedulers on one table, storing the same pairs but for
        instance 1: each reads its own pair's values there, the rows of
        the pairs they share are evaluated once, and the row they
        disagree on is re-claimed (and re-evaluated) at each switch."""
        ours, hashes = self.warmed()
        theirs = POSGScheduler(3, ours.config)
        theirs._table = ours._table
        for instance in range(3):
            theirs.on_message(MatricesMessage(instance, ours._matrices[instance], 1))
        deliver(theirs, 1, hashes, [(3, 40.0), (5, 0.5)])
        assert theirs._matrices[0] is ours._matrices[0]
        assert theirs._matrices[1] is not ours._matrices[1]
        block = [3, 5, 3]
        for scheduler in (ours, theirs, ours, theirs):
            assert_table_fresh(scheduler, block)
        assert ours.estimate(3, 1) != theirs.estimate(3, 1)
        # three rows x two ids once, then row 1's two ids at each switch
        assert ours._table.evaluations == 3 * 2 + 3 * 2
        assert_table_fresh(theirs, block)
        assert ours._table.evaluations == 12

    def test_ids_outside_the_tabled_range_are_gathered_afresh(self):
        scheduler, _ = self.warmed(k=2)
        limit = scheduler._table.limit
        assert limit < MAX_CACHED_ITEM  # k x capacity is what is bounded
        for block in ([5, limit], [5, limit + 1], [-1, 5], [MAX_CACHED_ITEM + 9]):
            before = scheduler._table.evaluations
            assert_table_fresh(scheduler, block)
            assert_table_fresh(scheduler, block)
            tabled = 0 <= min(block) and max(block) <= limit
            assert scheduler._table.evaluations - before == (
                (1 if tabled else 2) * 2 * len(block)
            )
        assert scheduler._table.valid.shape[1] == limit + 1

    def test_an_instance_without_matrices_reads_zero(self):
        config = POSGConfig(rows=2, cols=8)
        hashes = make_shared_hashes(config, np.random.default_rng(0))
        scheduler = POSGScheduler(2, config)
        for instance in range(2):
            deliver(scheduler, instance, hashes, [(3, 4.0)])
        assert block_values(scheduler, [3])[1] == [4.0]
        del scheduler._matrices[1]
        scheduler._matrices_changed([1])
        assert block_values(scheduler, [3]) == [[4.0], [0.0]]
        deliver(scheduler, 1, hashes, [(3, 9.0)])
        assert block_values(scheduler, [3]) == [[4.0], [9.0]]
