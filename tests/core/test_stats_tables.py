"""The ``STATS`` tables of the scheduler and the instance tracker.

Each counter is declared once; ``stats()``, the exported samples and the
read-only accessors all derive from its row.  ``test_exports_pin.py``
pins what they export; these tests pin the derivation itself.
"""

from repro.core import instance, scheduler
from tests.core.test_exports_pin import K, faulted_run


def test_each_accessor_reads_its_stats_value():
    policy, _ = faulted_run(2)
    owners = [(shard, scheduler.STATS) for shard in policy.schedulers]
    owners += [(policy.tracker(i), instance.STATS) for i in range(K)]
    for owner, table in owners:
        stats = owner.stats()
        for row in table:
            accessor = row.attr.lstrip("_")
            assert getattr(owner, accessor) == stats[row.key], accessor
            assert type(owner).__dict__[accessor].__doc__


def test_metric_names_and_help_texts_are_declared_once():
    rows = [row for row in scheduler.STATS + instance.STATS if row.metric]
    assert len({row.metric for row in rows}) == len(rows)
    assert len({row.help for row in rows}) == len(rows)
