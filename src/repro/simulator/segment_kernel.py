"""The segment router's inner loop, generated once per run shape.

Its s = 1 shape also runs the two paper baselines (``_run_baseline``):
Round-Robin in the round-robin arm, Full Knowledge in the greedy one.

A control-quiet segment of :func:`repro.simulator.run._run_posg` routes
each tuple by a first-minimum scan over its shard's believed loads,
adds its estimate, records the assignment (the stream index, appended
to the instance's index buffer through ``o{i}``) and counts its
instance's window down.  It only routes: a routing decision reads the
believed loads, never a queue, so FIFO service is landed after
routing, per instance, where a finish or busy clock is read
(``_Service`` in :mod:`repro.simulator.run`).  Python pays for every
list index on that path, so the loop is written out per *shape* — the
instance and shard counts and whether shards gossip — with each
quantity in a plain local: shard ``σ``'s loads ``cσ_i``, estimate
columns ``eσ_i``, round-robin counter ``rσ`` (``None`` while it routes
greedily), cursor ``pσ`` (``q`` itself at s = 1) and gossip count
``gσ``; instance ``i``'s window counter ``w{i}``.

The scan is unrolled with ``np.argmin``'s strict ``<`` tie-break.  A
greedy pick lands in one arm per (shard, instance) that adds the
estimate (gossiping it to the sibling locals when nonzero), records the
tuple, samples the probe with the shard's post-add loads, counts the
window down and goes round again; a round-robin pick of any shard falls
through to one countdown arm per instance, so the text grows with
``s·k``.  Every float operation is the reference engine's, in its
order.  The text is registered in :mod:`linecache`
(``<segment kernel k=5 s=4 gossip>``) for tracebacks and
:func:`inspect.getsource`.
"""

from __future__ import annotations

import functools
import linecache
from typing import NamedTuple


class Shape(NamedTuple):
    """What a run fixes about its segment loop when it starts."""

    k: int
    sources: int
    gossip: bool

    @property
    def label(self) -> str:
        gossip = ["gossip"] if self.gossip else []
        return " ".join([f"k={self.k}", f"s={self.sources}", *gossip])


_SIGNATURE = """\
def segment_kernel(
    blocks, q, stop, due, next_due, base, window_left, window_size,
    boundary, probe, appends,
):
"""
# The probe reads the instance's window count before the tuple counts it
# down, and runs before a window close, where the reference engine samples.
_SAMPLE = "due = probe({shard}, base + q, {instance}, {loads}, {left}) - base"
_COUNT_DOWN = """\
w{i} -= 1
if not w{i}:
    next_due, stop = boundary({i}, q + 1, next_due, stop)
    w{i} = window_size
"""


def _names(prefix: str, count: int) -> str:
    """``p0, p1, ...`` as an unpacking target or inside a tuple display."""
    return ", ".join(f"{prefix}{i}" for i in range(count)) + ("," if count == 1 else "")


def kernel_source(shape: Shape) -> str:
    """The Python text of ``shape``'s segment kernel."""
    k, sources = shape.k, shape.sources
    lines: list[str] = []

    def emit(depth: int, text: str) -> None:
        lines.extend("    " * depth + line for line in text.splitlines())

    def arms(variable: str, count: int, depth: int, body) -> None:
        """``body(n, depth)`` under ``if variable == n`` for each ``n``."""
        if count == 1:
            body(0, depth)
            return
        middle = [f"elif {variable} == {n}:" for n in range(1, count - 1)]
        for n, head in enumerate([f"if {variable} == 0:", *middle, "else:"]):
            emit(depth, head)
            body(n, depth + 1)

    def count_down(i: int, depth: int) -> None:
        emit(depth, _COUNT_DOWN.format(i=i))

    def route(shard: int, depth: int) -> None:
        """Shard ``shard``'s greedy arms, else its round-robin pick."""
        c, p = f"c{shard}_", "q" if sources == 1 else f"p{shard}"
        loads = f"({_names(c, k)})"

        emit(depth, f"if r{shard} is None:")
        emit(depth + 1, f"best = {c}0\ninstance = 0")
        for i in range(1, k):
            emit(depth + 1, f"if {c}{i} < best:")
            if i < k - 1:
                emit(depth + 2, f"best = {c}{i}")
            emit(depth + 2, f"instance = {i}")

        def arm(i: int, depth: int) -> None:
            if shape.gossip:
                emit(depth, f"estimate = e{shard}_{i}[{p}]\n{c}{i} += estimate")
                emit(depth, "if estimate != 0.0:")
                for sibling in range(sources):
                    if sibling != shard:
                        emit(depth + 1, f"c{sibling}_{i} += estimate")
                emit(depth + 1, f"g{shard} += 1")
            else:
                emit(depth, f"{c}{i} += e{shard}_{i}[{p}]")
            emit(depth, f"o{i}(base + q)")
            if sources > 1:
                emit(depth, f"p{shard} += 1")
            emit(depth, "if q == due:")
            emit(depth + 1, _SAMPLE.format(shard=shard, instance=i, loads=loads, left=f"w{i}"))
            count_down(i, depth)
            emit(depth, "q += 1")
            if sources > 1:
                emit(depth, f"shard = {(shard + 1) % sources}")
            emit(depth, "continue")

        arms("instance", k, depth + 1, arm)
        emit(depth, f"instance = r{shard} % {k}\nr{shard} += 1")
        if sources > 1:
            emit(depth, f"p{shard} += 1")

    emit(0, _SIGNATURE)
    emit(1, f'"""<{shape.label}>: route window positions [q, stop)."""')
    emit(1, f"{_names('w', k)} = window_left\n{_names('o', k)} = appends")
    emit(1, f"{_names('block', sources)} = blocks")
    for shard in range(sources):
        emit(1, f"{_names(f'c{shard}_', k)} = block{shard}._c\nr{shard} = block{shard}._rr")
        if sources > 1:
            emit(1, f"p{shard} = block{shard}._pos")
        if shape.gossip:
            emit(1, f"g{shard} = 0")
        emit(1, f"if r{shard} is None:")
        emit(2, f"{_names(f'e{shard}_', k)} = block{shard}._estimates")
    if sources > 1:
        emit(1, f"shard = (base + q) % {sources}")

    emit(1, "while q < stop:")
    arms("shard", sources, 2, route)
    emit(2, "appends[instance](base + q)\nif q == due:")

    def loads(shard: int, depth: int) -> None:
        emit(depth, f"loads = ({_names(f'c{shard}_', k)})")

    arms("shard", sources, 3, loads)
    owner = "shard" if sources > 1 else "0"
    left = f"({_names('w', k)})[instance]"
    emit(3, _SAMPLE.format(shard=owner, instance="instance", loads="loads", left=left))
    arms("instance", k, 2, count_down)
    emit(2, "q += 1")
    if sources > 1:
        emit(2, f"shard += 1\nif shard == {sources}:\n    shard = 0")

    for shard in range(sources):
        emit(1, f"block{shard}._c[:] = ({_names(f'c{shard}_', k)})")
        emit(1, f"block{shard}._rr = r{shard}")
        emit(1, f"block{shard}._pos = {'q' if sources == 1 else f'p{shard}'}")
    emit(1, f"window_left[:] = ({_names('w', k)})")
    gossiped = f"({_names('g', sources)})" if shape.gossip else "None"
    emit(1, f"return q, due, {gossiped}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def segment_kernel(shape: Shape):
    """``shape``'s kernel, compiled once per process.  It writes the blocks
    and ``window_left`` back and returns ``(q, due, gossiped)``:
    where it stopped, the next probe position, each shard's gossip count."""
    text = kernel_source(shape)
    filename = f"<segment kernel {shape.label}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    namespace = {"__name__": __name__}
    exec(compile(text, filename, "exec"), namespace)
    return namespace["segment_kernel"]
