"""The segment router's inner loop, generated once per run shape.

Its s = 1 shape also runs the two paper baselines (``_run_baseline``):
Round-Robin in the round-robin arm, Full Knowledge in the greedy one.

A control-quiet segment of :func:`repro.simulator.run._run_posg` routes
each tuple by a first-minimum scan over its shard's believed loads,
adds its estimate, serves it FIFO and counts its instance's window
down.  Python pays for every list index on that path, so the loop is
written out per *shape* with each quantity in a plain local: shard
``σ``'s loads ``cσ_i``, estimate columns ``eσ_i``, round-robin counter
``rσ`` (``None`` while it routes greedily), cursor ``pσ`` (``q`` itself
at s = 1), gossip count ``gσ`` and latency debt ``dσ_i``; instance
``i``'s busy clock ``b{i}``, window counter ``w{i}`` and execution and
arrival columns ``x{i}`` / ``a{i}`` (or latency draw ``l{i}``).

The scan is unrolled with ``np.argmin``'s strict ``<`` tie-break.  A
greedy pick lands in one arm per (shard, instance) that adds the
estimate (gossiping it to the sibling locals when nonzero), serves the
tuple, samples the probe with the shard's post-add loads and goes round
again; a round-robin pick of any shard falls through to one service arm
per instance, so the text grows with ``s·k``.  Every float operation is
the reference engine's, in its order.  The text is registered in
:mod:`linecache` (``<segment kernel k=5 s=4 gossip>``) for tracebacks and
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
    two_choices: bool
    hinted: bool
    random_latency: bool

    @property
    def label(self) -> str:
        flags = ("gossip", "two-choices", "hinted", "random-latency")
        named = [flag for flag, on in zip(flags, self[2:]) if on]
        return " ".join([f"k={self.k}", f"s={self.sources}", *named])


_SIGNATURE = """\
def segment_kernel(
    blocks, q, stop, due, next_due, base, items, arrivals, at_columns,
    execution_columns, busy, window_left, window_size, boundary, probe,
    fin_append, asg_append, hints, draws,
):
"""
_SERVE = """\
at_instance = {arrival}
b = b{i}
if at_instance > b:
    b = at_instance
execution_time = x{i}[q]
finish = b + execution_time
b{i} = finish
fin_append(finish)
asg_append({i})
w{i} -= 1
if not w{i}:
    next_due, stop = boundary(
        {i}, items[q], execution_time, finish, q + 1, next_due, stop
    )
    w{i} = window_size
"""
# ``left`` is the window count after the tuple: before it, the count
# was 1 if the tuple closed the window and ``left + 1`` otherwise.
_SAMPLE = """\
due = probe(
    {shard}, base + q, items[q], {instance}, {loads}, arrivals[q],
    at_instance, b, finish, execution_time,
    1 if {left} == window_size else {left} + 1,
) - base
"""
_TWO_CHOICES = """\
alt = items[q] % {k}
if alt == instance:
    alt = alt + 1 if alt + 1 < {k} else 0
if {loads}[alt] + E{shard}[alt][{p}] < best + E{shard}[instance][{p}]:
    instance = alt
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

    def serve(i: int, depth: int) -> None:
        arrival = f"arrivals[q] + l{i}()" if shape.random_latency else f"a{i}[q]"
        emit(depth, _SERVE.format(arrival=arrival, i=i))

    def route(shard: int, depth: int) -> None:
        """Shard ``shard``'s greedy arms, else its round-robin pick."""
        c, p = f"c{shard}_", "q" if sources == 1 else f"p{shard}"
        loads = f"({_names(c, k)})"

        def term(i: int) -> str:
            return f"({c}{i} + d{shard}_{i}) + h{i}" if shape.hinted else f"{c}{i}"

        emit(depth, f"if r{shard} is None:")
        emit(depth + 1, f"best = {term(0)}\ninstance = 0")
        for i in range(1, k):
            value = term(i)
            if shape.hinted:
                emit(depth + 1, f"value = {value}")
                value = "value"
            emit(depth + 1, f"if {value} < best:")
            if i < k - 1 or shape.two_choices:
                emit(depth + 2, f"best = {value}")
            emit(depth + 2, f"instance = {i}")
        if shape.two_choices:
            emit(depth + 1, _TWO_CHOICES.format(k=k, loads=loads, shard=shard, p=p))

        def arm(i: int, depth: int) -> None:
            if shape.hinted:
                emit(depth, f"d{shard}_{i} += h{i}")
            if shape.gossip:
                emit(depth, f"estimate = e{shard}_{i}[{p}]\n{c}{i} += estimate")
                emit(depth, "if estimate != 0.0:")
                for sibling in range(sources):
                    if sibling != shard:
                        emit(depth + 1, f"c{sibling}_{i} += estimate")
                emit(depth + 1, f"g{shard} += 1")
            else:
                emit(depth, f"{c}{i} += e{shard}_{i}[{p}]")
            serve(i, depth)
            if sources > 1:
                emit(depth, f"p{shard} += 1")
            emit(depth, "if q == due:")
            emit(depth + 1, _SAMPLE.format(shard=shard, instance=i, loads=loads, left=f"w{i}"))
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
    for prefix, column in (("b", "busy"), ("w", "window_left"), ("x", "execution_columns")):
        emit(1, f"{_names(prefix, k)} = {column}")
    if shape.random_latency:
        emit(1, f"{_names('l', k)} = draws")
    else:
        emit(1, f"{_names('a', k)} = at_columns")
    if shape.hinted:
        emit(1, f"{_names('h', k)} = hints")
    emit(1, f"{_names('block', sources)} = blocks")
    for shard in range(sources):
        emit(1, f"{_names(f'c{shard}_', k)} = block{shard}._c\nr{shard} = block{shard}._rr")
        if sources > 1:
            emit(1, f"p{shard} = block{shard}._pos")
        if shape.gossip:
            emit(1, f"g{shard} = 0")
        emit(1, f"if r{shard} is None:")
        emit(2, f"E{shard} = block{shard}._estimates\n{_names(f'e{shard}_', k)} = E{shard}")
        if shape.hinted:
            emit(2, f"{_names(f'd{shard}_', k)} = block{shard}._debt")
    if sources > 1:
        emit(1, f"shard = (base + q) % {sources}")

    emit(1, "while q < stop:")
    arms("shard", sources, 2, route)
    arms("instance", k, 2, serve)
    emit(2, "if q == due:")

    def loads(shard: int, depth: int) -> None:
        emit(depth, f"loads = ({_names(f'c{shard}_', k)})")

    arms("shard", sources, 3, loads)
    emit(3, f"left = ({_names('w', k)})[instance]")
    owner = "shard" if sources > 1 else "0"
    emit(3, _SAMPLE.format(shard=owner, instance="instance", loads="loads", left="left"))
    emit(2, "q += 1")
    if sources > 1:
        emit(2, f"shard += 1\nif shard == {sources}:\n    shard = 0")

    for shard in range(sources):
        emit(1, f"block{shard}._c[:] = ({_names(f'c{shard}_', k)})")
        emit(1, f"block{shard}._rr = r{shard}")
        emit(1, f"block{shard}._pos = {'q' if sources == 1 else f'p{shard}'}")
        if shape.hinted:
            emit(1, f"if r{shard} is None:")
            emit(2, f"block{shard}._debt[:] = ({_names(f'd{shard}_', k)})")
    emit(1, f"busy[:] = ({_names('b', k)})\nwindow_left[:] = ({_names('w', k)})")
    gossiped = f"({_names('g', sources)})" if shape.gossip else "None"
    emit(1, f"return q, due, {gossiped}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def segment_kernel(shape: Shape):
    """``shape``'s kernel, compiled once per process.  It writes the blocks,
    ``busy`` and ``window_left`` back and returns ``(q, due, gossiped)``:
    where it stopped, the next probe position, each shard's gossip count."""
    text = kernel_source(shape)
    filename = f"<segment kernel {shape.label}>"
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    namespace = {"__name__": __name__}
    exec(compile(text, filename, "exec"), namespace)
    return namespace["segment_kernel"]
