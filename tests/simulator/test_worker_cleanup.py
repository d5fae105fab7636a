"""Crash-mid-run hygiene: a worker that dies or stops must not leak.

Whatever takes a worker down — a raw ``SIGKILL`` from outside (the OOM
killer's signature move) or a stop that leaves it alive but silent —
the parent must end the run with a crisp ``RuntimeError``, unlink its
shared-memory arena, leave no child process behind and print no
``resource_tracker`` complaint on stderr.

Each case runs in a subprocess harness: the simulation runs in a
thread, and its first segment dispatch waits until the main thread has
parked the ``posg-shard-worker-0`` child with ``SIGSTOP``.  The
``kill`` mode then ``SIGKILL``\\ s the parked worker; the ``stop`` mode
leaves it stopped, with the ack deadline shrunk to one second.  The leak
check looks only for the arena this harness created, so segments other
processes create in ``/dev/shm`` meanwhile cannot fail it.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

HARNESS = """
import json
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np

from repro.core.config import POSGConfig
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.simulator import parallel
from repro.workloads.synthetic import default_stream

start_method, mode = sys.argv[1], sys.argv[2]
if mode == "stop":
    parallel.ACK_DEADLINE_S = 1.0

arenas = []


class RecordingArena(parallel.ShardArena):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.owner:
            arenas.append(self.name)


parallel.ShardArena = RecordingArena

dispatching = threading.Event()
parked = threading.Event()
route_segment = parallel._Pool.route_segment


def hold_first_dispatch(self, start, end):
    if not dispatching.is_set():
        dispatching.set()
        parked.wait(60.0)
    return route_segment(self, start, end)


parallel._Pool.route_segment = hold_first_dispatch

outcome = {}


def run():
    try:
        parallel.simulate_stream_parallel(
            default_stream(seed=0, m=8_000),
            MultiSourcePOSGGrouping(4, POSGConfig(window_size=128)),
            workers=2,
            k=5,
            rng=np.random.default_rng(1),
            chunk_size=2048,
            start_method=start_method,
        )
        outcome["status"] = "completed"
    except RuntimeError as error:
        outcome["status"] = "error"
        outcome["message"] = str(error)


thread = threading.Thread(target=run)
thread.start()
assert dispatching.wait(60.0), "the run never dispatched a segment"
victim = next(
    child
    for child in multiprocessing.active_children()
    if child.name == "posg-shard-worker-0"
)
os.kill(victim.pid, signal.SIGSTOP)
parked.set()
if mode == "kill":
    time.sleep(0.5)
    os.kill(victim.pid, signal.SIGKILL)

thread.join(timeout=120)
assert not thread.is_alive(), "simulation never returned"

outcome["arenas"] = len(arenas)
outcome["leaked_shm"] = [
    name for name in arenas if os.path.exists(os.path.join("/dev/shm", name))
]
outcome["children"] = [child.name for child in multiprocessing.active_children()]
print(json.dumps(outcome))
"""


def run_harness(start_method, mode):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", HARNESS, start_method, mode],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert proc.returncode == 0, (
        f"harness failed (rc={proc.returncode})\n"
        f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
    )
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    return outcome, proc.stderr


def assert_clean(outcome, stderr):
    assert outcome["arenas"] == 1
    assert outcome["leaked_shm"] == []
    assert outcome["children"] == []
    assert "resource_tracker" not in stderr


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_sigkill_without_supervision_fails_cleanly(start_method):
    outcome, stderr = run_harness(start_method, "kill")
    assert outcome["status"] == "error"
    assert "crash" in outcome["message"]
    assert_clean(outcome, stderr)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_missed_ack_deadline_fails_cleanly(start_method):
    outcome, stderr = run_harness(start_method, "stop")
    assert outcome["status"] == "error"
    assert "no ack within 1 s" in outcome["message"]
    assert_clean(outcome, stderr)
