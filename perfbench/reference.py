"""Reference task: a yardstick for host speed, timed beside every episode.

The benchmark runs on shared machines whose speed drifts: the same
episode can take twice as long for minutes at a time while other tenants
are busy (``README.md``, "Noise").  Raw host seconds of one run therefore
say as much about the neighbours as about the program.  This module
times a fixed pure-Python task, a tiny discrete-event loop (heap of
timed callbacks, small objects, dictionary lookups, a growing record
list), just before and just after every episode, and the benchmark
reports an episode's host time in units of that task's time (``ref``).
Drift slows both; a change to the program moves only the episode.

The task imports nothing from the program under test, so no program
change can make it faster or slower.  A workload that runs on several
worker processes is measured against the task run on as many processes
at once, so both see every core they use.
"""

from __future__ import annotations

import gc
import heapq
import multiprocessing
import statistics
from time import perf_counter
from typing import List

#: Host seconds one sample spends on the task, per process, as a share of
#: the episode it brackets (at least ``MIN_SAMPLE_SECONDS`` and
#: ``MIN_REPEATS`` whole tasks): long enough to average over the host's
#: millisecond-scale speed flicker, short next to the episode.
SAMPLE_SHARE = 0.2
MIN_SAMPLE_SECONDS = 0.15
MIN_REPEATS = 3


class _Frame:
    def __init__(self, src: str, dst: str, size: int, seq: int) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.seq = seq
        self.hops = 0


class _Node:
    def __init__(self, name: str, table: dict) -> None:
        self.name = name
        self.table = table
        self.received = 0

    def receive(self, loop: "_Loop", frame: _Frame) -> None:
        self.received += 1
        frame.hops += 1
        following = self.table.get((frame.dst, frame.size & 3))
        if following is not None and frame.hops < 6:
            loop.schedule(7 + (frame.seq & 15), following.receive, frame)
        else:
            loop.records.append((loop.now, self.name, frame.seq, frame.hops))


class _Loop:
    def __init__(self) -> None:
        self.now = 0
        self.queue: list = []
        self.seq = 0
        self.records: list = []

    def schedule(self, delay: int, callback, argument) -> None:
        self.seq += 1
        heapq.heappush(self.queue,
                       (self.now + delay, self.seq, callback, argument))

    def run(self) -> None:
        queue = self.queue
        while queue:
            self.now, _, callback, argument = heapq.heappop(queue)
            callback(self, argument)


def task(frames: int = 2500) -> int:
    """One fixed unit of work; returns the record count (always *frames*)."""
    table: dict = {}
    nodes = [_Node(f"n{index}", table) for index in range(16)]
    for host in range(64):
        for lane in range(4):
            table[(f"h{host}", lane)] = nodes[(host * 7 + lane) % 16]
    loop = _Loop()
    for seq in range(frames):
        loop.schedule(seq, nodes[seq % 16].receive,
                      _Frame(f"h{seq % 50}", f"h{seq * 13 % 64}",
                             seq % 1500, seq))
    loop.run()
    return len(loop.records)


def sample_s(seconds: float = MIN_SAMPLE_SECONDS) -> float:
    """Mean host seconds of one task over about *seconds*.

    The garbage collector is off meanwhile: how long a collection takes
    depends on the heap the episode left behind, not on host speed.
    """
    times: List[float] = []
    spent = 0.0
    collecting = gc.isenabled()
    gc.disable()
    try:
        while len(times) < MIN_REPEATS or spent < seconds:
            started = perf_counter()
            task()
            times.append(perf_counter() - started)
            spent += times[-1]
    finally:
        if collecting:
            gc.enable()
    return statistics.fmean(times)


class Yardstick:
    """Samples the reference task on *processes* processes at once.

    With more than one, a pool of that many workers is started once and
    kept (idle between samples) until the ``with`` block ends, so a sample
    costs no process start-up; its processes are stopped and waited for on
    every way out of the block.
    """

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes
        self._pool = None
        if processes > 1:
            self._pool = multiprocessing.get_context("fork").Pool(processes)

    def sample(self, episode_s: float = 0.0) -> float:
        """Host seconds of one task, averaged over the processes.

        The sample lasts ``SAMPLE_SHARE`` of *episode_s*, the host time of
        the episode it brackets, and at least ``MIN_SAMPLE_SECONDS``.
        """
        seconds = max(MIN_SAMPLE_SECONDS, SAMPLE_SHARE * episode_s)
        if self._pool is None:
            return sample_s(seconds)
        return statistics.fmean(self._pool.map(
            sample_s, [seconds] * self.processes, chunksize=1))

    def __enter__(self) -> "Yardstick":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
