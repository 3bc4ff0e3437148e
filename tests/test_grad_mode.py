"""Grad mode is per thread: serving threads never switch off training's tape.

Replica and engine worker threads score under :func:`no_grad` while the
online pipeline retrains on the main thread.  With one process-wide flag,
two threads' overlapping contexts restore each other's saved value and
can leave recording off everywhere; training then fails with
``GradientError`` or silently records a partial graph.
"""

from __future__ import annotations

import queue
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueueFullError
from repro.serving import ClusterConfig, ClusterSupervisor, ScoreRequest
from repro.serving.behavior_card import zigong_replica_factory
from repro.tensor import is_grad_enabled, no_grad


class Conductor(threading.Thread):
    """A thread that opens and closes ``no_grad`` contexts on command.

    The caller hands it one command at a time and waits for the reply
    (this thread's grad mode afterwards), so interleavings across
    threads are chosen by the caller, not the scheduler.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.commands: queue.Queue = queue.Queue()
        self.replies: queue.Queue = queue.Queue()
        self.depth = 0  # open contexts, as tracked by the caller

    def run(self):
        contexts = []
        while True:
            command = self.commands.get()
            if command == "enter":
                contexts.append(no_grad())
                contexts[-1].__enter__()
            elif command == "exit":
                contexts.pop().__exit__(None, None, None)
            self.replies.put(is_grad_enabled())
            if command == "stop":
                return

    def do(self, command: str) -> bool:
        self.depth += {"enter": 1, "exit": -1}.get(command, 0)
        self.commands.put(command)
        return self.replies.get(timeout=5)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=12))
def test_no_grad_interleaved_across_two_threads(steps):
    """Each thread's grad mode is off exactly while it has a context open."""
    threads = [Conductor(), Conductor()]
    for thread in threads:
        thread.start()
    try:
        # ``True`` opens a context; ``False`` closes one (or opens one
        # if none is open), then every open context closes in turn.
        schedule = []
        depths = [0, 0]
        for index, enter in steps:
            enter = enter or depths[index] == 0
            depths[index] += 1 if enter else -1
            schedule.append((index, "enter" if enter else "exit"))
        for index in (0, 1):
            schedule.extend([(index, "exit")] * depths[index])
        for index, command in schedule:
            threads[index].do(command)
            for thread in threads:
                assert thread.do("probe") == (thread.depth == 0)
        assert all(thread.do("stop") for thread in threads)
        assert is_grad_enabled()
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.commands.put("stop")
            thread.join(timeout=5)


def test_no_grad_stress_across_many_threads():
    """More threads than cores, fast switching: no thread sees another's mode."""
    errors: list[str] = []
    start = threading.Barrier(8)

    def churn(index):
        start.wait(timeout=5)
        for _ in range(10000):
            if not is_grad_enabled():
                errors.append(f"thread {index}: off outside no_grad")
            with no_grad():
                if is_grad_enabled():
                    errors.append(f"thread {index}: on inside no_grad")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert is_grad_enabled()


def test_training_while_a_thread_cluster_serves(make_zigong, zigong_template, german_examples):
    """Main-thread fine-tuning is unaffected by replicas scoring under no_grad."""
    examples = german_examples[:16]
    reference = make_zigong()
    reference.finetune(examples)

    cluster = ClusterSupervisor(
        zigong_replica_factory(zigong_template), ClusterConfig(replicas=2, max_batch_size=4)
    )
    texts = [e.prompt.split(" question:")[0] for e in german_examples[16:24]]
    stop = threading.Event()
    served: list[int] = []

    def feed():
        while not stop.is_set():
            pendings = []
            for index, text in enumerate(texts):
                try:
                    pendings.append(cluster.submit(ScoreRequest(f"user-{index}", text)))
                except QueueFullError:
                    break
            served.append(sum(1 for p in pendings if p.result(timeout=10)))

    cluster.start()
    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        while not served and feeder.is_alive():
            stop.wait(0.01)
        rounds_before = len(served)
        trained = make_zigong()
        trained.finetune(examples)
        rounds_during = len(served) - rounds_before
    finally:
        stop.set()
        feeder.join(timeout=30)
        cluster.stop()
    assert not feeder.is_alive()
    assert rounds_during > 0  # the cluster served while the model trained
    expected = reference.model.state_dict()
    for name, value in trained.model.state_dict().items():
        assert np.array_equal(value, expected[name]), name
