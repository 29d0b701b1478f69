"""Wait-object unit tests (events, barriers, queues)."""

import pytest

from repro.errors import SchedulerError
from repro.kernel import (
    Barrier,
    Call,
    Compute,
    Event,
    MessageQueue,
    SimKernel,
    Wait,
)
from repro.topology import CpuSet, generic_node


def make_kernel(cores=2):
    return SimKernel(generic_node(cores=cores))


class TestEvent:
    def test_set_before_wait_does_not_block(self):
        kernel = make_kernel(1)
        ev = Event()
        log = []

        def gen():
            yield Call(lambda k, l: ev.set(k))
            yield Wait(ev)  # already set: must not block
            log.append("done")
            yield Compute(1)

        kernel.spawn_process(kernel.nodes[0], CpuSet([0]), gen())
        kernel.run()
        assert log == ["done"]

    def test_clear_rearms(self):
        kernel = make_kernel(1)
        ev = Event()
        ev._set = True
        ev.clear()
        assert not ev.is_set()

    def test_wake_all(self):
        kernel = make_kernel(2)
        ev = Event()
        done = []

        def waiter(n):
            def gen():
                yield Wait(ev)
                done.append(n)
                yield Compute(1)

            return gen()

        def setter():
            yield Compute(5)
            yield Call(lambda k, l: ev.set(k))

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0, 1]), setter())
        kernel.spawn_thread(proc, waiter(1))
        kernel.spawn_thread(proc, waiter(2))
        kernel.run()
        assert sorted(done) == [1, 2]


class TestBarrier:
    def test_requires_parties(self):
        with pytest.raises(SchedulerError):
            Barrier(0)

    def test_last_arriver_does_not_block(self):
        kernel = make_kernel(1)
        b = Barrier(1)
        blocked = []

        def gen():
            blocked.append((yield Call(lambda k, l: b.arrive(k, l))))
            yield Compute(1)

        kernel.spawn_process(kernel.nodes[0], CpuSet([0]), gen())
        kernel.run()
        assert blocked == [False]

    def test_generation_increments(self):
        kernel = make_kernel(1)
        b = Barrier(1)

        def gen():
            for _ in range(3):
                yield Call(lambda k, l: b.arrive(k, l))
                yield Compute(1)

        kernel.spawn_process(kernel.nodes[0], CpuSet([0]), gen())
        kernel.run()
        assert b.generation == 3

    def test_reusable_across_generations(self):
        kernel = make_kernel(2)
        b = Barrier(2)
        passes = []

        def party(n):
            def gen():
                for it in range(3):
                    yield Compute(1 + n)
                    blocked = yield Call(lambda k, l: b.arrive(k, l))
                    if blocked:
                        yield Wait(b)
                    passes.append((it, n))

            return gen()

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0, 1]), party(0))
        kernel.spawn_thread(proc, party(1))
        kernel.run()
        assert len(passes) == 6
        # iterations strictly ordered: all of it=0 before any it=2
        its = [it for it, _ in passes]
        assert its == sorted(its)


class TestMessageQueue:
    def test_put_get(self):
        kernel = make_kernel(1)
        q = MessageQueue()
        got = []

        def producer():
            yield Compute(2)
            yield Call(lambda k, l: q.put(k, "hello"))

        def consumer():
            msg = yield Call(lambda k, l: q.get_nowait())
            while msg is None:
                yield Wait(q)
                msg = yield Call(lambda k, l: q.get_nowait())
            got.append(msg)

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0]), consumer())
        kernel.spawn_thread(proc, producer())
        kernel.run()
        assert got == ["hello"]

    def test_fifo_order(self):
        kernel = make_kernel(1)
        q = MessageQueue()

        def gen():
            yield Call(lambda k, l: q.put(k, 1))
            yield Call(lambda k, l: q.put(k, 2))
            yield Compute(1)

        kernel.spawn_process(kernel.nodes[0], CpuSet([0]), gen())
        kernel.run()
        assert q.get_nowait() == 1
        assert q.get_nowait() == 2
        assert q.get_nowait() is None

    def test_len_and_peek(self):
        q = MessageQueue()
        q._messages.extend(["a", "b"])
        assert len(q) == 2
        assert q.ready(None)  # a look that consumes nothing
        assert len(q) == 2
