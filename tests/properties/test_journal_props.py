"""Journal recovery as a property of cadence, failed writes and kill point.

Whatever the checkpoint cadence, the life of the thread set and whether
one period's write failed (so a later checkpoint compacts), a closed
journal recovers to the live store — series by series (rows and
``appended``) — and to a byte-identical report.  And the journal as it
stood after any period, cut at any offset, recovers to the store as it
stood after some period up to then, or is a typed ``JournalError`` —
never anything else.  Cuts are drawn anywhere and, as often, at a record
boundary or a byte either side of one: the seals and the compactions
are among those boundaries.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import JOURNAL_META as META, fail_next_write, frame_ends
from repro.collect import SampleStore
from repro.collect.journal import JournalWriter, RecoveredRun, recover_journal
from repro.collect.store import KEYED_FAMILIES
from repro.core.heartbeat import ThreadSnapshot
from repro.core.records import HWT_COLUMNS, MEM_COLUMNS
from repro.errors import JournalError
from repro.topology import CpuSet

def classify(tid: int) -> str:
    return "Main" if tid == 100 else "OpenMP"


def state(store: SampleStore) -> tuple:
    """Everything recovery must reproduce of a store, comparably."""
    series = [
        (family, key, buf.array.tobytes(), buf.appended)
        for family, (attr, _) in KEYED_FAMILIES.items()
        for key, buf in sorted(getattr(store, attr).items())
    ]
    mem = store.mem_series
    series.append(("mem", 0, mem.array.tobytes(), mem.appended))
    return (
        series,
        sorted(store.lwp_names.items()),
        sorted((tid, cpus.to_list()) for tid, cpus in store.lwp_affinity.items()),
        sorted(store.prev_totals.items()),
        store.prev_tick,
        store.samples_taken,
        store.last_thread_count,
    )


def run(path: Path, checkpoint_every: int, periods: int, stall_at: int,
        fail_at: int):
    """Journal a run; the store's state and the file after each period,
    and whether that file held every row so far.

    Thread 101 appears at period 3, is renamed at 5 and re-pinned at 6;
    at ``stall_at`` a watchdog stall is both ledgered and noted; the
    write of period ``fail_at`` fails, so its rows are missing from the
    file until the next checkpoint compacts.
    """
    store = SampleStore()
    writer = JournalWriter(path, checkpoint_every=checkpoint_every,
                           fsync=False, classify=classify)
    writer.open(store, META)
    states, blobs, whole, lost = [state(store)], [path.read_bytes()], [True], False
    for p in range(1, periods + 1):
        tick = 10.0 * p
        threads = [(100, "main", [0])]
        if p >= 3:
            threads.append((101, "late" if p < 5 else "renamed",
                            [1] if p < 6 else [1, 2]))
        for tid, name, cpus in threads:
            row = (tick, 0.0, 8.0 * p + tid % 7, 1.0 * p, 6.0 * p,
                   0.0, 0.0, 0.0, float(cpus[0]))
            store.add_row("lwp", tid, row, name=name, affinity=CpuSet(cpus))
        store.add_row("hwt", 0, (tick, 7.0 * p) + (0.0,) * (len(HWT_COLUMNS) - 2))
        store.add_row("mem", 0, (tick,) + (1.0 * p,) * (len(MEM_COLUMNS) - 1))
        store.samples_taken += 1
        store.last_thread_count = len(threads)
        store.commit(tick, [ThreadSnapshot(tid=tid, state="R",
                                           total_jiffies=9.0 * p + tid)
                            for tid, _, _ in threads])
        if p == stall_at:
            store.ledger.record_error("Watchdog", tick, "sampler stalled")
            writer.note(tick, "Watchdog", "sampler stalled")
        if p == fail_at:
            fail_next_write(writer)
        try:
            writer.record_period(store, tick)
        except OSError:
            lost = True
        else:  # a checkpoint after the failure compacts
            lost = lost and p % checkpoint_every != 0
        states.append(state(store))
        blobs.append(path.read_bytes())
        whole.append(not lost)
    writer.close(store)
    return store, states, blobs, whole


runs = dict(
    checkpoint_every=st.integers(1, 5),
    periods=st.integers(1, 9),
    stall_at=st.integers(0, 9),
    fail_at=st.integers(0, 9),
)


@settings(max_examples=30, deadline=None)
@given(**runs)
def test_whole_journal_recovers_the_live_run(checkpoint_every, periods,
                                             stall_at, fail_at):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.zsj"
        store, states, _, _ = run(path, checkpoint_every, periods, stall_at,
                                  fail_at)
        recovered = recover_journal(path)
        assert recovered.torn_records == 0
        assert state(recovered.store) == states[-1]
        live = RecoveredRun(store, {
            **recovered.record,
            "kinds": {str(tid): classify(tid) for tid in store.lwp_series},
        })
        assert recovered.report().render() == live.report().render()


@settings(max_examples=60, deadline=None)
@given(**runs, data=st.data())
def test_any_cut_is_a_prefix_or_a_journal_error(checkpoint_every, periods,
                                                stall_at, fail_at, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.zsj"
        _, states, blobs, whole = run(path, checkpoint_every, periods,
                                      stall_at, fail_at)
        killed = data.draw(
            st.sampled_from([k for k in range(periods + 1) if whole[k]]),
            label="killed after",
        )
        blob = blobs[killed]
        near_boundary = st.sampled_from(frame_ends(blob)).flatmap(
            lambda end: st.integers(max(0, end - 2), min(len(blob), end + 1))
        )
        cut = data.draw(st.integers(0, len(blob)) | near_boundary, label="cut")
        path.write_bytes(blob[:cut])
        try:
            recovered = recover_journal(path)
        except JournalError:
            return
        assert state(recovered.store) in states[: killed + 1]
        if cut == len(blob):
            assert recovered.torn_records == 0
            assert state(recovered.store) == states[killed]
