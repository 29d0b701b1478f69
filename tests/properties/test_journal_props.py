"""Journal recovery as a property of retention, cadence and kill point.

Whatever the retention mode (every row kept, a ring, summary mode), the
checkpoint cadence and the life of the thread set, a closed journal
recovers to the live store — series by series (rows, ``appended``,
``dropped``) — and to a byte-identical report.  And the journal as it
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

from tests.helpers import JOURNAL_META as META, frame_ends
from repro.collect import SampleStore
from repro.collect.journal import JournalWriter, RecoveredRun, recover_journal
from repro.collect.store import KEYED_FAMILIES
from repro.core.heartbeat import ThreadSnapshot
from repro.core.records import HWT_COLUMNS, MEM_COLUMNS
from repro.errors import JournalError
from repro.topology import CpuSet

MODES = {
    "unbounded": {},
    "ring": {"max_rows": 3},
    "summary": {"keep_series": False, "summary_rows": 2},
}


def classify(tid: int) -> str:
    return "Main" if tid == 100 else "OpenMP"


def state(store: SampleStore) -> tuple:
    """Everything recovery must reproduce of a store, comparably."""
    series = [
        (family, key, buf.array.tobytes(), buf.appended, buf.dropped)
        for family, (attr, _) in KEYED_FAMILIES.items()
        for key, buf in sorted(getattr(store, attr).items())
    ]
    mem = store.mem_series
    series.append(("mem", 0, mem.array.tobytes(), mem.appended, mem.dropped))
    return (
        series,
        sorted(store.lwp_names.items()),
        sorted((tid, cpus.to_list()) for tid, cpus in store.lwp_affinity.items()),
        sorted(store.prev_totals.items()),
        store.prev_tick,
        store.samples_taken,
        store.last_thread_count,
    )


def run(path: Path, mode: str, checkpoint_every: int, periods: int,
        stall_at: int):
    """Journal a run; the store's state and the file after each period.

    Thread 101 appears at period 3, is renamed at 5 and re-pinned at 6;
    at ``stall_at`` a watchdog stall is both ledgered and noted.
    """
    store = SampleStore(**MODES[mode])
    writer = JournalWriter(path, checkpoint_every=checkpoint_every,
                           fsync=False, classify=classify)
    writer.open(store, META)
    states, blobs = [state(store)], [path.read_bytes()]
    for p in range(1, periods + 1):
        tick = 10.0 * p
        threads = [(100, "main", [0])]
        if p >= 3:
            threads.append((101, "late" if p < 5 else "renamed",
                            [1] if p < 6 else [1, 2]))
        for tid, name, cpus in threads:
            row = (tick, 0.0, 8.0 * p + tid % 7, 1.0 * p, 6.0 * p,
                   0.0, 0.0, 0.0, float(cpus[0]))
            store.add_lwp_row(tid, row, name=name, affinity=CpuSet(cpus))
        store.add_hwt_row(0, (tick, 7.0 * p) + (0.0,) * (len(HWT_COLUMNS) - 2))
        store.add_mem_row((tick,) + (1.0 * p,) * (len(MEM_COLUMNS) - 1))
        store.samples_taken += 1
        store.last_thread_count = len(threads)
        store.commit(tick, [ThreadSnapshot(tid=tid, state="R",
                                           total_jiffies=9.0 * p + tid)
                            for tid, _, _ in threads])
        if p == stall_at:
            store.ledger.record_error("Watchdog", tick, "sampler stalled")
            writer.note(tick, "Watchdog", "sampler stalled")
        writer.record_period(store, tick)
        states.append(state(store))
        blobs.append(path.read_bytes())
    writer.close(store)
    return store, states, blobs


runs = dict(
    mode=st.sampled_from(sorted(MODES)),
    checkpoint_every=st.integers(1, 5),
    periods=st.integers(1, 9),
    stall_at=st.integers(0, 9),
)


@settings(max_examples=30, deadline=None)
@given(**runs)
def test_whole_journal_recovers_the_live_run(mode, checkpoint_every,
                                             periods, stall_at):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.zsj"
        store, states, _ = run(path, mode, checkpoint_every, periods, stall_at)
        recovered = recover_journal(path)
        assert recovered.torn_records == 0
        assert state(recovered.store) == states[-1]
        live = RecoveredRun(
            store, recovered.meta,
            kinds={tid: classify(tid) for tid in store.lwp_series},
        )
        assert recovered.report().render() == live.report().render()


@settings(max_examples=60, deadline=None)
@given(**runs, data=st.data())
def test_any_cut_is_a_prefix_or_a_journal_error(mode, checkpoint_every,
                                                periods, stall_at, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.zsj"
        _, states, blobs = run(path, mode, checkpoint_every, periods, stall_at)
        killed = data.draw(st.integers(0, periods), label="killed after")
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
