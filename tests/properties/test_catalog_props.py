"""One §3.5 catalog: online findings ≡ post-hoc findings at steady state.

The property that licenses taking each contention decision once
(:mod:`repro.detect.rules`) and feeding it two windows: on a pathology
that holds for the whole run, the ``(code, entity)`` episodes the
online detector raised over its trailing window are exactly the
post-hoc findings :func:`~repro.core.contention.analyze` reads off the
whole-run report, for the four shared rules.

"Steady state" bounds the generators: every CPU under a pathology is
at least doubly subscribed (``M <= N // 2``) and the run is at least
four blocks long, so no rate hovers at a threshold where a trailing
window and a whole-run average may legitimately disagree.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ZeroSumConfig, analyze
from tests.helpers import run_miniqmc

_ENTITY = {
    "oversubscription": lambda message: "proc",
    "affinity-overlap": lambda message: (
        "hwt:" + re.search(r"CPU (\d+):", message).group(1)
    ),
    "time-slicing": lambda message: (
        "lwp:" + re.search(r"LWP (\d+) ", message).group(1)
    ),
    "gpu-locality": lambda message: (
        "gpu:" + re.search(r"visible (\d+)", message).group(1)
    ),
}


def both_catalogs(cmdline: str, blocks: int, offload: bool = False):
    """Per rank: (online episodes, post-hoc findings) of the shared rules."""
    step = run_miniqmc(
        cmdline,
        blocks=blocks,
        offload=offload,
        zs_config=ZeroSumConfig(detect_online=True),
    )
    for monitor in step.monitors:
        online = {
            (f.code, f.entity)
            for f in monitor.store.alerts.findings
            if f.code in _ENTITY
        }
        posthoc = {
            (f.code, _ENTITY[f.code](f.message))
            for f in analyze(monitor).findings
            if f.code in _ENTITY
        }
        yield online, posthoc


blocks = st.integers(4, 12)


class TestOnlineEqualsPostHoc:
    @given(
        st.integers(2, 8).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n // 2))
        ),
        st.sampled_from(["", "OMP_PROC_BIND=close OMP_PLACES=threads "]),
        blocks,
    )
    @settings(max_examples=25, deadline=None)
    def test_n_busy_threads_on_m_cpus(self, shape, binding, blocks):
        """Unbound within M CPUs, or pinned so that pairs share one."""
        n, m = shape
        [(online, posthoc)] = both_catalogs(
            f"OMP_NUM_THREADS={n} {binding}srun -n1 -c{m} zerosum-mpi miniqmc",
            blocks,
        )
        assert online == posthoc
        assert ("oversubscription", "proc") in online
        if binding and m == 1:
            assert ("affinity-overlap", "hwt:1") in online

    @given(st.integers(2, 8), blocks)
    @settings(max_examples=8, deadline=None)
    def test_table1_default_launch(self, n, blocks):
        """``srun -n8`` with no ``-c``: every rank's team on one CPU."""
        for rank, (online, posthoc) in enumerate(
            both_catalogs(
                f"OMP_NUM_THREADS={n} srun -n8 zerosum-mpi miniqmc", blocks
            )
        ):
            assert online == posthoc, f"rank {rank}"
            assert {code for code, _ in online} == {
                "oversubscription", "affinity-overlap", "time-slicing"
            }

    @given(st.integers(1, 7), blocks)
    @settings(max_examples=8, deadline=None)
    def test_clean_c7_control(self, n, blocks):
        for online, posthoc in both_catalogs(
            f"OMP_NUM_THREADS={n} srun -n8 -c7 zerosum-mpi miniqmc", blocks
        ):
            assert online == posthoc
            assert not {code for code, _ in online} & {
                "oversubscription", "affinity-overlap"
            }

    @given(st.sampled_from(["none", "closest"]), blocks)
    @settings(max_examples=6, deadline=None)
    def test_gpu_on_a_foreign_numa_domain(self, gpu_bind, blocks):
        flagged = 0
        for online, posthoc in both_catalogs(
            f"OMP_NUM_THREADS=2 srun -n8 -c7 --gpus-per-task=1 "
            f"--gpu-bind={gpu_bind} zerosum-mpi miniqmc",
            blocks,
            offload=True,
        ):
            assert online == posthoc
            flagged += ("gpu-locality", "gpu:0") in online
        # closest binding hands every rank a local device
        assert (flagged > 0) == (gpu_bind == "none")
