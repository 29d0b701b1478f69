"""Listing 1 reproduction: lstopo-style text output."""

from repro.core import ZeroSumConfig, zerosum_mpi
from repro.launch import SrunOptions, launch_job
from repro.topology import (
    format_cache_size,
    frontier_node,
    generic_node,
    render_lstopo,
    testnode_i7,
)

# The exact output of Listing 1 of the paper (i7-1165G7 test node).
LISTING_1 = """\
HWLOC Node topology:
Machine L#0
  Package L#0
    L3Cache L#0 12MB
      L2Cache L#0 1280KB
        L1Cache L#0 48KB
          Core L#0
            PU L#0 P#0
            PU L#1 P#4
      L2Cache L#1 1280KB
        L1Cache L#1 48KB
          Core L#1
            PU L#2 P#1
            PU L#3 P#5
      L2Cache L#2 1280KB
        L1Cache L#2 48KB
          Core L#2
            PU L#4 P#2
            PU L#5 P#6
      L2Cache L#3 1280KB
        L1Cache L#3 48KB
          Core L#3
            PU L#6 P#3
            PU L#7 P#7"""


class TestListing1:
    def test_exact_reproduction(self):
        assert render_lstopo(testnode_i7()) == LISTING_1

    def test_logical_vs_os_index_divergence(self):
        """The point of Listing 1: L# of a PU differs from P#."""
        out = render_lstopo(testnode_i7())
        assert "PU L#1 P#4" in out
        assert "PU L#7 P#7" in out


class TestRenderOptions:
    def test_custom_header(self):
        out = render_lstopo(testnode_i7(), header="TOPO:")
        assert out.startswith("TOPO:\n")

    def test_numa_shown_on_multi_domain_machines(self):
        out = render_lstopo(frontier_node())
        assert "NUMANode" in out

    def test_numa_hidden_on_single_domain(self):
        assert "NUMANode" not in render_lstopo(testnode_i7())

    def test_numa_forced(self):
        out = render_lstopo(testnode_i7(), show_numa=True)
        assert "NUMANode" in out

    def test_gpus_section(self):
        out = render_lstopo(frontier_node(), show_gpus=True)
        assert "GPUs:" in out
        assert "GPU P#0 NUMA#3" in out

    def test_frontier_core_count(self):
        out = render_lstopo(frontier_node())
        assert out.count("Core L#") == 64
        assert out.count("PU L#") == 128


class TestRenderedOncePerNode:
    def test_every_rank_banner_matches_a_fresh_render_of_its_node(self):
        fresh = {
            "i7": lambda: testnode_i7(name="i7"),
            "two-numa": lambda: generic_node(cores=4, numa=2, name="two-numa"),
        }
        step = launch_job(
            [build() for build in fresh.values()],
            SrunOptions(ntasks=8, cpus_per_task=1),
            lambda ctx: iter(()),
            monitor_factory=zerosum_mpi(ZeroSumConfig(collect_gpu=False)),
        )
        hosts = {m.hostname for m in step.monitors}
        assert hosts == set(fresh)
        for monitor in step.monitors:
            expected = render_lstopo(fresh[monitor.hostname]())
            assert monitor.initial.topology_text == expected
        assert "NUMANode" in render_lstopo(fresh["two-numa"]())

    def test_visible_index_change_after_first_render_shows(self):
        m = frontier_node()
        assert "visible #" not in render_lstopo(m, show_gpus=True)
        m.gpus[0].visible_index = 0
        out = render_lstopo(m, show_gpus=True)
        assert f"GPU P#{m.gpus[0].physical_index} " in out
        assert out.count("(visible #0)") == 1
        assert render_lstopo(m) == render_lstopo(frontier_node())


class TestCacheSize:
    def test_megabytes(self):
        assert format_cache_size(12 * 1024 * 1024) == "12MB"

    def test_kilobytes(self):
        assert format_cache_size(1280 * 1024) == "1280KB"

    def test_bytes(self):
        assert format_cache_size(1000) == "1000B"
