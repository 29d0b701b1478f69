"""Unit tests for the topology object tree and Machine lookups."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    CpuSet,
    Machine,
    NodeSpec,
    ObjType,
    TopoObject,
    build_machine,
    frontier_node,
    generic_node,
    perlmutter_node,
    summit_node,
    testnode_i7,
)


class TestTreeInvariants:
    def test_nesting_order_enforced(self):
        core = TopoObject(ObjType.CORE)
        with pytest.raises(TopologyError):
            core.add_child(TopoObject(ObjType.PACKAGE))

    def test_machine_requires_machine_root(self):
        with pytest.raises(TopologyError):
            Machine(TopoObject(ObjType.PACKAGE))

    def test_duplicate_pu_os_index_rejected(self):
        root = TopoObject(ObjType.MACHINE)
        core = TopoObject(ObjType.CORE, os_index=0)
        root.add_child(core)
        core.add_child(TopoObject(ObjType.PU, 0, os_index=0))
        core.add_child(TopoObject(ObjType.PU, 1, os_index=0))
        with pytest.raises(TopologyError):
            Machine(root)

    def test_pu_without_os_index_rejected(self):
        root = TopoObject(ObjType.MACHINE)
        core = TopoObject(ObjType.CORE, os_index=0)
        root.add_child(core)
        core.add_child(TopoObject(ObjType.PU, 0))
        with pytest.raises(TopologyError):
            Machine(root)

    def test_machine_owned_tree_is_frozen(self):
        m = generic_node(cores=2)
        core = m.cores()[0]
        parent = core.parent
        with pytest.raises(TopologyError):
            core.add_child(TopoObject(ObjType.PU, 9, os_index=9))
        # nor may a Machine's object be moved under another tree
        with pytest.raises(TopologyError):
            TopoObject(ObjType.MACHINE).add_child(core)
        assert [pu.os_index for pu in m.pus()] == [0, 1]
        assert core.parent is parent

    def test_walk_preorder(self):
        m = testnode_i7()
        types = [o.type for o in m.root.walk()]
        assert types[0] is ObjType.MACHINE
        assert types[1] is ObjType.PACKAGE


class TestBuilder:
    def test_counts(self):
        spec = NodeSpec(packages=2, numa_per_package=2, l3_per_numa=2,
                        cores_per_l3=4, smt=2)
        m = build_machine(spec)
        assert len(m.packages()) == 2
        assert len(m.numa_domains()) == 4
        assert sum(o.type is ObjType.L3 for o in m.root.walk()) == 8
        assert len(m.cores()) == 32
        assert len(m.pus()) == 64

    def test_interleaved_numbering(self):
        m = testnode_i7()
        core0 = m.cores()[0]
        assert core0.cpuset() == CpuSet([0, 4])

    def test_linear_numbering(self):
        m = summit_node()
        core0 = m.cores()[0]
        assert core0.cpuset() == CpuSet([0, 1, 2, 3])

    def test_bad_spec_rejected(self):
        with pytest.raises(TopologyError):
            build_machine(NodeSpec(cores_per_l3=0))

    def test_reserved_core_out_of_range(self):
        with pytest.raises(TopologyError):
            build_machine(NodeSpec(cores_per_l3=4, reserved_cores=(99,)))

    def test_logical_indices_sequential(self):
        m = frontier_node()
        pus = m.pus()
        assert [p.logical_index for p in pus] == list(range(len(pus)))


class TestMachineLookups:
    def test_pu_lookup(self):
        m = testnode_i7()
        assert m.pu(4).os_index == 4

    def test_unknown_pu_raises(self):
        with pytest.raises(TopologyError):
            testnode_i7().pu(99)

    def test_core_of(self):
        m = testnode_i7()
        assert m.core_of(0) is m.core_of(4)
        assert m.core_of(1) is not m.core_of(0)

    def test_smt_siblings(self):
        m = frontier_node()
        assert m.smt_siblings(1) == CpuSet([1, 65])

    def test_numa_of(self):
        m = frontier_node()
        assert m.numa_of(1).os_index == 0
        assert m.numa_of(49).os_index == 3

    def test_numa_cpuset(self):
        m = frontier_node()
        cs = m.numa_cpuset(0)
        # NUMA 0 holds cores 0-15 and their SMT siblings 64-79
        assert cs == CpuSet.from_list("0-15,64-79")

    def test_numa_cpuset_unknown(self):
        with pytest.raises(TopologyError):
            frontier_node().numa_cpuset(17)

    def test_l3_of(self):
        m = frontier_node()
        l3 = {cpu: m.pu(cpu).ancestor(ObjType.L3) for cpu in (1, 7, 8)}
        assert l3[1] is l3[7]
        assert l3[7] is not l3[8]

    def test_cpuset_total(self):
        assert len(frontier_node().cpuset()) == 128


class TestFrontierModel:
    def test_usable_cpuset_matches_paper(self):
        """The paper's 'Other' LWP affinity string (Listing 2/Table 1)."""
        expected = ("1-7,9-15,17-23,25-31,33-39,41-47,49-55,57-63,65-71,"
                    "73-79,81-87,89-95,97-103,105-111,113-119,121-127")
        assert frontier_node().usable_cpuset().to_list() == expected

    def test_low_noise_off(self):
        m = frontier_node(low_noise=False)
        assert m.usable_cpuset() == m.cpuset()

    def test_gcd_numa_ordering_figure2(self):
        """GPU indexing [[4,5],[2,3],[6,7],[0,1]] vs NUMA [0,1,2,3]."""
        m = frontier_node()
        by_numa = {
            n: sorted(g.physical_index for g in m.gpus if g.numa == n)
            for n in range(4)
        }
        assert by_numa == {0: [4, 5], 1: [2, 3], 2: [6, 7], 3: [0, 1]}

    def test_gcd0_close_to_numa3_cores(self):
        """GCD 0 is physically connected to NUMA 3 (cores from 48)."""
        m = frontier_node()
        gcd0 = m.gpu_by_physical(0)
        assert gcd0.numa == 3
        assert 48 in m.numa_cpuset(3)

    def test_eight_gcds(self):
        assert len(frontier_node().gpus) == 8


class TestOtherMachines:
    def test_summit_counts(self):
        m = summit_node()
        assert len(m.cores()) == 44
        assert len(m.pus()) == 176
        assert len(m.gpus) == 6

    def test_summit_reserved_skips_84(self):
        """Figure 1: core ordering skips 83 to 88 (reserved core)."""
        usable = summit_node().usable_cpuset()
        assert 83 in usable
        assert 84 not in usable and 87 not in usable
        assert 88 in usable

    def test_perlmutter(self):
        m = perlmutter_node()
        assert len(m.gpus) == 4
        assert {g.numa for g in m.gpus} == {0, 1, 2, 3}

    def test_generic_node(self):
        m = generic_node(cores=8, smt=2, numa=2, gpus=2)
        assert len(m.pus()) == 16
        assert len(m.numa_domains()) == 2

    def test_generic_node_rejects_uneven_numa(self):
        with pytest.raises(ValueError):
            generic_node(cores=5, numa=2)

    def test_gpu_lookup_unknown(self):
        with pytest.raises(TopologyError):
            perlmutter_node().gpu_by_physical(42)
