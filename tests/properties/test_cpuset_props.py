"""Property-based tests for CpuSet encodings and algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.topology import CpuSet

cpu_sets = st.frozensets(st.integers(min_value=0, max_value=300), max_size=40)


class TestEncodingRoundTrips:
    @given(cpu_sets)
    def test_list_roundtrip(self, cpus):
        cs = CpuSet(cpus)
        assert CpuSet.from_list(cs.to_list()) == cs

    @given(cpu_sets)
    def test_mask_roundtrip(self, cpus):
        cs = CpuSet(cpus)
        assert CpuSet.from_mask(cs.to_mask()) == cs

    @given(cpu_sets)
    def test_list_and_mask_agree(self, cpus):
        cs = CpuSet(cpus)
        assert CpuSet.from_list(cs.to_list()) == CpuSet.from_mask(cs.to_mask())

    @given(cpu_sets)
    def test_sorted_iteration(self, cpus):
        cs = CpuSet(cpus)
        listed = list(cs)
        assert listed == sorted(listed)

    @given(cpu_sets)
    def test_length(self, cpus):
        assert len(CpuSet(cpus)) == len(set(cpus))


class TestAlgebraLaws:
    @given(cpu_sets, cpu_sets)
    def test_union_is_superset(self, a, b):
        u = CpuSet(a) | CpuSet(b)
        assert CpuSet(a).issubset(u) and CpuSet(b).issubset(u)

    @given(cpu_sets, cpu_sets)
    def test_intersection_subset_of_both(self, a, b):
        i = CpuSet(a) & CpuSet(b)
        assert i.issubset(CpuSet(a)) and i.issubset(CpuSet(b))

    @given(cpu_sets, cpu_sets)
    def test_difference_disjoint_from_subtrahend(self, a, b):
        d = CpuSet(a) - CpuSet(b)
        assert not d.overlaps(CpuSet(b)) or len(d) == 0

    @given(cpu_sets, cpu_sets)
    def test_inclusion_exclusion(self, a, b):
        ca, cb = CpuSet(a), CpuSet(b)
        assert len(ca | cb) == len(ca) + len(cb) - len(ca & cb)

    @given(cpu_sets)
    def test_first_last_bound_iteration(self, cpus):
        cs = CpuSet(cpus)
        if cs:
            assert cs.first() == min(cpus)
            assert cs.last() == max(cpus)
