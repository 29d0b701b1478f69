"""Rank-reordering suggestion from the communication matrix."""

import pytest

from repro.analysis import offnode_bytes, placement_improvement, suggest_placement
from repro.core import CommMatrix
from repro.errors import MonitorError


def pairs_matrix(n=8):
    """Ranks communicate heavily in pairs (0,4), (1,5), (2,6), (3,7):
    the identity placement with 4 ranks/node splits every pair."""
    m = CommMatrix.zeros(n)
    for i in range(n // 2):
        j = i + n // 2
        m.bytes[i, j] = m.bytes[j, i] = 1000
    return m


def ring_matrix(n=8):
    m = CommMatrix.zeros(n)
    for i in range(n):
        m.bytes[i, (i + 1) % n] = 100
    return m


class TestOffnodeBytes:
    def test_identity_ring(self):
        m = ring_matrix(8)
        # ranks 0-3 on node 0, 4-7 on node 1: edges 3->4 and 7->0 cross
        assert offnode_bytes(m, list(range(8)), 4) == 200

    def test_all_on_one_node(self):
        m = ring_matrix(4)
        assert offnode_bytes(m, list(range(4)), 4) == 0

    def test_placement_must_be_permutation(self):
        with pytest.raises(MonitorError):
            offnode_bytes(ring_matrix(4), [0, 0, 1, 2], 2)

    def test_bad_ranks_per_node(self):
        with pytest.raises(MonitorError):
            offnode_bytes(ring_matrix(4), list(range(4)), 0)


class TestSuggestPlacement:
    def test_pairs_get_colocated(self):
        m = pairs_matrix(8)
        base, improved, placement = placement_improvement(m, 2)
        assert base == 8000  # every pair split
        assert improved == 0  # every pair colocated

    def test_ring_not_worse(self):
        m = ring_matrix(16)
        base, improved, _ = placement_improvement(m, 4)
        assert improved <= base

    def test_placement_is_permutation(self):
        placement = suggest_placement(pairs_matrix(8), 2)
        assert sorted(placement) == list(range(8))

    def test_single_node_trivial(self):
        m = pairs_matrix(4)
        base, improved, _ = placement_improvement(m, 4)
        assert base == improved == 0

    def test_bad_ranks_per_node(self):
        with pytest.raises(MonitorError):
            suggest_placement(ring_matrix(4), 0)
