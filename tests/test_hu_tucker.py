"""Tests for the Hu-Tucker/Garsia-Wachs Code Assigner (core/hu_tucker.py)."""
import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hu_tucker import (
    canonical_alphabetic_codes,
    garsia_wachs_depths,
    hu_tucker_codes,
)
from tests.reference import code_key, is_prefix_free


def _cost(weights, depths):
    return sum(w * d for w, d in zip(weights, depths))


def optimal_alphabetic_cost(weights: Sequence[float]) -> float:
    """O(n^3) DP for the optimal alphabetic tree cost — test oracle only.

    Knuth-style interval DP: cost(i,j) = min_k cost(i,k)+cost(k+1,j) +
    sum(w[i..j]). Returns sum(w_i * depth_i) of the optimal tree.
    """
    n = len(weights)
    if n <= 1:
        return 0.0
    w = [float(x) for x in weights]
    pref = [0.0]
    for x in w:
        pref.append(pref[-1] + x)
    INF = float("inf")
    cost = [[0.0] * n for _ in range(n)]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            best = INF
            for k in range(i, j):
                c = cost[i][k] + cost[k + 1][j]
                if c < best:
                    best = c
            cost[i][j] = best + (pref[j + 1] - pref[i])
    return cost[0][n - 1]


class TestGarsiaWachsOptimality:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dp_small_random(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        w = [rng.randint(1, 50) for _ in range(n)]
        depths = garsia_wachs_depths([float(x) for x in w])
        assert abs(_cost(w, depths) - optimal_alphabetic_cost(w)) < 1e-6

    def test_equal_weights_balanced(self):
        depths = garsia_wachs_depths([1.0] * 8)
        assert depths == [3] * 8

    def test_two(self):
        assert garsia_wachs_depths([5.0, 1.0]) == [1, 1]

    def test_one(self):
        assert garsia_wachs_depths([3.0]) == [0]

    def test_empty(self):
        assert garsia_wachs_depths([]) == []

    def test_skew_gives_short_code_to_heavy(self):
        depths = garsia_wachs_depths([100.0, 1.0, 1.0, 1.0, 1.0])
        assert depths[0] == min(depths)

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=11))
    @settings(max_examples=60, deadline=None)
    def test_optimal_property(self, w):
        depths = garsia_wachs_depths([float(x) for x in w])
        assert abs(_cost(w, depths) - optimal_alphabetic_cost(w)) < 1e-6


class TestKraft:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 256])
    def test_kraft_equality(self, n):
        rng = random.Random(n)
        w = [rng.random() + 0.01 for _ in range(n)]
        depths = garsia_wachs_depths(w)
        assert abs(sum(2.0 ** -d for d in depths) - 1.0) < 1e-9


class TestCanonicalCodes:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 64, 256, 1000])
    def test_codes_valid(self, n):
        rng = random.Random(n * 7)
        w = [rng.random() ** 2 + 1e-6 for _ in range(n)]
        codes = hu_tucker_codes(w)
        assert len(codes) == n
        assert is_prefix_free(codes)
        keys = [code_key(c) for c in codes]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_codes_match_depths(self):
        w = [5.0, 1.0, 1.0, 5.0]
        depths = garsia_wachs_depths(w)
        codes = canonical_alphabetic_codes(depths)
        assert [n for _, n in codes] == depths

    def test_single_entry_nonempty_code(self):
        codes = hu_tucker_codes([1.0])
        assert codes == [(0, 1)]

    def test_zero_weights_clamped(self):
        codes = hu_tucker_codes([0.0, 1.0, 0.0])
        assert len(codes) == 3
        assert is_prefix_free(codes)

    def test_heavy_symbol_gets_shortest_code(self):
        w = [1.0, 1000.0, 1.0, 1.0, 1.0, 1.0]
        codes = hu_tucker_codes(w)
        lens = [n for _, n in codes]
        assert lens[1] == min(lens)

    def test_empty(self):
        assert hu_tucker_codes([]) == []


class TestCostVsHuffmanBound:
    @pytest.mark.parametrize("seed", range(5))
    def test_within_entropy_plus_two(self, seed):
        """Alphabetic codes cost <= H + 2 bits/symbol (classic bound)."""
        import math

        rng = random.Random(seed)
        w = [rng.random() + 1e-3 for _ in range(128)]
        total = sum(w)
        p = [x / total for x in w]
        H = -sum(pi * math.log2(pi) for pi in p)
        depths = garsia_wachs_depths(w)
        avg = sum(pi * d for pi, d in zip(p, depths))
        assert avg <= H + 2 + 1e-9
