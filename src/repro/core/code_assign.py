"""Code Assigner module (HOPE §4.2): the fixed-length strategy.

``assign_fixed`` gives monotonically increasing fixed-length codes of
``ceil(log2 N)`` bits (used by ALM). The paper's other strategy,
optimal order-preserving prefix codes from the interval access
probabilities (Single/Double-Char, 3/4-Grams, ALM-Improved), is
``hu_tucker.hu_tucker_codes``: on the raw hit rates obtained by
test-encoding the sample it minimises ``sum(p_i * len(c_i))``, i.e.
maximises the paper's CPR for a fixed interval division.
"""
from __future__ import annotations

import math
from typing import List

from .strutil import Code


def assign_fixed(n: int) -> List[Code]:
    """Monotone fixed-length codes 0..n-1, each ceil(log2 n) bits."""
    if n <= 0:
        return []
    nbits = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    return [(i, nbits) for i in range(n)]
