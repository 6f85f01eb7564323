"""Order statistics used by every section: medians, quartiles, spreads."""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Dict, Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    index = (len(sorted_values) - 1) * q
    lo, hi = math.floor(index), math.ceil(index)
    frac = index - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclasses.dataclass(frozen=True)
class Summary:
    """A timing as the guide asks for it: median, quartiles, count."""

    median: float
    q1: float
    q3: float
    n: int

    def scaled(self, factor: float) -> "Summary":
        return Summary(
            self.median * factor, self.q1 * factor, self.q3 * factor, self.n
        )

    def to_json(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


def summarize(values: Sequence[float]) -> Summary:
    if len(values) < 2:
        return Summary(values[0], values[0], values[0], len(values))
    q1, _, q3 = statistics.quantiles(values, n=4)
    return Summary(statistics.median(values), q1, q3, len(values))
