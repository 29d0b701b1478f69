"""CSV export throughput: vectorized SeriesBuffer.to_csv.

Not a paper figure — a harness-health benchmark for the §3.6 log dump.
``to_csv`` formats whole columns at once with numpy instead of calling
``str.format`` per value; on a 10k-row series the vectorized path must
produce byte-identical output to the per-value formatter while being
several times faster.
"""

import time

import numpy as np

from common import banner
from repro.core.records import SeriesBuffer

ROWS = 10_000
COLUMNS = ("tick", "state", "utime", "stime", "nv_ctx", "ctx", "rate")


def build_series() -> SeriesBuffer:
    rng = np.random.default_rng(42)
    series = SeriesBuffer(COLUMNS)
    for i in range(ROWS):
        series.append(
            (
                float(i),
                float(rng.integers(0, 5)),
                float(rng.integers(0, 10**7)),
                float(rng.integers(0, 10**6)),
                float(rng.integers(0, 10**4)),
                float(rng.integers(0, 10**4)),
                float(rng.uniform(0.0, 100.0)),
            )
        )
    return series


def scalar_to_csv(series: SeriesBuffer) -> str:
    """The pre-vectorization formatter, one value at a time."""
    lines = [",".join(series.columns)]
    for row in series.array:
        lines.append(
            ",".join(
                str(int(v)) if float(v).is_integer() else repr(float(v))
                for v in row
            )
        )
    return "\n".join(lines) + "\n"


def test_to_csv_vectorized(benchmark):
    series = build_series()

    reference = scalar_to_csv(series)
    text = benchmark(series.to_csv)
    assert text == reference  # byte-identical to the per-value formatter

    t0 = time.perf_counter()
    scalar_to_csv(series)
    scalar_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    series.to_csv()
    vector_s = time.perf_counter() - t0
    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")

    banner(
        "SeriesBuffer.to_csv — vectorized CSV export (10k rows)",
        "harness health; §3.6 log dump path",
    )
    print(f"rows x cols        : {ROWS} x {len(COLUMNS)}")
    print(f"per-value formatter: {scalar_s * 1000:8.1f} ms")
    print(f"vectorized         : {vector_s * 1000:8.1f} ms")
    print(f"speedup            : {speedup:8.1f}x")

    assert speedup > 1.5  # the vectorized path must actually win
    benchmark.extra_info.update(
        rows=ROWS, scalar_ms=scalar_s * 1000, vector_ms=vector_s * 1000,
        speedup=speedup,
    )
