"""SeriesBuffer column store tests."""

import numpy as np
import pytest

from repro.core.records import STATE_CODES, SeriesBuffer, state_code
from repro.errors import MonitorError


class TestSeriesBuffer:
    def test_append_and_len(self):
        s = SeriesBuffer(("a", "b"))
        s.append((1.0, 2.0))
        s.append((3.0, 4.0))
        assert len(s) == 2

    def test_growth_beyond_capacity(self):
        s = SeriesBuffer(("x",), capacity=2)
        for i in range(100):
            s.append((float(i),))
        assert len(s) == 100
        assert s.column("x")[-1] == 99.0

    def test_column_access(self):
        s = SeriesBuffer(("a", "b"))
        s.append((1.0, 10.0))
        s.append((2.0, 20.0))
        assert list(s.column("b")) == [10.0, 20.0]

    def test_unknown_column(self):
        s = SeriesBuffer(("a",))
        with pytest.raises(MonitorError):
            s.column("zzz")

    def test_row_width_checked(self):
        s = SeriesBuffer(("a", "b"))
        with pytest.raises(MonitorError):
            s.append((1.0,))

    def test_empty_columns_rejected(self):
        with pytest.raises(MonitorError):
            SeriesBuffer(())

    def test_last(self):
        s = SeriesBuffer(("a",))
        s.append((5.0,))
        assert s.last("a") == 5.0

    def test_last_empty_raises(self):
        with pytest.raises(MonitorError):
            SeriesBuffer(("a",)).last("a")

    def test_deltas(self):
        s = SeriesBuffer(("c",))
        for v in (10.0, 25.0, 27.0):
            s.append((v,))
        assert list(s.deltas("c")) == [10.0, 15.0, 2.0]

    def test_array_view_no_copy(self):
        s = SeriesBuffer(("a",))
        s.append((1.0,))
        assert s.array.base is not None

    def test_to_csv(self):
        s = SeriesBuffer(("tick", "v"))
        s.append((1.0, 2.5))
        text = s.to_csv()
        assert text.splitlines()[0] == "tick,v"
        assert text.splitlines()[1] == "1,2.5"

    def test_to_csv_with_prefix(self):
        s = SeriesBuffer(("v",))
        s.append((3.0,))
        text = s.to_csv(prefix_cols={"tid": 42})
        assert text.splitlines()[0] == "tid,v"
        assert text.splitlines()[1] == "42,3"


def reference_to_csv(series, prefix_cols=None):
    """The pre-vectorization per-value formatter, kept as the oracle."""
    prefix = prefix_cols or {}
    lines = [",".join(list(prefix) + list(series.columns))]
    pre = [str(v) for v in prefix.values()]
    for row in series.array:
        cells = pre + [
            str(int(v)) if float(v).is_integer() else repr(float(v)) for v in row
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestToCsvVectorized:
    def test_matches_reference_formatter(self):
        rng = np.random.default_rng(7)
        s = SeriesBuffer(("tick", "a", "b", "c"))
        for i in range(500):
            s.append(
                (
                    float(i),
                    float(rng.integers(0, 10**9)),
                    float(rng.uniform(-1e6, 1e6)),
                    float(rng.uniform(0, 1)),
                )
            )
        assert s.to_csv() == reference_to_csv(s)

    def test_matches_reference_with_prefix(self):
        s = SeriesBuffer(("tick", "v"))
        s.append((1.0, 0.123456789))
        s.append((2.0, 3.0))
        prefix = {"tid": 42}
        assert s.to_csv(prefix_cols=prefix) == reference_to_csv(
            s, prefix_cols=prefix
        )

    def test_empty_series_header_only(self):
        s = SeriesBuffer(("a", "b"))
        assert s.to_csv() == "a,b\n"


class TestStateCodes:
    def test_known_states(self):
        assert state_code("R") == 0
        assert state_code("S") == 1
        assert state_code("D") == 2

    def test_unknown_maps_to_dead(self):
        assert state_code("?") == STATE_CODES["X"]
