"""The scheduler's verdict-retention grammar and Retry-After window.

(The file keeps its name from when these lived beside the core
governor, so the test ids stay stable.)
"""

import pytest

from repro.errors import ConfigurationError
from repro.service import RetentionPolicy, ShardLatencyWindow, parse_retention


class TestParseRetention:
    def test_none_and_empty_mean_forever(self):
        assert parse_retention(None) is None
        assert parse_retention("") is None

    def test_count(self):
        policy = parse_retention("100")
        assert policy == RetentionPolicy("count", 100)
        assert parse_retention(7) == RetentionPolicy("count", 7)

    def test_ages(self):
        assert parse_retention("45s").value == 45.0
        assert parse_retention("30m").value == 1800.0
        assert parse_retention("24h").value == 86400.0
        assert parse_retention("7d").value == 7 * 86400.0
        assert parse_retention("7d").kind == "age"

    def test_passthrough(self):
        policy = RetentionPolicy("age", 60.0)
        assert parse_retention(policy) is policy

    @pytest.mark.parametrize("bad", ["nope", "-1", "3w", "0", "1.5h"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigurationError):
            parse_retention(bad)

    def test_policy_validates(self):
        with pytest.raises(ConfigurationError):
            RetentionPolicy("weird", 1)
        with pytest.raises(ConfigurationError):
            RetentionPolicy("count", 0)


class TestShardLatencyWindow:
    def test_floor_before_any_sample(self):
        window = ShardLatencyWindow(floor_s=2.0, cap_s=60.0)
        assert window.hint(in_flight=10) == 2.0

    def test_median_scales_with_depth(self):
        window = ShardLatencyWindow(floor_s=0.5, cap_s=60.0)
        for latency in (1.0, 2.0, 3.0):
            window.record(latency)
        assert window.hint(in_flight=1) == 2.0
        assert window.hint(in_flight=4) == 8.0

    def test_clamped_to_cap_and_floor(self):
        window = ShardLatencyWindow(floor_s=1.0, cap_s=10.0)
        window.record(0.001)
        assert window.hint(in_flight=1) == 1.0
        window = ShardLatencyWindow(floor_s=1.0, cap_s=10.0)
        window.record(30.0)
        assert window.hint(in_flight=5) == 10.0

    def test_rolling_overwrite(self):
        window = ShardLatencyWindow(floor_s=0.1, cap_s=60.0, size=4)
        for _ in range(4):
            window.record(10.0)
        for _ in range(4):
            window.record(1.0)
        assert window.hint(in_flight=1) == 1.0

    def test_validates(self):
        with pytest.raises(ConfigurationError):
            ShardLatencyWindow(floor_s=0.0)
        with pytest.raises(ConfigurationError):
            ShardLatencyWindow(floor_s=5.0, cap_s=1.0)
