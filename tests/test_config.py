"""Tests for repro.config: validation and serialization."""

import pytest

from repro.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    GatingConfig,
    SystemConfig,
    TokenConfig,
    default_config,
)
from repro.errors import ConfigError


class TestCoreConfig:
    def test_defaults_valid(self):
        config = CoreConfig()
        assert config.frequency_hz == 2e9
        assert config.cycle_time_s == pytest.approx(0.5e-9)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ConfigError):
            CoreConfig(frequency_hz=0.0)

    def test_rejects_zero_pipeline(self):
        with pytest.raises(ConfigError):
            CoreConfig(pipeline_depth=0)

    def test_rejects_mlp_above_one(self):
        with pytest.raises(ConfigError):
            CoreConfig(mlp_overlap=1.5)

    def test_rejects_negative_mlp(self):
        with pytest.raises(ConfigError):
            CoreConfig(mlp_overlap=-0.1)


class TestCacheConfig:
    def test_num_sets(self):
        config = CacheConfig(size_bytes=32 * 1024, line_bytes=64, associativity=8)
        assert config.num_sets == 64

    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(line_bytes=48)

    def test_rejects_size_smaller_than_line(self):
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=32, line_bytes=64)

    def test_rejects_non_power_of_two_sets(self):
        # 3 KiB / 64 B / 8 ways = 6 sets -> invalid.
        with pytest.raises(ConfigError):
            CacheConfig(size_bytes=3 * 1024, line_bytes=64, associativity=8)

    def test_rejects_unknown_replacement(self):
        with pytest.raises(ConfigError):
            CacheConfig(replacement="fifo")

    def test_accepts_all_known_replacements(self):
        assert CacheConfig(replacement="lru").replacement == "lru"

    @pytest.mark.parametrize("policy", ["random", "plru"])
    def test_rejects_retired_replacements(self, policy):
        # The key still loads from saved configs, but LRU is the only model.
        with pytest.raises(ConfigError, match="replacement must be 'lru'"):
            CacheConfig(replacement=policy)

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigError):
            CacheConfig(name="")

    def test_rejects_zero_mshr(self):
        with pytest.raises(ConfigError):
            CacheConfig(mshr_entries=0)


class TestDramConfig:
    def test_total_banks(self):
        config = DramConfig(channels=2, ranks_per_channel=2, banks_per_rank=8)
        assert config.total_banks == 32

    def test_scaled_multiplies_all_latencies(self):
        base = DramConfig()
        doubled = base.scaled(2.0)
        assert doubled.t_cas_ns == pytest.approx(2 * base.t_cas_ns)
        assert doubled.t_rp_ns == pytest.approx(2 * base.t_rp_ns)
        assert doubled.controller_overhead_ns == pytest.approx(
            2 * base.controller_overhead_ns)

    def test_scaled_preserves_organization(self):
        doubled = DramConfig().scaled(2.0)
        assert doubled.banks_per_rank == DramConfig().banks_per_rank

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            DramConfig().scaled(0.0)

    def test_rejects_negative_timing(self):
        with pytest.raises(ConfigError):
            DramConfig(t_cas_ns=-1.0)

    def test_rejects_bad_row_policy(self):
        with pytest.raises(ConfigError):
            DramConfig(row_policy="adaptive")

    def test_rejects_non_power_of_two_row(self):
        with pytest.raises(ConfigError):
            DramConfig(row_bytes=3000)


class TestGatingConfig:
    def test_defaults_valid(self):
        config = GatingConfig()
        assert config.policy == "mapg"

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            GatingConfig(policy="aggressive")

    def test_rejects_unknown_predictor(self):
        with pytest.raises(ConfigError):
            GatingConfig(predictor="neural")

    def test_rejects_negative_margin(self):
        with pytest.raises(ConfigError):
            GatingConfig(guard_margin_cycles=-1)

    def test_rejects_confidence_out_of_range(self):
        with pytest.raises(ConfigError):
            GatingConfig(min_confidence=1.5)

    def test_rejects_zero_bet_scale(self):
        with pytest.raises(ConfigError):
            GatingConfig(bet_scale=0.0)


class TestTokenConfig:
    def test_rejects_zero_tokens(self):
        with pytest.raises(ConfigError):
            TokenConfig(wake_tokens=0)

    def test_rejects_negative_limit(self):
        with pytest.raises(ConfigError):
            TokenConfig(token_wait_limit_cycles=-1)


class TestSystemConfig:
    def test_default_config_valid(self):
        config = default_config()
        assert config.num_cores == 1
        assert config.technology == "45nm"

    def test_rejects_mismatched_line_sizes(self):
        with pytest.raises(ConfigError):
            SystemConfig(
                l1=CacheConfig(name="L1D", line_bytes=64),
                l2=CacheConfig(name="L2", size_bytes=2 * 1024 * 1024,
                               line_bytes=128, associativity=16))

    def test_rejects_zero_cores(self):
        with pytest.raises(ConfigError):
            SystemConfig(num_cores=0)

    def test_json_roundtrip(self):
        config = SystemConfig(num_cores=4, technology="32nm")
        restored = SystemConfig.from_json(config.to_json())
        assert restored == config

    def test_dict_roundtrip(self):
        config = default_config()
        assert SystemConfig.from_dict(config.to_dict()) == config

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_json("not json at all {")

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_json("[1, 2, 3]")

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_dict({"core": {"warp_speed": True}})

    def test_replace_returns_modified_copy(self):
        base = default_config()
        modified = base.replace(num_cores=8)
        assert modified.num_cores == 8
        assert base.num_cores == 1
