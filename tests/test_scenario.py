from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from scipy import signal, stats

from noisebench import (
    InsufficientSamplesError,
    NoiseSource,
    ScenarioConfig,
    SnrStep,
    SubbandSignal,
    SurrogateNoiseParams,
    TraceFormatError,
    ZeroPowerError,
    amplitude_for_snr,
    build_scenario,
    inject_rect_signal,
    load_iq_trace,
    power_matrix,
    rescale_to_power,
    scenario_config_from_dict,
    scenario_config_from_file,
    snr_from_powers,
    synth_industrial_noise,
    synth_white_noise,
    write_iq_trace,
)
from noisebench.scenario import (_LOWPASS_BLOCK, _one_pole_lowpass, amplitude_mv_to_sqrt_mw,
                                 time_series_of)
from noisebench.spectral import ComplexSeries, SpectralFrame

from conftest import build_scenario_per_frame, reference_config


class TestIqTrace:
    def test_decodes_interleaved_pairs(self, tmp_path):
        path = tmp_path / "t.iq"
        path.write_bytes(struct.pack("<4f", 1.0, 0.0, 0.0, -1.0))
        got = load_iq_trace(path)
        np.testing.assert_array_equal(got.samples, [1.0 + 0.0j, 0.0 - 1.0j])

    def test_empty_file_gives_empty_series(self, tmp_path):
        path = tmp_path / "empty.iq"
        path.write_bytes(b"")
        assert len(load_iq_trace(path)) == 0

    def test_nan_sample_reports_index(self, tmp_path):
        path = tmp_path / "bad.iq"
        path.write_bytes(struct.pack("<6f", 1.0, 0.0, np.nan, 0.0, 0.0, 0.0))
        with pytest.raises(TraceFormatError, match="sample 1"):
            load_iq_trace(path)

    def test_odd_length_rejected(self, tmp_path):
        path = tmp_path / "odd.iq"
        path.write_bytes(b"\x00" * 12)
        with pytest.raises(TraceFormatError, match="pairs"):
            load_iq_trace(path)

    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        path = tmp_path / "rt.iq"
        write_iq_trace(path, ComplexSeries(samples=samples, sample_rate_hz=10e6))
        got = load_iq_trace(path)
        expected = samples.real.astype(np.float32) + 1j * samples.imag.astype(np.float32)
        np.testing.assert_array_equal(got.samples, expected.astype(complex))


class TestRescale:
    def test_scales_by_two(self):
        out = rescale_to_power(
            ComplexSeries(samples=np.array([1 + 0j, 1 + 0j]), sample_rate_hz=1.0), 4.0
        )
        np.testing.assert_allclose(out.samples, [2 + 0j, 2 + 0j])

    def test_identity_at_current_power(self):
        s = ComplexSeries(samples=np.array([1 + 1j, 2 - 1j]), sample_rate_hz=1.0)
        out = rescale_to_power(s, s.mean_power())
        np.testing.assert_allclose(out.samples, s.samples, rtol=1e-15)

    def test_exact_target_on_long_noise(self):
        noise = synth_white_noise(10**6, 3.7, seed=1)
        out = rescale_to_power(noise, 1.0)
        assert abs(out.mean_power() - 1.0) < 1e-12

    def test_idempotent_at_target(self):
        noise = synth_white_noise(1000, 1.0, seed=2)
        once = rescale_to_power(noise, 2.0)
        twice = rescale_to_power(once, 2.0)
        np.testing.assert_allclose(once.samples, twice.samples, rtol=1e-14)

    def test_zero_power_rejected(self):
        with pytest.raises(ZeroPowerError):
            rescale_to_power(ComplexSeries(samples=np.zeros(4, dtype=complex),
                                           sample_rate_hz=1.0), 1.0)


class TestSynthNoise:
    def test_white_deterministic_per_seed(self):
        a = synth_white_noise(256, 1.0, seed=9)
        b = synth_white_noise(256, 1.0, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = synth_white_noise(256, 1.0, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_white_power_level(self):
        s = synth_white_noise(10**6, 1.0, seed=4)
        assert s.mean_power() == pytest.approx(1.0, rel=5e-3)

    def test_white_component_variances(self):
        s = synth_white_noise(10**6, 2.0, seed=5)
        assert np.var(s.samples.real) == pytest.approx(1.0, rel=1e-2)
        assert np.var(s.samples.imag) == pytest.approx(1.0, rel=1e-2)

    def test_surrogate_reduces_to_white(self):
        # With no impulses and no tilt the surrogate is plain white Gaussian.
        params = SurrogateNoiseParams(impulse_rate=0.0, impulse_amplitude_factor=0.0,
                                      spectral_tilt_db_per_decade=0.0)
        surrogate = synth_industrial_noise(10**5, params, 1.0, seed=6)
        white = synth_white_noise(10**5, 1.0, seed=7)
        _, p_value = stats.ks_2samp(surrogate.samples.real, white.samples.real)
        assert p_value > 0.01

    def test_surrogate_impulses_raise_kurtosis(self):
        params = SurrogateNoiseParams(impulse_rate=1e-3, impulse_amplitude_factor=10.0)
        surrogate = synth_industrial_noise(10**5, params, 1.0, seed=8)
        white = synth_white_noise(10**5, 1.0, seed=8)
        k_surrogate = stats.kurtosis(np.abs(surrogate.samples) ** 2)
        k_white = stats.kurtosis(np.abs(white.samples) ** 2)
        assert k_surrogate > k_white

    def test_surrogate_deterministic(self):
        params = SurrogateNoiseParams(impulse_rate=1e-2, spectral_tilt_db_per_decade=-6.0)
        a = synth_industrial_noise(1024, params, 1.0, seed=3)
        b = synth_industrial_noise(1024, params, 1.0, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)


class TestOnePoleLowpass:
    @pytest.mark.parametrize("rho", [0.15, 0.5, 0.95])
    @pytest.mark.parametrize("length", [1, _LOWPASS_BLOCK - 1, 1000, 40_003])
    def test_matches_lfilter(self, rho, length):
        # 1000 is no multiple of the block; 40_003 nests the carry recursion.
        rng = np.random.default_rng(length)
        x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        expected = signal.lfilter([1.0], [1.0, -rho], x)
        got = _one_pole_lowpass(x, rho)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


class TestAmplitudeForSnr:
    def test_reference_zero_db_quarter_band(self):
        # 63.2 mV drives a quarter-band signal to 0 dB over 1 mW noise.
        a = amplitude_for_snr(0.0, 1.0, 0.25)
        assert a == pytest.approx(63.2, abs=0.1)
        a_w = a / 1000.0
        assert a_w**2 * 0.25 == pytest.approx(1e-3, rel=2e-3)

    def test_reference_minus_three_db(self):
        assert amplitude_for_snr(-3.0, 1.0, 0.25) == pytest.approx(44.7, abs=0.1)

    def test_full_band_formula(self):
        for snr in (-7.0, 0.0, 4.0):
            a = amplitude_for_snr(snr, 1.0, 1.0)
            assert a == pytest.approx(np.sqrt(1000.0 * 10 ** (snr / 10)), rel=1e-12)


class TestInjectRectSignal:
    def test_zero_amplitude_is_identity(self):
        frame = SpectralFrame(bins=np.ones(80, dtype=complex))
        sig = SubbandSignal(subband_index=0, occupancy_fraction=0.5, amplitude_mv=0.0)
        out = inject_rect_signal(frame, sig)
        np.testing.assert_array_equal(out.bins, frame.bins)

    def test_spectral_energy_added(self):
        # Amplitude of 2 sqrt-mW over 10 of 80 bins adds energy 4*10 in the
        # bin-power convention.
        n = 80
        frame = SpectralFrame(bins=np.zeros(n, dtype=complex))
        amplitude_mv = 2.0 * np.sqrt(1000.0)
        sig = SubbandSignal(subband_index=0, occupancy_fraction=0.5,
                            amplitude_mv=amplitude_mv)
        out = inject_rect_signal(frame, sig)
        added = np.sum(np.abs(out.bins) ** 2) / n
        assert added == pytest.approx(4.0 * 10, rel=1e-12)
        assert amplitude_mv_to_sqrt_mw(amplitude_mv) == pytest.approx(2.0)

    def test_outside_band_untouched(self):
        rng = np.random.default_rng(0)
        frame = SpectralFrame(bins=rng.standard_normal(64) + 0j)
        sig = SubbandSignal(subband_index=1, occupancy_fraction=1.0, amplitude_mv=50.0)
        out = inject_rect_signal(frame, sig)
        lo, hi = sig.occupied_bins(64, 4)
        outside = np.ones(64, dtype=bool)
        outside[lo:hi] = False
        np.testing.assert_array_equal(out.bins[outside], frame.bins[outside])

    def test_measured_snr_matches_target(self):
        # Whole-band SNR measured over a 100-frame block at the 0 dB amplitude.
        block, truth = build_scenario(reference_config(seed=21))
        power = power_matrix(block)
        measured_total = power.mean()
        _, snr_db = snr_from_powers(measured_total, 1.0)
        assert snr_db == pytest.approx(0.0, abs=0.2)


class TestBuildScenario:
    def test_no_signal_ground_truth(self):
        cfg = ScenarioConfig(n_bins=64, n_frames=3)
        _, truth = build_scenario(cfg)
        assert np.all(np.isneginf(truth.true_snr_db))
        assert not truth.signal_bin_mask.any()

    def test_reference_band_placement(self):
        _, truth = build_scenario(reference_config())
        expected = np.zeros(512, dtype=bool)
        expected[256:384] = True
        np.testing.assert_array_equal(truth.signal_bin_mask[0], expected)

    def test_two_signal_union_mask(self):
        cfg = ScenarioConfig(
            n_bins=64, n_frames=2,
            signals=(
                SubbandSignal(subband_index=0, occupancy_fraction=1.0, amplitude_mv=10.0),
                SubbandSignal(subband_index=3, occupancy_fraction=0.5, amplitude_mv=10.0),
            ),
        )
        _, truth = build_scenario(cfg)
        mask = truth.signal_bin_mask[0]
        assert mask[0:16].all()
        assert mask[52:60].all()
        assert mask.sum() == 16 + 8

    def test_deterministic_per_seed(self):
        cfg = reference_config(seed=33)
        block_a, _ = build_scenario(cfg)
        block_b, _ = build_scenario(cfg)
        np.testing.assert_array_equal(block_a.spectral_matrix(), block_b.spectral_matrix())

    def test_truth_snr_is_analytic(self):
        cfg = reference_config()
        _, truth = build_scenario(cfg)
        # One quarter-band signal at 0 dB: sigma_x = 2 mW, sigma_w = 1 mW.
        _, expected_db = snr_from_powers(2.0, 1.0)
        np.testing.assert_allclose(truth.true_snr_db, expected_db, atol=1e-12)

    def test_snr_schedule_overrides_amplitude(self):
        cfg = ScenarioConfig(
            n_bins=64, n_frames=6,
            signals=(SubbandSignal(subband_index=1, occupancy_fraction=1.0,
                                   target_snr_db=0.0),),
            snr_schedule=(SnrStep(frame_start=3, frame_end=6, target_snr_db=-3.0),),
        )
        _, truth = build_scenario(cfg)
        np.testing.assert_allclose(truth.true_snr_db[:3], 0.0, atol=1e-12)
        np.testing.assert_allclose(truth.true_snr_db[3:], -3.0, atol=1e-12)

    def test_inactive_frames_have_no_signal(self):
        cfg = ScenarioConfig(
            n_bins=64, n_frames=4,
            signals=(SubbandSignal(subband_index=1, occupancy_fraction=1.0,
                                   amplitude_mv=40.0, frame_start=2, frame_end=4),),
        )
        _, truth = build_scenario(cfg)
        assert not truth.signal_bin_mask[0:2].any()
        assert truth.signal_bin_mask[2:4].sum() == 2 * 16

    def test_short_trace_rejected(self, tmp_path):
        path = tmp_path / "short.iq"
        write_iq_trace(path, synth_white_noise(100, 1.0, seed=1))
        cfg = ScenarioConfig(n_bins=64, n_frames=4,
                             noise=NoiseSource(kind="trace-file", path=str(path)))
        with pytest.raises(InsufficientSamplesError):
            build_scenario(cfg)

    def test_trace_noise_is_rescaled(self, tmp_path):
        path = tmp_path / "trace.iq"
        write_iq_trace(path, synth_white_noise(64 * 4, 5.0, seed=2))
        cfg = ScenarioConfig(n_bins=64, n_frames=4,
                             noise=NoiseSource(kind="trace-file", path=str(path)),
                             reference_noise_power_mw=1.0)
        block, _ = build_scenario(cfg)
        assert power_matrix(block).mean() == pytest.approx(1.0, rel=1e-6)


def _oracle_config(kind: str, tmp_path) -> ScenarioConfig:
    if kind == "white-gaussian":
        return reference_config(seed=13, n_frames=40)
    if kind == "surrogate-industrial":
        params = SurrogateNoiseParams(impulse_rate=2e-3, impulse_amplitude_factor=8.0,
                                      spectral_tilt_db_per_decade=-3.0)
        return ScenarioConfig(
            n_bins=256, n_frames=30,
            noise=NoiseSource(kind="surrogate-industrial", seed=4, params=params),
            signals=(SubbandSignal(subband_index=1, occupancy_fraction=0.5,
                                   target_snr_db=3.0),),
        )
    if kind == "trace-file":
        path = tmp_path / "noise.iq"
        write_iq_trace(path, synth_white_noise(128 * 24 + 100, 2.0, seed=6))
        return ScenarioConfig(
            n_bins=128, n_frames=24,
            noise=NoiseSource(kind="trace-file", path=str(path)),
            signals=(
                SubbandSignal(subband_index=0, occupancy_fraction=0.5, target_snr_db=10.0,
                              frame_end=12),
                SubbandSignal(subband_index=3, occupancy_fraction=0.5, target_snr_db=10.0,
                              frame_start=12),
            ),
        )
    return ScenarioConfig(  # SNR schedule over overlapping, partly active signals
        n_bins=64, n_frames=20, noise=NoiseSource(seed=8),
        signals=(
            SubbandSignal(subband_index=2, occupancy_fraction=1.0, target_snr_db=0.0),
            SubbandSignal(subband_index=2, occupancy_fraction=0.5, amplitude_mv=40.0,
                          frame_start=3, frame_end=17),
            SubbandSignal(subband_index=0, occupancy_fraction=0.25, amplitude_mv=20.0,
                          frame_start=15, frame_end=40),
        ),
        snr_schedule=(SnrStep(5, 9, -3.0), SnrStep(8, 12, 6.0), SnrStep(18, 30, 1.0)),
    )


class TestArrayBuildersMatchPerFrame:
    @pytest.mark.parametrize(
        "kind", ["white-gaussian", "surrogate-industrial", "trace-file", "snr-schedule"])
    def test_build_scenario_matches_per_frame_build(self, kind, tmp_path):
        config = _oracle_config(kind, tmp_path)
        block, truth = build_scenario(config)
        want_spectral, want_truth = build_scenario_per_frame(config)
        np.testing.assert_array_equal(block.spectral, want_spectral)
        for name in ("noise_power_mw", "true_snr_db", "signal_bin_mask"):
            np.testing.assert_array_equal(getattr(truth, name), getattr(want_truth, name))
        assert np.isfinite(truth.true_snr_db).any()

    def test_time_series_matches_per_frame_ifft(self):
        block, _ = build_scenario(reference_config(seed=2, n_frames=20))
        want = np.concatenate([np.fft.ifft(row) for row in block.spectral])
        series = time_series_of(block, 10e6)
        np.testing.assert_array_equal(series.samples, want)
        assert series.sample_rate_hz == 10e6


class TestConfigFiles:
    def _base(self) -> dict:
        return {
            "name": "demo",
            "n_bins": 64,
            "n_frames": 8,
            "sample_rate_hz": 10e6,
            "reference_noise_power_mw": 1.0,
            "noise": {"kind": "white-gaussian", "seed": 5},
            "signals": [
                {"subband_index": 2, "occupancy_fraction": 1.0, "target_snr_db": 0.0}
            ],
        }

    def test_round_trip_from_dict(self):
        cfg = scenario_config_from_dict(self._base())
        assert cfg.name == "demo"
        assert cfg.noise.seed == 5
        assert cfg.signals[0].subband_index == 2

    def test_unknown_top_key_rejected(self):
        data = self._base()
        data["bandwidth"] = 5e6
        with pytest.raises(ValueError, match="bandwidth"):
            scenario_config_from_dict(data)

    def test_unknown_nested_key_rejected(self):
        data = self._base()
        data["noise"]["color"] = "pink"
        with pytest.raises(ValueError, match="color"):
            scenario_config_from_dict(data)

    def test_unknown_signal_key_rejected(self):
        data = self._base()
        data["signals"][0]["power"] = 3
        with pytest.raises(ValueError, match="power"):
            scenario_config_from_dict(data)

    def test_amplitude_and_target_mutually_exclusive(self):
        data = self._base()
        data["signals"][0]["amplitude_mv"] = 10.0
        with pytest.raises(ValueError, match="exactly one"):
            scenario_config_from_dict(data)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._base()))
        cfg = scenario_config_from_file(path)
        assert cfg.n_bins == 64

    def test_schedule_keys(self):
        data = self._base()
        data["snr_schedule"] = [{"frame_start": 0, "frame_end": 4, "target_snr_db": -3.0}]
        cfg = scenario_config_from_dict(data)
        assert cfg.snr_schedule[0].target_snr_db == -3.0

    def test_subbands_must_partition(self):
        data = self._base()
        data["n_bins"] = 62
        with pytest.raises(ValueError, match="partition"):
            scenario_config_from_dict(data)
