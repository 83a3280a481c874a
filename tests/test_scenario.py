from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from scipy import signal, stats

from noisebench import (
    GroundTruth,
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
    load_iq_trace,
    power_matrix,
    scenario_config_from_dict,
    scenario_config_from_file,
    snr_db_from_powers,
    write_iq_trace,
)
from noisebench import scenario
from noisebench.scenario import (MAX_POWER_MW, _LOWPASS_BLOCK, _noise_series,
                                 _one_pole_lowpass, _rng, _scale_to_power, _synthetic_samples,
                                 amplitude_mv_to_sqrt_mw, time_series_of)
from noisebench.spectral import SpectralFrame, mean_power

from conftest import build_scenario_per_frame, reference_config, traced_peak

# --- out-of-place oracles: the sample pipeline as it was first written --------


def old_load_iq(raw: bytes) -> np.ndarray:
    floats = np.frombuffer(raw, dtype="<f4")
    return floats[0::2].astype(np.float64) + 1j * floats[1::2].astype(np.float64)


def old_iq_bytes(samples: np.ndarray) -> bytes:
    out = np.empty(2 * samples.size, dtype="<f4")
    out[0::2] = samples.real.astype(np.float32)
    out[1::2] = samples.imag.astype(np.float32)
    return out.tobytes()


def old_rescale(samples: np.ndarray, target_mw: float) -> np.ndarray:
    return samples * np.sqrt(target_mw / float(np.mean(np.abs(samples) ** 2)))


def old_white(length: int, power_mw: float, seed: int) -> np.ndarray:
    rng = _rng(seed)
    return np.sqrt(power_mw / 2.0) * (rng.standard_normal(length)
                                      + 1j * rng.standard_normal(length))


def old_one_pole_rows(x: np.ndarray, rho: float) -> np.ndarray:
    m, n = x.shape
    b = min(n, _LOWPASS_BLOCK)
    powers = rho ** np.arange(b + 1)
    powers[powers < np.finfo(np.float64).tiny] = 0.0
    lags = np.arange(b)[:, None] - np.arange(b)
    lower = np.where(lags >= 0, powers[np.abs(lags)], 0.0)
    if n <= b:
        return x @ lower.T
    n_blocks = -(-n // b)
    padded = np.zeros((m, n_blocks * b))
    padded[:, :n] = x
    local = (padded.reshape(m * n_blocks, b) @ lower.T).reshape(m, n_blocks, b)
    ends = old_one_pole_rows(local[:, :, -1], rho ** b)
    local[:, 1:, :] += ends[:, :-1, None] * powers[1:]
    return local.reshape(m, n_blocks * b)[:, :n]


def old_lowpass(x: np.ndarray, rho: float) -> np.ndarray:
    """Both parts stacked as two rows of one matmul per block level, out of place."""
    out = np.empty(x.shape, dtype=np.complex128)
    out.real, out.imag = old_one_pole_rows(np.stack([x.real, x.imag]), rho)
    return out


def old_industrial(length: int, params: SurrogateNoiseParams, seed: int) -> np.ndarray:
    rng = _rng(seed)
    base = (rng.standard_normal(length) + 1j * rng.standard_normal(length)) * np.sqrt(0.5)
    hits = rng.random(length) < params.impulse_rate
    n_hits = int(hits.sum())
    if n_hits:
        base[hits] += params.impulse_amplitude_factor * np.exp(2j * np.pi * rng.random(n_hits))
    tilt = params.spectral_tilt_db_per_decade
    if tilt != 0.0:
        rho = min(abs(tilt) / 20.0, 0.95)
        if tilt < 0:
            base = old_lowpass(base, rho)
        else:
            base = np.concatenate([[base[0]], base[1:] - rho * base[:-1]])
    return base


def inject_rect_signal(frame: SpectralFrame, signal: SubbandSignal,
                       subband_count: int = 4,
                       reference_noise_power_mw: float = 1.0) -> SpectralFrame:
    """One signal added to one frame, out of place: A * sqrt(N) on each bin of its band."""
    n = frame.n_bins
    lo, hi, a_sqrt_mw = signal.band_and_amplitude(n, subband_count, reference_noise_power_mw)
    bins = frame.bins.copy()
    bins[lo:hi] += a_sqrt_mw * np.sqrt(n)
    return SpectralFrame(bins=bins, frame_index=frame.frame_index)


# White Gaussian noise: the surrogate with no impulses and no tilt.
WHITE = SurrogateNoiseParams(impulse_rate=0.0)
# The long-stream workload's surrogate: impulses and a -3 dB/decade tilt.
LONG_STREAM_PARAMS = SurrogateNoiseParams(impulse_rate=0.002, impulse_amplitude_factor=8.0,
                                          spectral_tilt_db_per_decade=-3.0)


class TestIqTrace:
    def test_decodes_interleaved_pairs(self, tmp_path):
        path = tmp_path / "t.iq"
        path.write_bytes(struct.pack("<4f", 1.0, 0.0, 0.0, -1.0))
        np.testing.assert_array_equal(load_iq_trace(path), [1.0 + 0.0j, 0.0 - 1.0j])

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
        write_iq_trace(path, samples)
        got = load_iq_trace(path)
        expected = samples.real.astype(np.float32) + 1j * samples.imag.astype(np.float32)
        np.testing.assert_array_equal(got, expected.astype(complex))


    def test_load_matches_two_float_oracle(self, tmp_path):
        tiny = np.finfo(np.float32).smallest_subnormal
        floats = np.concatenate([
            np.random.default_rng(5).standard_normal(4000).astype("<f4"),
            np.array([0.0, -0.0, -0.0, 0.0, -0.0, -0.0, tiny, -tiny, 3 * tiny, -1e-40,
                      np.finfo(np.float32).max, -np.finfo(np.float32).max], dtype="<f4"),
        ])
        path = tmp_path / "t.iq"
        path.write_bytes(floats.tobytes())
        got = load_iq_trace(path)
        want = old_load_iq(floats.tobytes())
        np.testing.assert_array_equal(got, want)
        # float32 subnormals keep their values in the cast.
        assert got[-3] == complex(float(tiny), -float(tiny)) != 0
        assert got[-2].imag == float(np.float32(-1e-40)) != 0
        # The sign of zero: the cast keeps the file's sign bits.  The oracle's
        # `1j *` product and sum turned some -0.0 into +0.0; the values are equal.
        np.testing.assert_array_equal(np.signbit(got.real), np.signbit(floats[0::2]))
        np.testing.assert_array_equal(np.signbit(got.imag), np.signbit(floats[1::2]))
        assert np.signbit(floats[1::2]).sum() > np.signbit(want.imag).sum()

    @pytest.mark.parametrize("position", [0, 1, 2, 7, 8, 999])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_reports_sample_index(self, tmp_path, position, bad):
        floats = np.ones(1000, dtype="<f4")
        floats[position] = bad
        path = tmp_path / "bad.iq"
        path.write_bytes(floats.tobytes())
        with pytest.raises(TraceFormatError, match=f"non-finite value at sample {position // 2}$"):
            load_iq_trace(path)

    def test_write_bytes_match_two_float_oracle(self, tmp_path):
        rng = np.random.default_rng(6)
        samples = np.concatenate([
            rng.standard_normal(3000) * 10.0 ** rng.integers(-45, 37, 3000)
            + 1j * rng.standard_normal(3000),
            np.array([0.0, -0.0 - 0.0j, complex(-0.0, 0.0), 1e-46 - 1e-46j, 1 + 2 ** -24j]),
        ])
        path = tmp_path / "w.iq"
        write_iq_trace(path, samples)
        assert path.read_bytes() == old_iq_bytes(samples)


def rescaled(samples: np.ndarray, target_mw: float) -> np.ndarray:
    """A copy of ``samples`` scaled in place by the run path's one real factor."""
    out = samples.copy()
    _scale_to_power(out, target_mw)
    return out


class TestRescale:
    def test_scales_by_two(self):
        out = rescaled(np.array([1 + 0j, 1 + 0j]), 4.0)
        np.testing.assert_allclose(out, [2 + 0j, 2 + 0j])

    def test_identity_at_current_power(self):
        s = np.array([1 + 1j, 2 - 1j])
        out = rescaled(s, mean_power(s))
        np.testing.assert_allclose(out, s, rtol=1e-15)

    def test_exact_target_on_long_noise(self):
        noise = np.sqrt(3.7) * _synthetic_samples(10**6, WHITE, seed=1)
        out = rescaled(noise, 1.0)
        assert abs(mean_power(out) - 1.0) < 1e-12

    def test_idempotent_at_target(self):
        noise = _synthetic_samples(1000, WHITE, seed=2)
        once = rescaled(noise, 2.0)
        twice = rescaled(once, 2.0)
        np.testing.assert_allclose(once, twice, rtol=1e-14)

    @pytest.mark.parametrize("target", [1.0, 0.37, 2.5e3])
    def test_matches_out_of_place_oracle(self, target):
        source = _synthetic_samples(10_007, LONG_STREAM_PARAMS, seed=3)
        out = source.copy()
        _scale_to_power(out, target)
        np.testing.assert_array_equal(out, old_rescale(source, target))

    def test_zero_power_rejected(self):
        with pytest.raises(ZeroPowerError):
            _scale_to_power(np.zeros(4, dtype=complex), 1.0)


class TestSynthNoise:
    def test_white_deterministic_per_seed(self):
        a = _synthetic_samples(256, WHITE, seed=9)
        b = _synthetic_samples(256, WHITE, seed=9)
        np.testing.assert_array_equal(a, b)
        c = _synthetic_samples(256, WHITE, seed=10)
        assert not np.array_equal(a, c)

    def test_white_power_level(self):
        s = _synthetic_samples(10**6, WHITE, seed=4)
        assert mean_power(s) == pytest.approx(1.0, rel=5e-3)

    def test_white_component_variances(self):
        s = _synthetic_samples(10**6, WHITE, seed=5)
        assert np.var(s.real) == pytest.approx(0.5, rel=1e-2)
        assert np.var(s.imag) == pytest.approx(0.5, rel=1e-2)

    def test_surrogate_reduces_to_white(self):
        # With no impulses and no tilt the surrogate is the white Gaussian stream.
        noise = {"kind": "surrogate-industrial", "seed": 6,
                 "params": {"impulse_rate": 0.0, "impulse_amplitude_factor": 0.0,
                            "spectral_tilt_db_per_decade": 0.0}}
        surrogate = _noise_series(scenario_config_from_dict(
            {"n_bins": 64, "n_frames": 20, "reference_noise_power_mw": 2.5, "noise": noise}))
        white = _noise_series(scenario_config_from_dict(
            {"n_bins": 64, "n_frames": 20, "reference_noise_power_mw": 2.5,
             "noise": {"kind": "white-gaussian", "seed": 6}}))
        np.testing.assert_array_equal(surrogate, white)

    def test_surrogate_impulses_raise_kurtosis(self):
        params = SurrogateNoiseParams(impulse_rate=1e-3, impulse_amplitude_factor=10.0)
        surrogate = _synthetic_samples(10**5, params, seed=8)
        white = _synthetic_samples(10**5, WHITE, seed=8)
        k_surrogate = stats.kurtosis(np.abs(surrogate) ** 2)
        k_white = stats.kurtosis(np.abs(white) ** 2)
        assert k_surrogate > k_white

    def test_surrogate_deterministic(self):
        params = SurrogateNoiseParams(impulse_rate=1e-2, spectral_tilt_db_per_decade=-6.0)
        a = _synthetic_samples(1024, params, seed=3)
        b = _synthetic_samples(1024, params, seed=3)
        np.testing.assert_array_equal(a, b)


    @pytest.mark.parametrize("length", [1, 33, 10_007])
    def test_white_matches_out_of_place_oracle(self, length):
        np.testing.assert_array_equal(_synthetic_samples(length, WHITE, seed=11),
                                      old_white(length, 1.0, 11))

    @pytest.mark.parametrize("length", [1, 2, _LOWPASS_BLOCK, 10_007])
    @pytest.mark.parametrize("params", [
        SurrogateNoiseParams(impulse_rate=0.01, spectral_tilt_db_per_decade=6.0),
        SurrogateNoiseParams(impulse_rate=0.05, impulse_amplitude_factor=3.0),
    ], ids=["impulses-tilt+6", "impulses"])
    def test_surrogate_matches_out_of_place_oracle(self, length, params):
        got = _synthetic_samples(length, params, seed=5)
        np.testing.assert_array_equal(got, old_industrial(length, params, 5))

    @pytest.mark.parametrize("length", [1, 2, _LOWPASS_BLOCK, 1000, 10_007, 40_003, 512_000])
    @pytest.mark.parametrize("params", [
        SurrogateNoiseParams(impulse_rate=0.0, spectral_tilt_db_per_decade=-3.0),
        SurrogateNoiseParams(impulse_rate=0.01, impulse_amplitude_factor=8.0,
                             spectral_tilt_db_per_decade=-15.0),
        LONG_STREAM_PARAMS,
    ], ids=["tilt-3", "impulses-tilt-15", "long-stream"])
    def test_lowpassed_surrogate_matches_oracle_to_rounding(self, length, params):
        # The in-place low-pass multiplies one part's blocks at a time, the
        # oracle both parts' at once.  BLAS may pick a different kernel for the
        # two row counts (OpenBLAS does near its small-matrix switch), so the
        # two agree to rounding, not always bit for bit.  1000, 10_007 and
        # 40_003 are no multiple of the 32-sample block, and the last two and
        # 512_000 nest the block-end recursion one or more levels deep.
        got = _synthetic_samples(length, params, seed=5)
        want = old_industrial(length, params, 5)
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["white-gaussian", "surrogate-industrial", "trace-file"])
    def test_noise_series_equals_synthesis_then_one_rescale(self, kind, tmp_path):
        # The scenario's stream is the synthesized (or read) stream scaled once
        # to the reference power, without a copy per step.
        config, unscaled = _noise_config(kind, tmp_path)
        np.testing.assert_array_equal(_noise_series(config), rescaled(unscaled, 2.5))

    @pytest.mark.parametrize("kind", ["white-gaussian", "surrogate-industrial", "trace-file"])
    def test_noise_series_scales_once(self, kind, tmp_path, monkeypatch):
        config, _ = _noise_config(kind, tmp_path)
        targets = []

        def spy(samples, target_mw):
            targets.append(target_mw)
            _scale_to_power(samples, target_mw)

        monkeypatch.setattr(scenario, "_scale_to_power", spy)
        _noise_series(config)
        assert targets == [2.5]

    def test_trace_run_reads_its_trace_once_and_scales_that_array(self, tmp_path, monkeypatch):
        # One reader serves the run: a trace-file run reads its trace once,
        # through load_iq_trace, and the noise stream is the array it
        # returned, scaled in place.
        from noisebench.cli import main

        config, unscaled = _noise_config("trace-file", tmp_path)
        read = []

        def counting(path):
            read.append(load_iq_trace(path))
            return read[-1]

        monkeypatch.setattr(scenario, "load_iq_trace", counting)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "n_bins": config.n_bins, "n_frames": config.n_frames,
            "reference_noise_power_mw": 2.5,
            "noise": {"kind": "trace-file", "path": config.noise.path}}))
        argv = ["run", "--config", str(config_path), "--method", "ML:ideal",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(read) == 1
        samples = _noise_series(config)
        assert len(read) == 2 and samples is read[1]
        np.testing.assert_array_equal(samples, rescaled(unscaled, 2.5))


def _noise_config(kind: str, tmp_path) -> tuple[ScenarioConfig, np.ndarray]:
    """A 64 x 50 config of the noise kind at 2.5 mW, and its stream before scaling."""
    n_bins, n_frames, seed = 64, 50, 4
    noise = {"kind": kind, "seed": seed}
    if kind == "surrogate-industrial":
        unscaled = _synthetic_samples(n_bins * n_frames, LONG_STREAM_PARAMS, seed)
        noise["params"] = {"impulse_rate": 0.002, "impulse_amplitude_factor": 8.0,
                           "spectral_tilt_db_per_decade": -3.0}
    elif kind == "white-gaussian":
        unscaled = _synthetic_samples(n_bins * n_frames, WHITE, seed)
    else:
        path = tmp_path / "noise.iq"
        write_iq_trace(path, np.sqrt(3.0) * _synthetic_samples(n_bins * n_frames + 5, WHITE, seed))
        unscaled = load_iq_trace(path)
        noise = {"kind": kind, "path": str(path)}
    config = scenario_config_from_dict({"n_bins": n_bins, "n_frames": n_frames,
                                        "reference_noise_power_mw": 2.5, "noise": noise})
    return config, unscaled


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


    def test_power_bound(self):
        # The largest power a scenario carries: 500 dB over 1 mW on the full
        # band is exactly MAX_POWER_MW; anything above, or NaN, is rejected.
        assert amplitude_for_snr(500.0, 1.0, 1.0) == pytest.approx(
            np.sqrt(1000.0 * MAX_POWER_MW), rel=1e-12)
        for snr, fraction in ((500.1, 1.0), (494.0, 0.25), (float("nan"), 1.0), (1e6, 1.0)):
            with pytest.raises(ValueError, match="finite signal power of at most 1e[+]50 mW"):
                amplitude_for_snr(snr, 1.0, fraction)
        with pytest.raises(ValueError, match="signal power above 1e[+]50 mW"):
            SubbandSignal(subband_index=0, occupancy_fraction=0.5, amplitude_mv=1e30)
        assert SubbandSignal(subband_index=0, occupancy_fraction=0.5, amplitude_mv=1e26)


class TestInjectRectSignal:
    @staticmethod
    def _spectra(signal, n_bins, reference_noise_power_mw=1.0):
        """Spectra of a 3-frame build with ``signal`` and of the noise-only build
        of the same seed."""
        kwargs = dict(n_bins=n_bins, n_frames=3, noise=NoiseSource(seed=4),
                      reference_noise_power_mw=reference_noise_power_mw)
        block, _ = build_scenario(ScenarioConfig(signals=(signal,), **kwargs))
        noise_block, _ = build_scenario(ScenarioConfig(**kwargs))
        return block.spectral, noise_block.spectral

    def test_zero_amplitude_is_identity(self):
        sig = SubbandSignal(subband_index=0, occupancy_fraction=0.5, amplitude_mv=0.0)
        out, noise = self._spectra(sig, 80)
        np.testing.assert_array_equal(out, noise)

    def test_spectral_energy_added(self):
        # Amplitude of 2 sqrt-mW over 10 of 80 bins adds energy 4*10 to each
        # frame in the bin-power convention.
        n = 80
        amplitude_mv = 2.0 * np.sqrt(1000.0)
        sig = SubbandSignal(subband_index=0, occupancy_fraction=0.5,
                            amplitude_mv=amplitude_mv)
        out, noise = self._spectra(sig, n)
        added = np.sum(np.abs(out - noise) ** 2, axis=1) / n
        np.testing.assert_allclose(added, 4.0 * 10, rtol=1e-12)
        assert amplitude_mv_to_sqrt_mw(amplitude_mv) == pytest.approx(2.0)

    def test_outside_band_untouched(self):
        sig = SubbandSignal(subband_index=1, occupancy_fraction=1.0, amplitude_mv=50.0)
        out, noise = self._spectra(sig, 64)
        lo, hi = sig.occupied_bins(64, 4)
        outside = np.ones(64, dtype=bool)
        outside[lo:hi] = False
        np.testing.assert_array_equal(out[:, outside], noise[:, outside])

    @pytest.mark.parametrize("signal", [
        SubbandSignal(subband_index=1, occupancy_fraction=0.5, amplitude_mv=40.0),
        SubbandSignal(subband_index=3, occupancy_fraction=0.3, target_snr_db=-2.5),
    ], ids=["amplitude_mv", "target_snr_db"])
    def test_matches_build_scenario_row(self, signal):
        block, noise = self._spectra(signal, 64, reference_noise_power_mw=2.5)
        for f in range(3):
            out = inject_rect_signal(SpectralFrame(bins=noise[f], frame_index=f),
                                     signal, reference_noise_power_mw=2.5)
            np.testing.assert_array_equal(out.bins, block[f])

    def test_measured_snr_matches_target(self):
        # Whole-band SNR measured over a 100-frame block at the 0 dB amplitude.
        block, truth = build_scenario(reference_config(seed=21))
        power = power_matrix(block)
        measured_total = power.mean()
        snr_db = snr_db_from_powers(measured_total, 1.0)
        assert snr_db == pytest.approx(0.0, abs=0.2)


class TestBuildScenario:
    def test_no_signal_ground_truth(self):
        cfg = ScenarioConfig(n_bins=64, n_frames=3)
        _, truth = build_scenario(cfg)
        assert np.all(np.isneginf(truth.true_snr_db))
        assert not truth.signal_bin_mask.any()

    def test_ground_truth_keeps_read_only_arrays_and_copies_writeable_ones(self):
        power, snr, mask = np.ones(3), np.full(3, -np.inf), np.zeros((3, 8), dtype=bool)
        truth = GroundTruth(noise_power_mw=power, true_snr_db=snr, signal_bin_mask=mask)
        for name, given in (("noise_power_mw", power), ("true_snr_db", snr),
                            ("signal_bin_mask", mask)):
            kept = getattr(truth, name)
            assert not np.shares_memory(kept, given) and not kept.flags.writeable
            given.setflags(write=False)
        truth = GroundTruth(noise_power_mw=power, true_snr_db=snr, signal_bin_mask=mask)
        assert truth.noise_power_mw is power
        assert truth.true_snr_db is snr
        assert truth.signal_bin_mask is mask

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
        np.testing.assert_array_equal(block_a.spectral, block_b.spectral)

    def test_truth_snr_is_analytic(self):
        cfg = reference_config()
        _, truth = build_scenario(cfg)
        # One quarter-band signal at 0 dB: sigma_x = 2 mW, sigma_w = 1 mW.
        expected_db = snr_db_from_powers(2.0, 1.0)
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
        write_iq_trace(path, _synthetic_samples(100, WHITE, seed=1))
        cfg = ScenarioConfig(n_bins=64, n_frames=4,
                             noise=NoiseSource(kind="trace-file", path=str(path)))
        with pytest.raises(InsufficientSamplesError):
            build_scenario(cfg)

    def test_trace_noise_is_rescaled(self, tmp_path):
        path = tmp_path / "trace.iq"
        write_iq_trace(path, np.sqrt(5.0) * _synthetic_samples(64 * 4, WHITE, seed=2))
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
        write_iq_trace(path, np.sqrt(2.0) * _synthetic_samples(128 * 24 + 100, WHITE, seed=6))
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
        np.testing.assert_array_equal(time_series_of(block), want)



class TestSampleMemory:
    # The long-stream run's shape: 1000 frames of 512 bins read from a trace,
    # with a transmitter switch.
    N_BINS, N_FRAMES = 512, 1000

    def _config(self, tmp_path):
        trace = tmp_path / "noise.iq"
        write_iq_trace(trace, _synthetic_samples(self.N_BINS * self.N_FRAMES,
                                                 LONG_STREAM_PARAMS, seed=0))
        return scenario_config_from_dict({
            "n_bins": self.N_BINS, "n_frames": self.N_FRAMES,
            "noise": {"kind": "trace-file", "path": str(trace)},
            "signals": [
                {"subband_index": 1, "occupancy_fraction": 0.5, "target_snr_db": 10.0,
                 "frame_end": 500},
                {"subband_index": 3, "occupancy_fraction": 0.5, "target_snr_db": 10.0,
                 "frame_start": 500},
            ],
        })

    def test_trace_file_scenario_peak_within_one_and_three_quarter_streams(self, tmp_path):
        # The read buffer and the stream, whose buffer the spectra reuse, must
        # fit in 1.75 complex128 copies of the stream.
        config = self._config(tmp_path)
        peak = traced_peak(lambda: build_scenario(config))
        assert peak <= 1.75 * 16 * self.N_BINS * self.N_FRAMES

    def test_trace_file_seed_context_peak_within_one_and_three_quarter_streams(self, tmp_path):
        # The build, then the spectra and their power matrix, which is built
        # without a second square: 1.75 copies of the stream as well.
        from noisebench.bench import _SeedContext
        config = self._config(tmp_path)
        peak = traced_peak(lambda: _SeedContext(*build_scenario(config)))
        assert peak <= 1.75 * 16 * self.N_BINS * self.N_FRAMES


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

    # Every field of every section, each set to a value other than its default.
    FULL = {
        "name": "full", "n_bins": 64, "n_frames": 8, "sample_rate_hz": 1e6,
        "reference_noise_power_mw": 2.0, "subband_count": 2,
        "noise": {"kind": "surrogate-industrial", "seed": 5, "path": None,
                  "params": {"impulse_rate": 0.01, "impulse_amplitude_factor": 5.0,
                             "spectral_tilt_db_per_decade": -3.0}},
        "signals": [{"subband_index": 1, "occupancy_fraction": 0.5, "amplitude_mv": None,
                     "target_snr_db": 3.0, "frame_start": 1, "frame_end": 7}],
        "snr_schedule": [{"frame_start": 0, "frame_end": 4, "target_snr_db": -3.0}],
    }
    SECTIONS = {
        "scenario config": (lambda d: d, ScenarioConfig),
        "noise": (lambda d: d["noise"], NoiseSource),
        "noise.params": (lambda d: d["noise"]["params"], SurrogateNoiseParams),
        "signals[0]": (lambda d: d["signals"][0], SubbandSignal),
        "snr_schedule[0]": (lambda d: d["snr_schedule"][0], SnrStep),
    }

    def test_every_field_accepted(self):
        from dataclasses import fields
        for select, cls in self.SECTIONS.values():
            assert set(select(self.FULL)) == {f.name for f in fields(cls)}
        assert scenario_config_from_dict(json.loads(json.dumps(self.FULL))) == ScenarioConfig(
            name="full", n_bins=64, n_frames=8, sample_rate_hz=1e6,
            reference_noise_power_mw=2.0, subband_count=2,
            noise=NoiseSource(kind="surrogate-industrial", seed=5, params=SurrogateNoiseParams(
                impulse_rate=0.01, impulse_amplitude_factor=5.0,
                spectral_tilt_db_per_decade=-3.0)),
            signals=(SubbandSignal(subband_index=1, occupancy_fraction=0.5, target_snr_db=3.0,
                                   frame_start=1, frame_end=7),),
            snr_schedule=(SnrStep(frame_start=0, frame_end=4, target_snr_db=-3.0),),
        )

    @pytest.mark.parametrize("section", list(SECTIONS))
    def test_unknown_key_message(self, section):
        data = json.loads(json.dumps(self.FULL))
        self.SECTIONS[section][0](data).update(color="pink", bandwidth=5e6)
        with pytest.raises(ValueError) as exc:
            scenario_config_from_dict(data)
        assert str(exc.value) == f"unknown key(s) in {section}: bandwidth, color"

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

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_sample_rate_checked(self, rate):
        data = self._base()
        data["sample_rate_hz"] = rate
        with pytest.raises(ValueError) as exc:
            scenario_config_from_dict(data)
        assert str(exc.value) == "sample_rate_hz must be positive and finite"

    def test_subbands_must_partition(self):
        data = self._base()
        data["n_bins"] = 62
        with pytest.raises(ValueError, match="partition"):
            scenario_config_from_dict(data)
