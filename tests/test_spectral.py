from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisebench import (
    InsufficientSamplesError,
    PowerSpectrum,
    ResourceBlock,
    SpectralFrame,
    TraceFormatError,
    frame_spectra,
    load_iq_trace,
    power_matrix,
    power_spectrum,
    write_iq_trace,
)
from noisebench import spectral
from noisebench.spectral import frozen, mean_power

from conftest import white_frame


def direct_dft(x: np.ndarray) -> np.ndarray:
    """O(N^2) summation oracle for the unnormalized forward transform."""
    n = x.size
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])


def block_of(frames) -> ResourceBlock:
    """The resource block of time frames (rows): one batched FFT."""
    return ResourceBlock(np.fft.fft(frames, axis=1))


def averaged(block: ResourceBlock) -> np.ndarray:
    """The block's averaged periodogram: the bin-wise mean of its power matrix."""
    return power_matrix(block).mean(axis=0)


def dft(x: np.ndarray) -> np.ndarray:
    """The spectrum of the one frame ``x``, through the library's framing transform."""
    return frame_spectra(x, x.size, 1)[0]


def frames_of(spectra: np.ndarray) -> np.ndarray:
    """The time frames behind ``frame_spectra``'s rows."""
    return np.fft.ifft(spectra, axis=1)


class TestFrameSignal:
    def test_exact_slicing(self):
        frames = frames_of(frame_spectra(np.arange(8), 4, 2))
        np.testing.assert_allclose(frames[0], np.arange(4), atol=1e-12)
        np.testing.assert_allclose(frames[1], np.arange(4, 8), atol=1e-12)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamplesError):
            frame_spectra(np.arange(8), 4, 3)

    def test_trailing_samples_discarded(self):
        frames = frames_of(frame_spectra(np.arange(10), 4, 2))
        assert len(frames) == 2
        np.testing.assert_allclose(np.concatenate(frames), np.arange(8), atol=1e-12)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_concatenation_round_trip(self, n, m, extra):
        rng = np.random.default_rng(n * 100 + m * 10 + extra)
        data = rng.standard_normal(n * m + extra) + 1j * rng.standard_normal(n * m + extra)
        frames = frames_of(frame_spectra(data.copy(), n, m))
        np.testing.assert_allclose(np.concatenate(frames), data[:n * m], atol=1e-12)


class TestFrameSpectra:
    @pytest.mark.parametrize("n", [16, 17, 97, 509, 512])
    def test_bits_of_the_out_of_place_transform(self, n):
        # In place over the stream's own buffer: the same bits as a fresh FFT.
        rng = np.random.default_rng(n)
        m = 7
        stream = white_frame(rng, n * m)
        want = np.fft.fft(stream.reshape(m, n), axis=1)
        got = frame_spectra(stream, n, m)
        np.testing.assert_array_equal(got, want)
        assert got.flags.writeable and np.shares_memory(got, stream)

    @pytest.mark.parametrize("n", [16, 17, 97, 509, 512])
    def test_longer_stream_keeps_only_the_frames(self, n):
        rng = np.random.default_rng(n + 1)
        m = 5
        stream = white_frame(rng, n * m + 3 * n + 1)
        before = stream.copy()
        got = frame_spectra(stream, n, m)
        np.testing.assert_array_equal(got, np.fft.fft(before[:n * m].reshape(m, n), axis=1))
        # The frames were copied out: the caller's stream is untouched and
        # the spectra own frame_len * frame_count samples, no tail.
        np.testing.assert_array_equal(stream, before)
        assert not np.shares_memory(got, stream)
        assert got.base is None and got.shape == (m, n) and got.flags.writeable


class TestDft:
    def test_impulse_is_flat(self):
        bins = dft(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(bins, np.ones(4), atol=1e-15)

    def test_constant_is_dc_only(self):
        c = 2.5 - 1.0j
        bins = dft(np.full(4, c))
        np.testing.assert_allclose(bins[0], 4 * c, atol=1e-14)
        np.testing.assert_allclose(bins[1:], 0, atol=1e-13)

    def test_parseval_random_frame(self):
        rng = np.random.default_rng(42)
        x = white_frame(rng, 16)
        bins = dft(x.copy())
        lhs = np.sum(np.abs(bins) ** 2)
        rhs = 16 * np.sum(np.abs(x) ** 2)
        assert abs(lhs - rhs) / rhs < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17, 31, 64])
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(n)
        x = white_frame(rng, n)
        got = dft(x.copy())
        want = direct_dft(x)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_rejects_non_finite(self):
        # The block of a non-finite frame is rejected, naming the frame.
        spectra = frame_spectra(np.array([1.0, 1.0, 1.0, np.nan, 0.0, 0.0]), 2, 3)
        with pytest.raises(ValueError, match="non-finite value at frame 1, bin 0"):
            ResourceBlock(spectra)

    @given(st.integers(2, 64), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_parseval_property(self, n, seed):
        x = white_frame(np.random.default_rng(seed), n)
        bins = dft(x.copy())
        lhs = np.sum(np.abs(bins) ** 2)
        rhs = n * np.sum(np.abs(x) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestPowerSpectrum:
    def test_constant_input_power(self):
        c = 3.0
        ps = power_spectrum(SpectralFrame(dft(np.full(4, c))))
        np.testing.assert_allclose(ps.power, [4 * c**2, 0, 0, 0], atol=1e-12)
        assert ps.power.mean() == pytest.approx(c**2)

    def test_zero_frame(self):
        ps = power_spectrum(SpectralFrame(bins=np.zeros(8, dtype=complex)))
        np.testing.assert_array_equal(ps.power, np.zeros(8))

    def test_white_noise_mean_power(self):
        # Grand mean over 1000 seeded frames; single-frame std is 1/sqrt(512).
        rng = np.random.default_rng(2024)
        means = []
        for _ in range(1000):
            ps = power_spectrum(SpectralFrame(dft(white_frame(rng, 512))))
            means.append(ps.power.mean())
        tol = 3.0 / np.sqrt(512) / np.sqrt(1000)
        assert abs(np.mean(means) - 1.0) < tol


class TestAveragedPeriodogram:
    def _frame_with_powers(self, powers, index):
        bins = np.sqrt(np.asarray(powers, dtype=float) * len(powers))
        return SpectralFrame(bins=bins.astype(complex), frame_index=index)

    def test_single_frame_identity(self):
        frame = self._frame_with_powers([1.0, 3.0], 0)
        block = ResourceBlock(frame.bins[None, :])
        np.testing.assert_allclose(averaged(block), power_spectrum(frame).power)

    def test_two_frame_mean(self):
        block = ResourceBlock(np.stack([
            self._frame_with_powers([1.0, 3.0], 0).bins,
            self._frame_with_powers([3.0, 1.0], 1).bins,
        ]))
        np.testing.assert_allclose(averaged(block), [2.0, 2.0])

    def test_white_noise_block_levels(self):
        rng = np.random.default_rng(5)
        avg = averaged(block_of([white_frame(rng, 512) for _ in range(100)]))
        # Per-bin averaging std is 1/sqrt(100); 512 bins need headroom past 3 sigma.
        assert np.abs(avg - 1.0).max() < 4.5 / np.sqrt(100)
        assert np.mean(np.abs(avg - 1.0) < 3.0 / np.sqrt(100)) > 0.98

    @given(st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        frames = [white_frame(rng, 16) for _ in range(5)]
        block = block_of(frames)
        perm = list(rng.permutation(5))
        shuffled = block_of([frames[i] for i in perm])
        np.testing.assert_allclose(averaged(block), averaged(shuffled), rtol=1e-12)


class TestPowerMatrix:
    def test_matches_stacked_power_spectra(self):
        rng = np.random.default_rng(8)
        block = block_of([white_frame(rng, 64) for _ in range(7)])
        got = power_matrix(block)
        want = np.stack([
            power_spectrum(SpectralFrame(bins=row, frame_index=i)).power
            for i, row in enumerate(block.spectral)
        ])
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable


    def test_matches_out_of_place_oracle(self):
        rng = np.random.default_rng(9)
        spectral = (rng.standard_normal((30, 96)) + 1j * rng.standard_normal((30, 96))) * 1e3
        spectral[0, :4] = [0.0, -0.0, 1e-160 + 1e-160j, -1e150j]
        got = power_matrix(ResourceBlock(spectral))
        np.testing.assert_array_equal(got, (spectral.real**2 + spectral.imag**2) / 96)


class TestMeanPower:
    def test_matches_out_of_place_oracle(self):
        rng = np.random.default_rng(10)
        samples = rng.standard_normal(10_007) * 3 + 1j * rng.standard_normal(10_007)
        before = samples.copy()
        assert spectral.mean_power(samples) == float(np.mean(np.abs(samples) ** 2))
        np.testing.assert_array_equal(samples, before)


class TestBlockFromFrames:
    def test_matches_per_frame_dft(self):
        rng = np.random.default_rng(9)
        frames = [white_frame(rng, 48) for _ in range(6)]
        block = ResourceBlock(frame_spectra(np.concatenate(frames), 48, 6))
        want = np.stack([np.fft.fft(fr) for fr in frames])
        np.testing.assert_array_equal(block.spectral, want)

    def test_frame_signal_rows_round_trip(self):
        data = np.arange(12, dtype=complex)
        block = ResourceBlock(frame_spectra(data.copy(), 4, 3))
        assert (block.n_frames, block.n_bins) == (3, 4)
        np.testing.assert_allclose(np.fft.ifft(block.spectral, axis=1).ravel(), data,
                                   atol=1e-12)


class TestValueTypes:
    @pytest.mark.parametrize("values, message", [
        (np.ones(4, dtype=complex), "2-D"),
        (np.ones((2, 3, 4), dtype=complex), "2-D"),
        (np.ones((0, 4), dtype=complex), "at least one frame"),
        (np.ones((3, 1), dtype=complex), "at least 2 bins"),
    ], ids=["1-D", "3-D", "no-frames", "one-bin"])
    def test_block_rejects_bad_shapes(self, values, message):
        with pytest.raises(ValueError, match=message):
            ResourceBlock(values)

    @pytest.mark.parametrize("build, error, message", [
        (lambda: frame_spectra(np.ones((2, 3), dtype=complex), 3, 2), ValueError,
         "samples must be one-dimensional"),
        (lambda: write_iq_trace(os.devnull, np.ones((2, 3), dtype=complex)), ValueError,
         "samples must be one-dimensional"),
        (lambda: mean_power(np.array([], dtype=complex)), InsufficientSamplesError,
         "series is empty"),
        (lambda: SpectralFrame(bins=np.ones(1, dtype=complex)), ValueError,
         "a spectral frame needs at least 2 bins"),
        (lambda: SpectralFrame(bins=np.ones(4, dtype=complex), frame_index=-1), ValueError,
         "frame_index must be non-negative"),
        (lambda: PowerSpectrum(power=np.ones((2, 2))), ValueError,
         "power must be one-dimensional"),
        (lambda: frame_spectra(np.ones(8), 0, 2), ValueError,
         "frame_len and frame_count must be >= 1"),
        (lambda: frame_spectra(np.ones(8), 4, 0), ValueError,
         "frame_len and frame_count must be >= 1"),
        (lambda: frame_spectra(np.ones(7, dtype=complex), 4, 2), InsufficientSamplesError,
         "need 8 samples for 2 frames of 4, have 7"),
        (lambda: ResourceBlock(frame_spectra(np.ones(4, dtype=complex), 1, 4)), ValueError,
         "a spectral frame needs at least 2 bins"),
        (lambda: ResourceBlock(np.fft.fft(np.ones(4, dtype=complex))), ValueError,
         "a resource block is a 2-D (frames, bins) array, got 1-D"),
    ], ids=["series-2-D", "trace-2-D", "mean-power-empty", "frame-one-bin", "frame-negative-index",
            "power-2-D", "no-frame-length", "no-frames", "too-short", "dft-one-sample",
            "frames-1-D"])
    def test_inputs_checked(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_block_rejects_non_finite(self, bad):
        values = np.ones((4, 6), dtype=complex)
        values[2, 3] = bad
        values[3, 0] = bad
        with pytest.raises(ValueError, match="non-finite value at frame 2, bin 3"):
            ResourceBlock(values)

    def test_block_requires_uniform_bins(self):
        with pytest.raises(ValueError):
            ResourceBlock([np.ones(4, dtype=complex), np.ones(8, dtype=complex)])

    def test_block_copies_only_writeable_input(self):
        values = np.ones((3, 4), dtype=complex)
        block = ResourceBlock(values)
        assert not np.shares_memory(block.spectral, values)
        assert not block.spectral.flags.writeable
        values.setflags(write=False)
        assert ResourceBlock(values).spectral is values

    def test_series_checks_every_input(self, tmp_path):
        # A stream is checked where it is written and where it is read, past
        # the frames as well, and its block once more; a read-only one too.
        bad = np.ones(7, dtype=complex)
        bad[4] = np.nan
        bad.setflags(write=False)
        with pytest.raises(ValueError, match="sample 4"):
            write_iq_trace(tmp_path / "bad.iq", bad)
        assert not (tmp_path / "bad.iq").exists()
        (tmp_path / "bad.iq").write_bytes(bad.astype("<c8").tobytes())
        with pytest.raises(TraceFormatError, match="sample 4$"):
            load_iq_trace(tmp_path / "bad.iq")
        with pytest.raises(ValueError, match="non-finite value at frame 2, bin 0"):
            ResourceBlock(frame_spectra(bad, 2, 3))

    @pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                     complex(np.inf, 1.0), complex(1.0, -np.inf)],
                             ids=["nan-real", "nan-imag", "inf-real", "inf-imag"])
    def test_series_names_the_first_non_finite_sample(self, bad, tmp_path):
        # Either part makes a sample non-finite; the first such sample is named
        # where a stream is written and where it is read, and its frame by the block.
        values = np.ones(9, dtype=complex)
        values[5] = bad
        values[7] = complex(np.nan, np.nan)
        path = tmp_path / "bad.iq"
        with pytest.raises(ValueError, match=r"^samples contains a non-finite value at sample 5$"):
            write_iq_trace(path, values)
        assert not path.exists()
        path.write_bytes(values.astype("<c8").tobytes())
        with pytest.raises(TraceFormatError) as exc:
            load_iq_trace(path)
        assert str(exc.value) == f"{path}: non-finite value at sample 5"
        with pytest.raises(ValueError, match=r"^block contains a non-finite value at frame 1, bin 0$"):
            ResourceBlock(frame_spectra(values, 3, 3))

    def test_power_copies_only_writeable_input_and_checks_every_input(self):
        values = np.ones(6)
        ps = PowerSpectrum(power=values)
        assert not np.shares_memory(ps.power, values)
        assert not ps.power.flags.writeable
        values.setflags(write=False)
        assert PowerSpectrum(power=values).power is values
        for bad, message in (([np.nan, -1, 2, 3, 1, 0.5], "non-finite"),
                             ([1, -1, 2, 3, 1, 0.5], "non-negative")):
            frozen = np.array(bad, dtype=float)
            frozen.setflags(write=False)
            with pytest.raises(ValueError, match=message):
                PowerSpectrum(power=frozen)

    def test_frozen_copies_only_memory_of_a_writeable_input(self):
        given = np.ones((3, 4))
        fresh = np.asarray(given, dtype=np.complex128)  # conversion built it: kept
        assert frozen(fresh, given) is fresh and not fresh.flags.writeable
        listed = np.asarray([[1.0, 2.0]])
        assert frozen(listed, [[1.0, 2.0]]) is listed
        for arr in (given, given[1:]):  # the caller can still write through these
            kept = frozen(arr, given)
            assert not np.shares_memory(kept, given) and not kept.flags.writeable
            np.testing.assert_array_equal(kept, arr)
        assert given.flags.writeable
        given.setflags(write=False)
        assert frozen(given, given) is given

    def test_transforms_hand_over_without_copies(self, monkeypatch):
        # frame_spectra transforms a handed-over stream in its own buffer,
        # and power_spectrum and power_matrix freeze what they build before
        # handing it over, so the ownership rule never has to copy.
        copies = []

        def spy(arr, given):
            kept = frozen(arr, given)
            if kept is not arr:
                copies.append(arr.shape)
            return kept

        monkeypatch.setattr(spectral, "frozen", spy)
        stream = white_frame(np.random.default_rng(4), 32)  # a writeable complex128 stream
        before = stream.copy()
        spectra = frame_spectra(stream, 16, 2)
        spectra.setflags(write=False)
        block = ResourceBlock(spectra)
        matrix = power_matrix(block)
        spec = SpectralFrame(block.spectral[1], frame_index=1)
        power = power_spectrum(spec)
        assert copies == []
        # The stream's buffer became the block's.
        assert np.shares_memory(block.spectral, stream)
        np.testing.assert_array_equal(block.spectral, np.fft.fft(before.reshape(2, 16), axis=1))
        for arr in (spec.bins, power.power, block.spectral, matrix):
            assert not arr.flags.writeable

    def test_window_rows_reindexed_from_zero(self):
        rng = np.random.default_rng(3)
        block = block_of([white_frame(rng, 8) for _ in range(10)])
        sub = ResourceBlock(block.spectral[2:7])
        assert (sub.n_frames, sub.n_bins) == (5, 8)
        assert np.shares_memory(sub.spectral, block.spectral)
        np.testing.assert_array_equal(sub.spectral, block.spectral[2:7])

    def test_power_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            PowerSpectrum(power=np.array([1.0, -0.5]))

    def test_arrays_are_frozen(self):
        frame = SpectralFrame(bins=np.ones(4, dtype=complex))
        with pytest.raises(ValueError):
            frame.bins[0] = 5.0

    def test_empty_series_allowed_until_used(self, tmp_path):
        empty = np.array([], dtype=complex)
        write_iq_trace(tmp_path / "empty.iq", empty)
        assert (tmp_path / "empty.iq").read_bytes() == b""
        with pytest.raises(InsufficientSamplesError):
            frame_spectra(empty, 2, 1)
