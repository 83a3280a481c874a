from __future__ import annotations

import numpy as np
import pytest

from noisebench import estimators, separation
from noisebench.errors import (
    ERRORS,
    DataError,
    DegenerateSpectrumError,
    EmptyNoiseGroupError,
    Status,
    ZeroPowerError,
    raise_first_status,
)


def statuses(negative, below):
    """Each entry's status under two checks, a non-positive MMSE estimate before a
    negative eigenvalue, the first that fails winning as in the engines."""
    return np.select([np.array(negative, dtype=bool), np.array(below, dtype=bool)],
                     [Status.NEGATIVE_ESTIMATE, Status.NEGATIVE_EIGENVALUE]).astype(np.int8)


def raise_with_values(status):
    """Entry i quotes the value float(i) and the tolerance 1e-10."""
    raise_first_status(status, value=np.arange(len(status), dtype=float), tolerance=1e-10)


class TestRaiseFirst:
    def test_entry_order_beats_check_order(self):
        with pytest.raises(ValueError, match="eigenvalue 1.0 below") as raised:
            raise_with_values(statuses([False, False, True], [False, True, False]))
        assert type(raised.value) is ValueError

    def test_first_check_wins_within_an_entry(self):
        with pytest.raises(ZeroPowerError, match=r"estimate \(2.0\)"):
            raise_with_values(statuses([False, False, True, True], [False, False, True, False]))

    def test_nothing_flagged_raises_nothing(self):
        raise_with_values(statuses([False, False], [False, False]))
        raise_with_values(statuses([], []))
        raise_first_status(np.zeros(0, dtype=np.int8))


# Each code with message fields, and the exception the per-entry loops raised
# before the engines returned statuses: its type and its message, written
# with those loops' f-strings on the numpy scalars they formatted.
_value, _top, _s, _m = np.float64(-6.802288137816115), np.float64(2.5), np.int64(4), 4
TODAY = {
    Status.NO_NOISE_FRAME: ({"method": "ml"}, EmptyNoiseGroupError,
                            "no bins classified as noise"),
    Status.NO_NOISE_WINDOW: ({"method": "mvu"}, EmptyNoiseGroupError,
                             "no bins classified as noise" + " in any frame"),
    Status.NOT_POSITIVE: ({"method": "ml", "value": np.float64(0.0)}, ZeroPowerError,
                          f"ml: estimate must be finite and positive, got {np.float64(0.0)}"),
    Status.NO_NOISE_EIGENVALUES: ({"signal_count": _s, "frames": _m}, EmptyNoiseGroupError,
                                  f"S={_s} signal eigenvalues leave no noise group (M={_m})"),
    Status.EIGENSOLVER_FAILED: ({}, ValueError, "eigensolver failed on the sample covariance: "
                                f"{np.linalg.LinAlgError('Eigenvalues did not converge')}"),
    Status.NEGATIVE_EIGENVALUE: ({"value": _value, "tolerance": 1e-10 * max(_top, 1.0)},
                                 ValueError,
                                 f"eigenvalue {_value} below -{1e-10 * max(_top, 1.0)} tolerance"),
    Status.SQUARE_WINDOW: ({}, ZeroPowerError, "square blocks leave no Marchenko-Pastur margin"),
    Status.ZERO_EIGENVALUE: ({}, ZeroPowerError,
                             "smallest eigenvalue is zero; no noise floor to fit"),
    Status.ZERO_RESIDUAL_BLOCK: ({}, ZeroPowerError,
                                 "all-zero residual block; nothing to estimate"),
    Status.SINGULAR_WEIGHTS: ({}, DegenerateSpectrumError,
                              "MMSE weight system is singular even after ridge"),
    Status.ZERO_WEIGHT_SUM: ({}, ZeroPowerError, "MMSE weights sum to zero"),
    Status.NEGATIVE_ESTIMATE: ({"method": "mmse", "value": _value}, ZeroPowerError,
                               f"MMSE produced a non-positive estimate ({float(_value)})"),
    Status.ALL_ZERO_SPECTRUM: ({}, DegenerateSpectrumError, "all-zero power spectrum"),
    Status.ROF_ALL_SIGNAL: ({}, DegenerateSpectrumError, "ROF marked every bin as signal"),
    Status.MASK_ALL_SIGNAL: ({}, DegenerateSpectrumError, "mask classifies every bin as signal"),
    Status.UNEVALUATED: ({}, DataError, "entry 1 was not evaluated"),
}


class TestStatusTable:
    def test_every_failing_code_has_one_error(self):
        assert set(ERRORS) == set(TODAY) == set(Status) - {Status.OK}

    @pytest.mark.parametrize("code", list(TODAY), ids=lambda code: code.name)
    def test_code_raises_todays_error(self, code):
        # The failing entry is entry 1 of 3; array fields give its element.
        fields, error, message = TODAY[code]
        arrays = {k: np.array([v, v, v]) if k != "method" else v for k, v in fields.items()}
        status = np.array([Status.OK, code, Status.NOT_POSITIVE], dtype=np.int8)
        with pytest.raises(error) as raised:
            raise_first_status(status, **arrays)
        assert type(raised.value) is error and str(raised.value) == message

    def test_non_finite_mmse_estimate(self):
        # The non-finite estimate, MMSE's last check, quotes the value as a float.
        with pytest.raises(ZeroPowerError) as raised:
            raise_first_status(np.array([Status.NOT_POSITIVE]), method="mmse",
                               value=np.array([np.nan]))
        assert str(raised.value) == f"mmse: estimate must be finite and positive, got {np.nan}"

    def test_eigensolver_failure_through_the_engine(self, monkeypatch):
        def failing(cov):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(estimators.np.linalg, "eigvalsh", failing)
        gram = np.eye(6, dtype=complex)
        values, grids, _, status = estimators.cbe_fit_windows(gram, 16, 4, np.zeros(3, np.int64))
        assert status.tolist() == [Status.EIGENSOLVER_FAILED, Status.UNEVALUATED,
                                   Status.UNEVALUATED]
        error, message = TODAY[Status.EIGENSOLVER_FAILED][1:]
        with pytest.raises(error, match=message):
            raise_first_status(status)


class TestStoppedEntriesAreUnevaluated:
    def test_rof_rows_past_the_failing_chunk(self, monkeypatch):
        # Two rows a chunk: row 3 is all zero and row 4 a ramp, all signal.
        spectra = np.random.default_rng(8).exponential(1.0, (6, 32))
        spectra[3], spectra[4] = 0.0, np.linspace(1.0, 50.0, 32)
        monkeypatch.setattr(separation, "ROF_CHUNK", 2)
        status = separation.rof_signal_rows(spectra)[-1]
        assert status.tolist() == [Status.OK] * 3 + [Status.ALL_ZERO_SPECTRUM] + [
            Status.UNEVALUATED] * 2
        monkeypatch.setattr(separation, "ROF_CHUNK", 64)
        status = separation.rof_signal_rows(spectra)[-1]
        assert status.tolist() == [Status.OK] * 3 + [Status.ALL_ZERO_SPECTRUM,
                                                     Status.ROF_ALL_SIGNAL, Status.OK]

    def test_mmse_windows_past_the_failing_chunk(self, monkeypatch):
        # From frame 20 on every frame is one dyadic row, so window 20 (rows
        # 20..29) is the first with an all-zero residual block.  Seven windows
        # a chunk: it is the last of the third chunk, and windows 21..30 are
        # not evaluated.
        rng = np.random.default_rng(8)
        spectral = rng.standard_normal((40, 16)) + 1j * rng.standard_normal((40, 16))
        spectral[20:] = np.arange(16) % 5 + 1j * (np.arange(16) % 3)
        monkeypatch.setattr(estimators, "MMSE_CHUNK", 7)
        *columns, status = estimators.mmse_fit_windows(spectral, 10)
        assert status.tolist() == [Status.OK] * 20 + [Status.ZERO_RESIDUAL_BLOCK] + [
            Status.UNEVALUATED] * 10
        for column in columns:
            assert np.isfinite(column[:20]).all() and np.isnan(column[21:]).all()

    def test_cbe_windows_past_the_failing_window(self):
        # Window 2 (frames 2..5) leaves no noise eigenvalue; it quotes nothing.
        gram = np.diag(np.random.default_rng(26).uniform(1.0, 2.0, 9)).astype(complex)
        counts = np.array([0, 0, 4, 0, 0, 0])
        values, grids, distances, status = estimators.cbe_fit_windows(gram, 32, 4, counts)
        assert status.tolist() == [Status.OK] * 2 + [Status.NO_NOISE_EIGENVALUES] + [
            Status.UNEVALUATED] * 3
        assert (values[:2] > 0).all() and np.isnan(values[2:]).all()
        assert np.isnan(grids[2:]).all() and np.isnan(distances[2:]).all()
