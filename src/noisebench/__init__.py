"""Noise-power and SNR estimation toolkit for ISM-band spectrum sensing."""

from .bench import (
    BenchmarkReport,
    EstimateSeries,
    MethodSpec,
    count_ops,
    count_ops_table,
    mean_bias_db,
    rmse_db,
    run_benchmark,
    run_scenario,
    std_dev_db,
    write_report_csv,
    write_series_csv,
)
from .errors import (
    DataError,
    DegenerateSpectrumError,
    EmptyNoiseGroupError,
    InsufficientSamplesError,
    TraceFormatError,
    ZeroPowerError,
)
from .estimators import (
    aic_estimate,
    aic_fit_rows,
    cbe_estimate,
    cbe_fit_windows,
    covariance_eigenvalues,
    ml_estimate,
    ml_fit_frames,
    mmse_estimate,
    mmse_fit_windows,
    mp_cdf,
    mvu_estimate,
    mvu_fit_rows,
    sample_covariance,
    snr_db_from_powers,
)
from .opcount import OpCounter, OpCounts
from .scenario import (
    GroundTruth,
    NoiseSource,
    ScenarioConfig,
    SnrStep,
    SubbandSignal,
    SurrogateNoiseParams,
    amplitude_for_snr,
    build_scenario,
    load_iq_trace,
    scenario_config_from_dict,
    scenario_config_from_file,
    with_seed,
    write_iq_trace,
)
from .separation import (
    RofParams,
    SeparationMask,
    fisher_separate,
    fisher_signal_rows,
    ideal_separate,
    rof_energy_drops,
    rof_find_band_width,
    rof_separate,
    rof_signal_rows,
)
from .spectral import (
    PowerSpectrum,
    ResourceBlock,
    SpectralFrame,
    frame_spectra,
    power_matrix,
    power_spectrum,
)

__version__ = "0.1.0"
