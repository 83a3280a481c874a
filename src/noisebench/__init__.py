"""Noise-power and SNR estimation toolkit for ISM-band spectrum sensing."""

from .bench import (
    BenchmarkReport,
    EstimateSeries,
    MethodSpec,
    count_ops,
    mean_bias_db,
    rmse_db,
    run_benchmark,
    run_scenario,
    std_dev_db,
    write_report_csv,
    write_series_csv,
)
from .errors import (
    DegenerateSpectrumError,
    EmptyNoiseGroupError,
    InsufficientSamplesError,
    TraceFormatError,
    ZeroPowerError,
)
from .estimators import (
    EigenSpectrum,
    MpFitRange,
    NoisePowerEstimate,
    aic_estimate,
    cbe_estimate,
    cbe_fit,
    covariance_eigenvalues,
    covariance_spectrum,
    ml_estimate,
    ml_fit_frames,
    mmse_estimate,
    mmse_fit,
    mmse_fit_windows,
    mp_cdf,
    mvu_estimate,
    mvu_fit,
    mvu_fit_windows,
    sample_covariance,
    snr_db_from_powers,
    snr_from_powers,
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
    inject_rect_signal,
    load_iq_trace,
    rescale_to_power,
    scenario_config_from_dict,
    scenario_config_from_file,
    synth_industrial_noise,
    synth_white_noise,
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
    rof_energy_drops_rows,
    rof_find_band_width,
    rof_separate,
)
from .spectral import (
    ComplexSeries,
    PowerSpectrum,
    ResourceBlock,
    SpectralFrame,
    averaged_periodogram,
    block_from_frames,
    dft,
    frame_signal,
    power_matrix,
    power_spectrum,
)

__version__ = "0.1.0"
