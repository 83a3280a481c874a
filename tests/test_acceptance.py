"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The scenario underneath
the accuracy/stability criteria is the reference ISM setup: 512 bins in four
equal subbands over 1 mW white Gaussian noise, third subband fully occupied
at 0 dB.  Scenarios run longer than the 100-frame analysis block so windowed
methods produce multi-entry series; block size M = 100 matches the criteria.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from noisebench import (
    MethodSpec,
    PowerSpectrum,
    ResourceBlock,
    aic_estimate,
    aic_fit_rows,
    cbe_estimate,
    count_ops,
    frame_spectra,
    fisher_separate,
    ideal_separate,
    ml_estimate,
    mmse_estimate,
    mvu_estimate,
    power_matrix,
    rmse_db,
    rof_find_band_width,
    rof_separate,
    run_scenario,
    std_dev_db,
)
from noisebench.cli import main as cli_main
from noisebench.estimators import mp_cdf_normalization_error
from noisebench.scenario import build_scenario, with_seed

from conftest import noise_only_config, reference_config

SEEDS_50 = list(range(50))


@pytest.fixture(scope="module")
def reference_runs():
    """Per-seed series of the comparison methods on the reference scenario."""
    config = reference_config(seed=0, n_frames=250)
    methods = [
        MethodSpec("ML", "ideal"),
        MethodSpec("MVU", "ideal"),
        MethodSpec("MVU", "rof"),
        MethodSpec("MVU", "fisher"),
        MethodSpec("AIC"),
    ]
    by_key = {}
    for s in run_scenario(config, methods, SEEDS_50):
        by_key.setdefault((s.method, s.separation), {})[s.seed] = s
    return by_key


def test_criterion_1_estimator_unbiasedness():
    """White Gaussian noise: every estimator's mean bias within 0.1 dB."""
    start = time.perf_counter()
    config = noise_only_config(seed=0, n_frames=300)
    values = {k: [] for k in ("ML(ideal)", "MVU(ideal)", "AIC", "CBE", "MMSE")}
    for seed in SEEDS_50:
        block, truth = build_scenario(with_seed(config, seed))
        power = power_matrix(block)
        spectra = [PowerSpectrum(power[f], f) for f in range(300)]
        masks = [ideal_separate(truth, f) for f in range(300)]
        values["ML(ideal)"].append(
            np.mean([ml_estimate(s, m) for s, m in zip(spectra, masks)]))
        # Windowed methods average over the three disjoint M=100 blocks.
        per_window = {"MVU(ideal)": [], "AIC": [], "CBE": [], "MMSE": []}
        for w in range(3):
            lo, hi = 100 * w, 100 * (w + 1)
            per_window["MVU(ideal)"].append(
                mvu_estimate(spectra[lo:hi], masks[lo:hi]))
            avg = PowerSpectrum(power[lo:hi].mean(axis=0), hi - 1)
            per_window["AIC"].append(aic_estimate(avg, 100))
            sub = ResourceBlock(block.spectral[lo:hi])
            per_window["CBE"].append(cbe_estimate(sub, 0.0))
            per_window["MMSE"].append(mmse_estimate(sub))
        for key, vals in per_window.items():
            values[key].append(np.mean(vals))
    elapsed = time.perf_counter() - start

    biases = {k: 10.0 * np.log10(np.mean(v)) for k, v in values.items()}
    for method, bias in biases.items():
        assert abs(bias) <= 0.1, f"{method} mean bias {bias:+.4f} dB exceeds 0.1 dB"
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f} s (budget 60 s)"
    detail = ", ".join(f"{k} {v:+.3f} dB" for k, v in biases.items())
    print(f"\ncriterion 1: PASS ({detail}; {elapsed:.1f} s)")


def test_criterion_2_stability_ordering(reference_runs):
    """MVU's SNR series is tighter than ML's in at least 95% of runs."""
    by_key = reference_runs
    wins = sum(
        std_dev_db(by_key[("MVU", "ideal")][seed]) < std_dev_db(by_key[("ML", "ideal")][seed])
        for seed in SEEDS_50
    )
    assert wins >= 0.95 * len(SEEDS_50), f"MVU tighter in only {wins}/50 runs"
    print(f"\ncriterion 2: PASS (MVU std below ML std in {wins}/50 runs)")


def test_criterion_3_separation_quality_ordering(reference_runs):
    """Rank-order filtering beats the Fisher discriminant on SNR RMSE."""
    by_key = reference_runs
    wins = sum(
        rmse_db(by_key[("MVU", "rof")][seed]) < rmse_db(by_key[("MVU", "fisher")][seed])
        for seed in SEEDS_50
    )
    assert wins >= 0.90 * len(SEEDS_50), f"ROF beat Fisher in only {wins}/50 runs"
    print(f"\ncriterion 3: PASS (MVU+ROF beat MVU+Fisher in {wins}/50 runs)")


def test_criterion_4_magnitude_reproduction(reference_runs):
    """AIC and MVU(ROF) SNR RMSE land in the 0.1..1.0 dB bracket."""
    by_key = reference_runs
    details = []
    for key in (("AIC", "none"), ("MVU", "rof")):
        rmse = float(np.mean([rmse_db(by_key[key][s]) for s in SEEDS_50]))
        label = f"{key[0]}({key[1]})" if key[1] != "none" else key[0]
        assert 0.1 <= rmse <= 1.0, f"{label} RMSE {rmse:.3f} dB outside [0.1, 1.0]"
        details.append(f"{label} {rmse:.3f} dB")
    print(f"\ncriterion 4: PASS ({'; '.join(details)})")


def test_criterion_5_cbe_recovery():
    """CBE recovers pure-noise power within 5%; MP CDF mass within 1e-6."""
    config = noise_only_config(seed=0, n_frames=64)
    values = []
    for seed in SEEDS_50:
        block, _ = build_scenario(with_seed(config, seed))
        values.append(cbe_estimate(block, 0.0, grid_size=100))
    mean = float(np.mean(values))
    assert abs(mean - 1.0) <= 0.05, f"CBE mean {mean:.4f} deviates more than 5%"
    norm_errors = [mp_cdf_normalization_error(c) for c in (64 / 512, 0.25, 0.5)]
    assert max(norm_errors) <= 1e-6, f"MP CDF mass error {max(norm_errors):.2e}"
    print(f"\ncriterion 5: PASS (CBE mean {mean:.4f} mW; "
          f"MP mass error {max(norm_errors):.1e})")


def test_criterion_6_rof_detection():
    """ROF masks cover the band and spare the noise; K finds a known width."""
    covered, spilled = [], []
    for seed in range(100):
        block, truth = build_scenario(reference_config(seed=seed))
        avg = PowerSpectrum(power_matrix(block).mean(axis=0))
        mask = rof_separate(avg)
        true_mask = truth.signal_bin_mask[0]
        covered.append((mask.is_signal & true_mask).sum() / true_mask.sum())
        spilled.append((mask.is_signal & ~true_mask).sum() / (~true_mask).sum())
    coverage = float(np.mean(covered))
    spill = float(np.mean(spilled))
    assert coverage >= 0.95, f"signal coverage {coverage:.3f} below 95%"
    assert spill <= 0.10, f"noise marking {spill:.3f} above 10%"

    band = np.ones(512)
    band[100:150] = 100.0  # 20 dB above the floor, width 50
    k = rof_find_band_width(PowerSpectrum(power=band))
    assert abs(k - 50) <= 2, f"K = {k} not within 2 bins of 50"
    print(f"\ncriterion 6: PASS (coverage {coverage:.3f}, spill {spill:.3f}, K={k})")


def test_criterion_7_oracle_equivalences():
    """Implementation paths agree with their independent oracles."""
    rng = np.random.default_rng(2718)
    # DFT against O(N^2) direct summation.
    for n in (2, 3, 7, 16, 33, 64):
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        k = np.arange(n)
        direct = np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])
        np.testing.assert_allclose(frame_spectra(x, n, 1)[0], direct, rtol=1e-9, atol=1e-9)

    # Fisher split against the exhaustive scan.
    for trial in range(25):
        n = int(rng.integers(8, 64))
        p = rng.exponential(1.0, n)
        if trial % 2:
            p[:int(rng.integers(2, n // 2))] += rng.uniform(5, 40)
        got = fisher_separate(PowerSpectrum(power=p)).aux["split"]
        a = np.sort(np.sqrt(p), kind="stable")
        best_t, best_j = None, -np.inf
        for t in range(2, n - 1):
            num = (a[:t].mean() - a[t:].mean()) ** 2
            den = a[:t].var(ddof=1) + a[t:].var(ddof=1)
            j = num / den if den > 0 else (np.inf if num > 0 else -np.inf)
            if j >= best_j and j > -np.inf:
                best_t, best_j = t, j
        assert got == best_t, f"fisher split {got} != oracle {best_t}"

    # AIC order against per-order direct evaluation.
    for trial in range(25):
        n = int(rng.integers(8, 64))
        m_frames = int(rng.integers(2, 20))
        p = rng.exponential(1.0, n)
        if trial % 2:
            p[:int(rng.integers(1, n // 2))] += rng.uniform(3, 30)
        got = aic_fit_rows(PowerSpectrum(power=p).power[None, :], m_frames)[1][0]
        lam = np.sort(np.maximum(p, 1e-30))[::-1]
        mult = m_frames * n
        curve = [
            (n - order) * mult * np.log(lam[order:].mean() /
                                        np.exp(np.mean(np.log(lam[order:]))))
            + order * (2 * n - order)
            for order in range(n)
        ]
        assert got == int(np.argmin(curve)), "AIC order mismatch with direct evaluation"
    print("\ncriterion 7: PASS (DFT, Fisher split, AIC order oracles agree)")


def test_criterion_8_complexity_validation():
    """Dominant-term growth: quadratic methods near x4, CBE matmul near x8."""
    start = time.perf_counter()
    quadratic = [
        MethodSpec("ML", "rof"),
        MethodSpec("ML", "fisher"),
        MethodSpec("AIC"),
        MethodSpec("MMSE"),
    ]
    details = []
    for spec in quadratic:
        small = count_ops(spec, 256).counts.total()
        large = count_ops(spec, 512).counts.total()
        ratio = large / small
        assert 3.5 <= ratio <= 4.5, f"{spec.label} ratio {ratio:.2f} not quadratic"
        details.append(f"{spec.label} x{ratio:.2f}")

    cbe_small = count_ops(MethodSpec("CBE"), 256).stages["covariance-matmul"].total()
    cbe_large = count_ops(MethodSpec("CBE"), 512).stages["covariance-matmul"].total()
    cbe_ratio = cbe_large / cbe_small
    assert 7.0 <= cbe_ratio <= 9.0, f"CBE matmul ratio {cbe_ratio:.2f} not cubic"
    details.append(f"CBE-matmul x{cbe_ratio:.2f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"ops suite took {elapsed:.1f} s (budget 120 s)"
    print(f"\ncriterion 8: PASS ({', '.join(details)}; {elapsed:.1f} s)")


def test_criterion_9_cli_determinism(tmp_path):
    """Identical cmd_run invocations produce byte-identical CSVs."""
    config_path = tmp_path / "config.json"
    config_path.write_text("""{
        "name": "determinism", "n_bins": 128, "n_frames": 60,
        "reference_noise_power_mw": 1.0,
        "noise": {"kind": "white-gaussian", "seed": 3},
        "signals": [{"subband_index": 1, "occupancy_fraction": 1.0, "target_snr_db": 0.0}]
    }""")
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = cli_main(["run", "--config", str(config_path), "--out", str(out),
                       "--method", "MVU:rof", "--method", "AIC", "--method", "MMSE",
                       "--seeds", "3,4"])
        assert rc == 0
        outputs.append(((out / "series.csv").read_bytes(),
                        (out / "report.csv").read_bytes()))
    assert outputs[0][0] == outputs[1][0], "series.csv differs between runs"
    assert outputs[0][1] == outputs[1][1], "report.csv differs between runs"
    print("\ncriterion 9: PASS (series.csv and report.csv byte-identical)")
