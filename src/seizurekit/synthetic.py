"""Synthetic EEG-like feature dataset for end-to-end pipeline validation.

Rows are drawn from class-conditional Gaussian mixtures with per-patient
offsets. The two class means sit class_separation pooled standard
deviations apart in every dimension, so no single feature separates the
classes cleanly; a shared two-component nuisance mixture adds non-Gaussian
structure, and patient offsets create the within-patient correlation that
makes patient-disjoint evaluation stricter than a row-level split. Labels
are drawn once per epoch at the configured seizure prevalence.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass

import numpy as np

from .edf import ChannelMeta, Recording
from .domains import Domain, check_params, domains_of, param
from .errors import ConfigError
from .features import FeatureMatrix

# Amplitude of the shared nuisance mixture component, in per-dimension
# standard deviations along a random unit direction.
_MIX_AMP = 2.0


@dataclass(frozen=True)
class SynthConfig:
    n_patients: int = param(23, Domain(int, 1))
    epochs_per_patient: int = param(1800, Domain(int, 1))
    seizure_prevalence: float = param(0.06, Domain(float, 0, 1, lo_open=True, hi_open=True))
    n_channels: int = param(23, Domain(int, 1))
    class_separation: float = param(0.35, Domain(float, 0, 1))
    patient_effect_scale: float = param(0.5, Domain(float, 0))
    seed: int = 0

    def __post_init__(self):
        check_params("synth", self, domains_of(self))

    @property
    def n_dims(self) -> int:
        return 4 * self.n_channels


def _patient_ids(n: int) -> list[str]:
    width = max(2, len(str(n)))
    return [f"P{i:0{width}d}" for i in range(1, n + 1)]


def generate_synthetic(cfg: SynthConfig) -> tuple[FeatureMatrix, np.ndarray]:
    """Draw the labeled, patient-tagged feature dataset for cfg.

    Deterministic under cfg.seed: the master seed spawns one child stream
    for the shared structure and one per patient, so per-patient data is
    independent of patient count order. Rows appear patient by patient,
    epoch by epoch, with start times 0, 2, 4, ... seconds.
    """
    d = cfg.n_dims
    ss = np.random.SeedSequence(cfg.seed)
    children = ss.spawn(cfg.n_patients + 1)
    shared = np.random.default_rng(children[0])

    u = shared.standard_normal(d)
    u /= np.sqrt((u * u).sum())

    # Pooled per-dimension std over epoch noise (1), patient offsets, and
    # the nuisance mixture; the class gap scales with it dimension-wise.
    pooled_std = np.sqrt(
        1.0 + cfg.patient_effect_scale**2 + (_MIX_AMP * u) ** 2
    )
    delta = cfg.class_separation * pooled_std
    mean_by_class = (-delta / 2.0, +delta / 2.0)

    n_per = cfg.epochs_per_patient
    values = np.empty((cfg.n_patients * n_per, d))
    labels = np.empty(cfg.n_patients * n_per, dtype=np.int64)
    patients = np.empty(cfg.n_patients * n_per, dtype=object)
    files = np.empty(cfg.n_patients * n_per, dtype=object)
    starts = np.tile(np.arange(n_per, dtype=np.float64) * 2.0, cfg.n_patients)

    for p, pid in enumerate(_patient_ids(cfg.n_patients)):
        rng = np.random.default_rng(children[p + 1])
        offset = rng.normal(0.0, cfg.patient_effect_scale, size=d)
        y = (rng.random(n_per) < cfg.seizure_prevalence).astype(np.int64)
        signs = np.where(rng.random(n_per) < 0.5, -1.0, 1.0)
        noise = rng.standard_normal((n_per, d))
        rows = noise + offset
        rows += signs[:, None] * (_MIX_AMP * u)[None, :]
        rows += np.where(y[:, None] == 1, mean_by_class[1], mean_by_class[0])
        lo = p * n_per
        values[lo : lo + n_per] = rows
        labels[lo : lo + n_per] = y
        patients[lo : lo + n_per] = pid
        files[lo : lo + n_per] = f"{pid}-synth"

    fm = FeatureMatrix(values=values, patients=patients, files=files, starts=starts)
    return fm, labels


def generate_synthetic_recordings(
    cfg: SynthConfig, sample_rate_hz: int = 32, epoch_len_s: float = 2.0
) -> list[tuple[str, Recording]]:
    """Raw-epoch companion to generate_synthetic, one recording per patient.

    Interprets each feature row's per-channel (mean, _, _, std) as the
    moments of a 2-second window and emits samples alternating mean+std /
    mean-std, which reproduces mean and population std exactly but only
    approximates the drawn max and min. Intended for exercising the EDF
    and epoching layers on realistic volumes, not for exact feature
    round-trips.
    """
    window = epoch_len_s * sample_rate_hz
    if abs(window - round(window)) > 1e-9 or round(window) < 2 or round(window) % 2:
        raise ConfigError(
            f"epoch of {epoch_len_s}s at {sample_rate_hz} Hz must cover an even "
            f"whole sample count, got {window}"
        )
    window = int(round(window))
    fm, _ = generate_synthetic(cfg)

    out = []
    alt = np.where(np.arange(window) % 2 == 0, 1.0, -1.0)
    for pid in _patient_ids(cfg.n_patients):
        rows = fm.values[fm.patients == pid]
        n_epochs = len(rows)
        sig = np.empty((cfg.n_channels, n_epochs * window))
        for ch in range(cfg.n_channels):
            mean = rows[:, 4 * ch]
            std = rows[:, 4 * ch + 3]
            block = mean[:, None] + np.abs(std)[:, None] * alt[None, :]
            sig[ch] = block.reshape(-1)
        # Integer bound keeps the 8-character EDF header fields lossless.
        bound = float(math.ceil(np.abs(sig).max()) + 1)
        channels = tuple(
            ChannelMeta(
                label=f"CH{ch + 1:02d}",
                transducer="synthetic",
                physical_dimension="uV",
                physical_min=-bound,
                physical_max=bound,
                digital_min=-32768,
                digital_max=32767,
                prefiltering="",
                samples_per_record=window,
            )
            for ch in range(cfg.n_channels)
        )
        rec = Recording(
            patient_id=pid,
            start_datetime=datetime.datetime(2000, 1, 1, 0, 0, 0),
            record_duration_s=epoch_len_s,
            num_records=n_epochs,
            channels=channels,
            signals=tuple(sig[ch] for ch in range(cfg.n_channels)),
        )
        out.append((f"{pid}-synth.edf", rec))
    return out
