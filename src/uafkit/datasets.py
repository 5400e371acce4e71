"""Seeded synthetic datasets for the training demonstrations: a linear
mixing regression task with controlled SNR and a Gaussian-blob classification
task. Both are deterministic functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_size, coerce, coerce_reals

__all__ = ["Dataset", "make_gas_analogue", "make_blobs"]

# The train/validation/test fractions of every dataset.
SPLIT = (0.7, 0.15, 0.15)


@dataclass(frozen=True)
class Dataset:
    """Inputs and targets, split into train/validation/test rows by SPLIT."""

    inputs: np.ndarray  # (n_samples, n_features)
    targets: np.ndarray  # (n_samples, n_outputs)
    kind: str = "regression"  # or "classification"

    def __post_init__(self) -> None:
        inputs = coerce_reals("inputs", self.inputs)
        targets = coerce_reals("targets", self.targets)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-d arrays")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"inputs and targets disagree on sample count: "
                f"{inputs.shape[0]} vs {targets.shape[0]}"
            )
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ValueError("dataset contains non-finite values")
        if self.kind not in ("regression", "classification"):
            raise ValueError(f"kind must be regression or classification, got {self.kind!r}")
        if self.kind == "classification":
            row_sums = targets.sum(axis=1)
            if not (np.allclose(row_sums, 1.0) and np.all((targets == 0) | (targets == 1))):
                raise ValueError("classification targets must be one-hot rows")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        train, validation, _ = self.split_indices()
        if len(train) == 0 or len(validation) == 0:
            raise ValueError(
                f"split {SPLIT} of {len(inputs)} samples leaves an empty train or validation set"
            )

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    def split_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contiguous train/validation/test index ranges (rows are already
        i.i.d.-shuffled by the generators, so contiguous slices are unbiased)."""
        n = self.n_samples
        n_train = int(SPLIT[0] * n)
        n_val = int(SPLIT[1] * n)
        idx = np.arange(n)
        return idx[:n_train], idx[n_train : n_train + n_val], idx[n_train + n_val :]


def make_gas_analogue(
    seed: int,
    n_samples: int = 2000,
    n_channels: int = 64,
    n_species: int = 9,
    snr_db: float = 30.0,
) -> Dataset:
    """Linear-mixture regression with additive white Gaussian noise.

    A fixed random nonnegative mixing matrix M (n_channels x n_species) maps
    concentrations drawn uniformly from (0, 1] to channel readings; noise is
    scaled so that signal power / noise power = 10^(snr_db/10). snr_db = +inf
    disables the noise entirely; -inf and NaN are rejected. Targets are the
    concentrations.
    """
    seed = coerce("seed", seed, int, minimum=0)
    n_samples = coerce("n_samples", n_samples, int, minimum=1)
    n_species = coerce("n_species", n_species, int, minimum=1)
    n_channels = coerce("n_channels", n_channels, int, minimum=n_species)
    if snr_db != math.inf:
        snr_db = coerce("snr_db", snr_db, float)
    check_size("n_samples x n_channels", n_samples, n_channels)
    check_size("n_channels x n_species", n_channels, n_species)
    rng = np.random.default_rng(seed)
    mixing = rng.uniform(0.0, 1.0, size=(n_channels, n_species))
    # 1 - U[0,1) lies in (0, 1]: every concentration strictly positive.
    concentrations = 1.0 - rng.random(size=(n_samples, n_species))
    signal = concentrations @ mixing.T
    if snr_db == math.inf:
        inputs = signal
    else:
        signal_power = float(np.mean(signal * signal))
        try:
            noise_power = signal_power / (10.0 ** (snr_db / 10.0))
        except (OverflowError, ZeroDivisionError):
            raise ValueError(
                f"snr_db = {snr_db} puts the noise power out of float64 range"
            ) from None
        noise = rng.normal(0.0, math.sqrt(noise_power), size=signal.shape)
        inputs = signal + noise
    return Dataset(inputs=inputs, targets=concentrations, kind="regression")


def make_blobs(
    seed: int,
    n_samples: int = 2000,
    n_classes: int = 4,
    n_features: int = 16,
    spread: float = 1.0,
) -> Dataset:
    """Balanced Gaussian clusters with seeded centers and one-hot targets."""
    seed = coerce("seed", seed, int, minimum=0)
    n_classes = coerce("n_classes", n_classes, int, minimum=2)
    n_samples = coerce("n_samples", n_samples, int, minimum=n_classes)
    n_features = coerce("n_features", n_features, int, minimum=1)
    spread = coerce("spread", spread, float, minimum=0.0)
    check_size("n_samples x n_features", n_samples, n_features)
    check_size("n_samples x n_classes", n_samples, n_classes)
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5.0, 5.0, size=(n_classes, n_features))
    # Balanced class counts: the first (n_samples % n_classes) classes get one
    # extra sample.
    base, rem = divmod(n_samples, n_classes)
    counts = [base + (1 if c < rem else 0) for c in range(n_classes)]
    labels = np.repeat(np.arange(n_classes), counts)
    points = centers[labels] + rng.normal(0.0, spread, size=(n_samples, n_features))
    order = rng.permutation(n_samples)
    points = points[order]
    labels = labels[order]
    one_hot = np.zeros((n_samples, n_classes))
    one_hot[np.arange(n_samples), labels] = 1.0
    return Dataset(inputs=points, targets=one_hot, kind="classification")
