"""Unit tests for the synthetic dataset generators."""

import math

import numpy as np
import pytest

import uafkit as uk
from uafkit.datasets import Dataset


# --- gas analogue ---------------------------------------------------------------


def test_gas_shapes_and_kind():
    ds = uk.make_gas_analogue(seed=0, n_samples=500, n_channels=16, n_species=4)
    assert ds.inputs.shape == (500, 16)
    assert ds.targets.shape == (500, 4)
    assert ds.kind == "regression"
    assert ds.split == (0.7, 0.15, 0.15)


def test_gas_concentrations_in_unit_interval():
    ds = uk.make_gas_analogue(seed=3, n_samples=1000)
    assert np.all(ds.targets > 0.0)
    assert np.all(ds.targets <= 1.0)


def test_gas_noise_free_when_snr_infinite():
    ds = uk.make_gas_analogue(seed=5, n_samples=400, n_channels=12, n_species=3,
                              snr_db=math.inf)
    # Inputs are an exact linear map of the targets: regressing them leaves
    # no residual.
    coef, *_ = np.linalg.lstsq(ds.targets, ds.inputs, rcond=None)
    resid = ds.inputs - ds.targets @ coef
    assert np.max(np.abs(resid)) < 1e-10


def test_gas_snr_close_to_requested():
    ds = uk.make_gas_analogue(seed=11, n_samples=2000, snr_db=30.0)
    coef, *_ = np.linalg.lstsq(ds.targets, ds.inputs, rcond=None)
    signal = ds.targets @ coef
    noise = ds.inputs - signal
    snr = 10.0 * math.log10(np.mean(signal**2) / np.mean(noise**2))
    assert abs(snr - 30.0) <= 0.5


def test_gas_rejects_more_species_than_channels():
    with pytest.raises(ValueError):
        uk.make_gas_analogue(seed=0, n_channels=4, n_species=5)


def test_gas_rejects_negative_infinite_and_nan_snr():
    # -inf is infinite noise, not the noise-free +inf.
    for snr_db in (-math.inf, math.nan):
        with pytest.raises(ValueError):
            uk.make_gas_analogue(seed=0, n_samples=10, snr_db=snr_db)


def test_generators_check_their_arguments():
    for make in (uk.make_gas_analogue, uk.make_blobs):
        with pytest.raises(ValueError, match="seed"):
            make(seed=-1, n_samples=40)
        for bad in (dict(seed=True), dict(seed=1.5), dict(n_samples="40"), dict(n_samples=40.5)):
            with pytest.raises(ValueError):
                make(**{"seed": 1, **bad})
        # NumPy integers and integral floats read as the ints they hold
        assert np.array_equal(make(seed=np.int64(3), n_samples=40.0).inputs,
                              make(seed=3, n_samples=40).inputs)
    with pytest.raises(ValueError):
        uk.make_gas_analogue(seed=0, n_samples=40, snr_db="30")
    with pytest.raises(ValueError):
        uk.make_blobs(seed=0, n_samples=40, spread=None)
    # finite, but 10 ** (snr_db / 10) overflows (4000) or is 0.0 (-4000)
    for snr_db in (4000.0, -4000.0):
        with pytest.raises(ValueError, match=rf"^snr_db = {snr_db} puts the noise power out of float64 range$"):
            uk.make_gas_analogue(0, snr_db=snr_db)


def test_gas_deterministic():
    a = uk.make_gas_analogue(seed=9, n_samples=100)
    b = uk.make_gas_analogue(seed=9, n_samples=100)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)


# --- blobs -----------------------------------------------------------------------


def test_blobs_shapes_one_hot_balanced():
    ds = uk.make_blobs(seed=2, n_samples=1003, n_classes=4, n_features=8)
    assert ds.inputs.shape == (1003, 8)
    assert ds.targets.shape == (1003, 4)
    assert ds.kind == "classification"
    assert set(np.unique(ds.targets)) == {0.0, 1.0}
    assert np.array_equal(ds.targets.sum(axis=1), np.ones(1003))
    counts = ds.targets.sum(axis=0)
    assert counts.max() - counts.min() <= 1  # balanced up to the remainder


def test_blobs_bit_identical_per_seed():
    a = uk.make_blobs(seed=21)
    b = uk.make_blobs(seed=21)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    c = uk.make_blobs(seed=22)
    assert not np.array_equal(a.inputs, c.inputs)


def test_blobs_two_class_majority_baseline():
    ds = uk.make_blobs(seed=4, n_samples=600, n_classes=2)
    counts = ds.targets.sum(axis=0)
    assert counts[0] == counts[1] == 300


def test_blobs_tight_clusters_are_separable():
    ds = uk.make_blobs(seed=6, n_samples=400, n_classes=3, n_features=5, spread=1e-6)
    # nearest-centroid on the labeled points classifies perfectly
    labels = np.argmax(ds.targets, axis=1)
    centroids = np.stack([ds.inputs[labels == k].mean(axis=0) for k in range(3)])
    d = ((ds.inputs[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(d, axis=1), labels)


# --- the Dataset container ---------------------------------------------------------


def test_split_indices_partition():
    ds = uk.make_blobs(seed=1, n_samples=1000)
    tr, va, te = ds.split_indices()
    combined = np.concatenate([tr, va, te])
    assert len(combined) == 1000
    assert np.array_equal(np.sort(combined), np.arange(1000))
    assert len(tr) == 700 and len(va) == 150 and len(te) == 150


def test_dataset_validation():
    x = np.zeros((4, 2))
    y = np.zeros((4, 1))
    with pytest.raises(ValueError):
        Dataset(inputs=x * math.nan, targets=y, kind="regression")
    with pytest.raises(ValueError, match="^inputs and targets must be 2-d arrays$"):
        Dataset(inputs=np.zeros(4), targets=y, kind="regression")
    with pytest.raises(ValueError):
        Dataset(inputs=x, targets=np.zeros((3, 1)), kind="regression")
    with pytest.raises(ValueError):
        Dataset(inputs=x, targets=y, kind="ranking")
    with pytest.raises(ValueError):
        Dataset(inputs=x, targets=y, split=(0.5, 0.2, 0.2), kind="regression")
    # 4 samples split 0.7/0.15/0.15 leave no validation sample
    with pytest.raises(ValueError, match="empty"):
        Dataset(inputs=x, targets=y, kind="regression")
    with pytest.raises(ValueError, match="empty"):
        uk.make_gas_analogue(seed=0, n_samples=5)
    with pytest.raises(ValueError):
        # classification targets must be one-hot
        Dataset(inputs=x, targets=np.full((4, 2), 0.5), kind="classification")
