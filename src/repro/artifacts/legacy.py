"""Single-file ``.npz`` persistence for histograms, encoders, datasets.

The original (pre-snapshot) artifact format: one compressed archive per
object.  Kept for datasets and standalone histogram/encoder exchange;
full pipelines are persisted by :mod:`repro.artifacts.snapshot`, whose
members stay memory-mappable (``.npz`` members are not).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.artifacts.errors import FormatVersionError
from repro.core.encoder import (
    GlobalHistogramEncoder,
    IndividualHistogramEncoder,
    PointEncoder,
)
from repro.core.histogram import Histogram
from repro.data.datasets import Dataset
from repro.data.workload import QueryLog

_FORMAT_VERSION = 1


def save_histogram(path: str | Path, histogram: Histogram) -> Path:
    """Write a histogram's bucket table to ``path`` (.npz)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": np.asarray([_FORMAT_VERSION]),
        "lowers": histogram.lowers,
        "uppers": histogram.uppers,
    }
    if histogram.frequencies is not None:
        payload["frequencies"] = histogram.frequencies
    np.savez_compressed(path, **payload)
    return path


def load_histogram(path: str | Path) -> Histogram:
    """Read a histogram written by ``save_histogram``."""
    path = Path(path)
    with np.load(path) as data:
        _check_version(data, path)
        freqs = data["frequencies"] if "frequencies" in data else None
        return Histogram(data["lowers"], data["uppers"], freqs)


def save_encoder(path: str | Path, encoder: PointEncoder) -> Path:
    """Write a global or per-dimension histogram encoder to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(encoder, GlobalHistogramEncoder):
        payload = {
            "version": np.asarray([_FORMAT_VERSION]),
            "kind": np.asarray(["global"]),
            "dim": np.asarray([encoder.dim]),
            "lowers_0": encoder.histogram.lowers,
            "uppers_0": encoder.histogram.uppers,
        }
    elif isinstance(encoder, IndividualHistogramEncoder):
        payload = {
            "version": np.asarray([_FORMAT_VERSION]),
            "kind": np.asarray(["individual"]),
            "dim": np.asarray([encoder.dim]),
        }
        for j, hist in enumerate(encoder.histograms):
            payload[f"lowers_{j}"] = hist.lowers
            payload[f"uppers_{j}"] = hist.uppers
    else:
        raise TypeError(f"cannot persist encoder type {type(encoder).__name__}")
    np.savez_compressed(path, **payload)
    return path


def load_encoder(path: str | Path) -> PointEncoder:
    """Read an encoder written by ``save_encoder``."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        _check_version(data, path)
        kind = str(data["kind"][0])
        dim = int(data["dim"][0])
        if kind == "global":
            hist = Histogram(data["lowers_0"], data["uppers_0"])
            return GlobalHistogramEncoder(hist, dim)
        if kind == "individual":
            hists = [
                Histogram(data[f"lowers_{j}"], data[f"uppers_{j}"])
                for j in range(dim)
            ]
            return IndividualHistogramEncoder(hists)
    raise ValueError(f"unknown encoder kind {kind!r}")


def save_dataset(path: str | Path, dataset: Dataset) -> Path:
    """Write a dataset (points + query log) to ``path`` (.npz)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": np.asarray([_FORMAT_VERSION]),
        "name": np.asarray([dataset.name]),
        "points": dataset.points,
        "value_bits": np.asarray([dataset.value_bits]),
        "value_bytes": np.asarray([dataset.value_bytes]),
    }
    if dataset.query_log is not None:
        payload["pool"] = dataset.query_log.pool
        payload["workload_idx"] = dataset.query_log.workload_idx
        payload["test_idx"] = dataset.query_log.test_idx
    np.savez_compressed(path, **payload)
    return path


def load_dataset_file(path: str | Path) -> Dataset:
    """Read a dataset written by ``save_dataset``."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        _check_version(data, path)
        log = None
        if "pool" in data:
            log = QueryLog(
                pool=data["pool"],
                workload_idx=data["workload_idx"],
                test_idx=data["test_idx"],
            )
        return Dataset(
            name=str(data["name"][0]),
            points=data["points"],
            value_bits=int(data["value_bits"][0]),
            query_log=log,
            value_bytes=int(data["value_bytes"][0]),
        )


def _check_version(data, path: str | Path | None = None) -> None:
    found = int(data["version"][0]) if "version" in data else None
    if found != _FORMAT_VERSION:
        raise FormatVersionError(found, _FORMAT_VERSION, path)
