"""Versioned checkpoints for a trained classifier/rejector pair.

Weights are stored as raw float64 arrays in an ``.npz``-compatible archive
written with fixed zip timestamps, so a save/load round trip is bit-exact
and re-saving identical networks produces byte-identical files.
"""

from __future__ import annotations

import io
import json
import zipfile

import numpy as np

from .nets import DenseNet, Layer, TrainConfig

FORMAT_VERSION = 1


def _write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def _net_arrays(prefix: str, net: DenseNet) -> dict[str, np.ndarray]:
    arrays = {}
    for i, layer in enumerate(net.layers):
        arrays[f"{prefix}_w{i}"] = layer.weights
        arrays[f"{prefix}_b{i}"] = layer.bias
    return arrays


def _activations(depth: int) -> list[str]:
    """The activation list of a network with ``depth`` layers, which the one
    architecture of ``nets`` fixes."""
    return ["relu"] * (depth - 1) + ["identity"]


def save_checkpoint(path, classifier: DenseNet, rejector: DenseNet, cfg: TrainConfig) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "classifier_activations": _activations(len(classifier.layout)),
        "rejector_activations": _activations(len(rejector.layout)),
        "train_config": {
            "learning_rate": cfg.learning_rate,
            "batch_size": cfg.batch_size,
            "epochs": cfg.epochs,
            "weight_decay": cfg.weight_decay,
            "seed": cfg.seed,
        },
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)}
    arrays.update(_net_arrays("clf", classifier))
    arrays.update(_net_arrays("rej", rejector))
    _write_arrays(path, arrays)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``2.0`` compare equal to 1 and 2 in
    Python, but are not."""
    return isinstance(value, int) and not isinstance(value, bool)


# Each network's array prefix and the meta key that lists its activations.
_NETS = {"clf": "classifier_activations", "rej": "rejector_activations"}


def _load_net(path, data, meta: dict, prefix: str) -> DenseNet:
    key = _NETS[prefix]
    try:
        return DenseNet.from_layers(
            [
                Layer(data[f"{prefix}_w{i}"], data[f"{prefix}_b{i}"])
                for i in range(len(meta[key]))
            ]
        )
    except ValueError as err:
        raise ValueError(f"checkpoint {path}: network {prefix!r} of {key!r}: {err}") from err


def load_checkpoint(path) -> tuple[DenseNet, DenseNet, TrainConfig]:
    """The networks and training config saved at ``path``.

    A file whose ``meta`` is not a JSON object, whose arrays are not exactly
    ``meta`` plus one weight and one bias per listed activation, whose meta
    lacks a key, whose activation list is not ``relu`` for every layer but
    the last and then ``identity``, whose networks do not build (layer
    shapes that do not compose), whose ``format_version`` is not the integer
    ``FORMAT_VERSION`` or whose ``train_config`` is not a valid
    ``TrainConfig`` (whose own checks name the key) raises ``ValueError``
    naming the file and the key.
    """
    with np.load(path) as data:
        if "meta" not in data.files:
            raise ValueError(f"checkpoint {path}: missing array 'meta'")
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except ValueError as err:  # not UTF-8, or not JSON
            raise ValueError(f"checkpoint {path}: 'meta' is not JSON: {err}") from err
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint {path}: 'meta' is not a JSON object")
        for key in ("format_version", *_NETS.values(), "train_config"):
            if key not in meta:
                raise ValueError(f"checkpoint {path}: meta has no {key!r}")
        for key in _NETS.values():
            if not isinstance(meta[key], list) or meta[key] != _activations(len(meta[key])):
                raise ValueError(
                    f"checkpoint {path}: meta {key!r} is {meta[key]!r}, not 'relu' "
                    "for every layer but the last and then 'identity'"
                )
        version = meta["format_version"]
        if not _is_int(version) or version != FORMAT_VERSION:
            raise ValueError(f"checkpoint {path}: unsupported 'format_version' {version!r}")
        expected = {"meta"} | {
            f"{p}_{c}{i}" for p, k in _NETS.items() for i in range(len(meta[k])) for c in "wb"
        }
        files = set(data.files)
        for name in sorted(expected - files):
            raise ValueError(f"checkpoint {path}: missing array {name!r}")
        for name in sorted(files - expected):
            raise ValueError(
                f"checkpoint {path}: array {name!r} is not a layer of "
                "classifier_activations or rejector_activations"
            )
        classifier, rejector = (_load_net(path, data, meta, p) for p in _NETS)
    try:
        cfg = TrainConfig(**meta["train_config"])
    except (TypeError, ValueError) as err:
        raise ValueError(f"checkpoint {path}: bad 'train_config': {err}") from err
    return classifier, rejector, cfg
