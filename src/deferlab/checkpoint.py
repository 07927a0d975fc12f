"""Versioned checkpoints for a trained classifier/rejector pair.

A checkpoint is an ``.npz``-compatible archive written with fixed zip
timestamps. It stores each network as it is held in memory: its float64
parameter vector (``clf_params``, ``rej_params``) and its integer layer
widths, input first (``clf_widths``, ``rej_widths``), from which
``nets.layout_of`` rebuilds its layout. A ``meta`` array holds the JSON of
``format_version`` and ``train_config``. So a save/load round trip is
bit-exact, and re-saving identical networks produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import io
import json
import zipfile

import numpy as np

from .nets import DenseNet, TrainConfig, layout_of

FORMAT_VERSION = 2

# The file's arrays, each network's under its prefix.
_PREFIXES = ("clf", "rej")
_ARRAYS = {"meta"} | {f"{p}_{part}" for p in _PREFIXES for part in ("params", "widths")}


def _write_arrays(path, arrays: dict[str, np.ndarray]) -> None:
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arr), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def save_checkpoint(path, classifier: DenseNet, rejector: DenseNet, cfg: TrainConfig) -> None:
    meta = {"format_version": FORMAT_VERSION, "train_config": dataclasses.asdict(cfg)}
    arrays = {"meta": np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)}
    for prefix, net in zip(_PREFIXES, (classifier, rejector)):
        arrays[f"{prefix}_params"] = net.params
        arrays[f"{prefix}_widths"] = np.array(
            [net.input_dim, *(out_dim for out_dim, *_ in net.layout)], dtype=np.int64
        )
    _write_arrays(path, arrays)


def _is_int(value) -> bool:
    """A JSON integer: ``true`` and ``2.0`` compare equal to 1 and 2 in
    Python, but are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _load_net(path, data, prefix: str) -> DenseNet:
    """The network stored as ``{prefix}_widths`` and ``{prefix}_params``."""
    key = f"{prefix}_widths"
    try:
        widths = data[key]
        if widths.ndim != 1 or not np.issubdtype(widths.dtype, np.integer):
            raise ValueError(
                f"dtype {widths.dtype} and shape {widths.shape}, not a 1-D integer vector"
            )
        layout = layout_of(widths.tolist())
        key = f"{prefix}_params"
        return DenseNet(data[key], layout)
    except ValueError as err:  # an object array too, which ``np.load`` does not unpickle
        raise ValueError(f"checkpoint {path}: array {key!r}: {err}") from err


def load_checkpoint(path) -> tuple[DenseNet, DenseNet, TrainConfig]:
    """The networks and training config saved at ``path``.

    A file whose ``meta`` is not a JSON object of exactly ``format_version``
    and ``train_config``, whose ``format_version`` is not the integer
    ``FORMAT_VERSION`` (a version-1 file has another, and no reader here),
    whose arrays are not exactly ``meta`` and each network's ``params`` and
    ``widths``, whose widths are not a 1-D integer vector that ``layout_of``
    accepts, whose parameters are not a float64 vector of the size those
    widths give, or whose ``train_config`` is not a valid ``TrainConfig``
    (whose own checks name the key) raises ``ValueError`` naming the file
    and the key.
    """
    with np.load(path) as data:
        if "meta" not in data.files:
            raise ValueError(f"checkpoint {path}: missing array 'meta'")
        try:
            meta = json.loads(bytes(data["meta"]).decode())
        except ValueError as err:  # an object array, not UTF-8, or not JSON
            raise ValueError(f"checkpoint {path}: 'meta' is not JSON: {err}") from err
        if not isinstance(meta, dict):
            raise ValueError(f"checkpoint {path}: 'meta' is not a JSON object")
        for key in ("format_version", "train_config"):
            if key not in meta:
                raise ValueError(f"checkpoint {path}: meta has no {key!r}")
        version = meta["format_version"]
        if not _is_int(version) or version != FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {path}: unsupported 'format_version' {version!r}; "
                f"only {FORMAT_VERSION} is read"
            )
        for key in sorted(meta.keys() - {"format_version", "train_config"}):
            raise ValueError(f"checkpoint {path}: meta has an unknown key {key!r}")
        files = set(data.files)
        for name in sorted(_ARRAYS - files):
            raise ValueError(f"checkpoint {path}: missing array {name!r}")
        for name in sorted(files - _ARRAYS):
            raise ValueError(f"checkpoint {path}: unknown array {name!r}")
        classifier, rejector = (_load_net(path, data, p) for p in _PREFIXES)
    try:
        cfg = TrainConfig(**meta["train_config"])
    except (TypeError, ValueError) as err:
        raise ValueError(f"checkpoint {path}: bad 'train_config': {err}") from err
    return classifier, rejector, cfg
