"""The JSON artifact format of saved models and tf-idf vocabularies: one
writer, one reader, and the codecs that turn fitted arrays into JSON.

``FLOATS`` and ``INTS`` are numeric arrays (plain numbers when they have no
axes); ``LOG_PROBS`` is a float array that stores -inf as null, keeping the
document strict JSON; ``CSR`` is a sparse matrix stored as its
``data``/``indices``/``indptr``/``shape`` fields.
"""

import json

import numpy as np
import scipy.sparse as sp

from .exceptions import ArtifactError

FLOATS, INTS, LOG_PROBS, CSR = "floats", "ints", "log_probs", "csr"


def write_json(path, payload):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path, rebuild):
    """``rebuild`` the JSON document at ``path``; a ValueError, including
    one from parsing, becomes an ArtifactError naming the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return rebuild(json.load(handle))
        except ValueError as exc:
            raise ArtifactError(f"{path}: {exc}") from None


def fields(obj, keys, where=""):
    """The values of ``keys`` in the JSON object ``obj``; errors call them ``where + key``."""
    if not isinstance(obj, dict):
        raise ArtifactError(f"{where.rstrip('.') or 'document'}: expected a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ArtifactError(f"missing key '{where}{missing[0]}'")
    return [obj[key] for key in keys]


def encode_value(codec, value):
    if codec == CSR:
        return {"data": value.data.tolist(), "indices": value.indices.tolist(),
                "indptr": value.indptr.tolist(), "shape": list(value.shape)}
    value = np.asarray(value).tolist()
    return [p if np.isfinite(p) else None for p in value] if codec == LOG_PROBS else value


def _decode(codec, raw):
    if codec == CSR:
        data, indices, indptr, shape = fields(raw, ("data", "indices", "indptr", "shape"))
        value = sp.csr_matrix(
            (_decode(FLOATS, data), _decode(INTS, indices), _decode(INTS, indptr)),
            shape=tuple(_decode(INTS, shape)),
        )
        value.check_format(full_check=True)
        return value
    if codec == LOG_PROBS and isinstance(raw, list):
        raw = [-np.inf if p is None else p for p in raw]
    value = np.array(raw)
    if value.size and value.dtype.kind not in ("i" if codec == INTS else "iuf"):
        raise ValueError("expected integers" if codec == INTS else "expected numbers")
    return value.astype(np.int64 if codec == INTS else np.float64)


def decode_value(key, codec, raw, axes, sizes):
    """Rebuild what ``encode_value`` stored under ``key``, with a shape that
    matches ``axes``: an int is a fixed length, a name is the length that
    ``sizes`` holds for it (its first use sets it). No axes give a plain
    number. Raises ArtifactError naming ``key``."""
    try:
        value = _decode(codec, raw)
        shape = tuple(sizes.setdefault(a, n) if isinstance(a, str) else a
                      for a, n in zip(axes, value.shape))
        if len(axes) != value.ndim or shape != value.shape:
            shape = tuple(sizes.get(a, a) if isinstance(a, str) else a for a in axes)
            raise ValueError(f"shape {value.shape} does not match {shape}")
    except (TypeError, ValueError) as exc:  # TypeError: e.g. a number where a list belongs
        raise ArtifactError(f"{key}: {exc}") from None
    return value.item() if value.ndim == 0 else value
