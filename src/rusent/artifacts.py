"""How every stage file is written and how a stage CSV is read, plus the
JSON artifact format of saved models and tf-idf vocabularies.

Each file is written through ``replacing``, so it appears whole or not at
all. A fitted object is saved as the payload of ``to_payload``; its
``fitted`` rows pick a codec per key. ``FLOATS`` and ``INTS`` are arrays of
finite numbers (plain numbers when they have no axes); ``CSR`` is a sparse
matrix stored as its ``data``/``indices``/``indptr``/``shape`` fields;
``TERMS`` is a list of distinct strings.
"""

import csv
import json
import os
from contextlib import contextmanager, suppress

from .exceptions import ArtifactError, MalformedRowError, NotFittedError

FLOATS, INTS, CSR, TERMS = "floats", "ints", "csr", "terms"


@contextmanager
def replacing(path):
    """A text handle on the sibling file ``path``.tmp, which replaces ``path``
    when the block ends; if the block raises, it is removed and ``path`` is
    left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_json(path, payload):
    with replacing(path) as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def write_csv(path, header, rows):
    with replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def csv_rows(path, has_header=True):
    """Yield (line, fields) for each non-blank row of the CSV file at ``path``,
    skipping the first row if ``has_header``; ``line`` is where the row
    starts; a leading UTF-8 byte-order mark is skipped. An unparseable row
    raises MalformedRowError naming that line, and bytes that are not UTF-8
    raise one naming the file."""
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        line = 1
        try:
            for row in reader:
                if row and not (has_header and line == 1):
                    yield line, row
                line = reader.line_num + 1
        except csv.Error as exc:
            raise MalformedRowError(f"{path} line {line}: {exc}", [(line, str(exc))]) from None
        except UnicodeDecodeError as exc:  # decoded in blocks, so no line to name
            raise MalformedRowError(f"{path}: {exc}") from None


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
    import numpy as np  # here, so that reading and writing stage CSV files never loads it

    if codec == CSR:
        return {"data": value.data.tolist(), "indices": value.indices.tolist(),
                "indptr": value.indptr.tolist(), "shape": list(value.shape)}
    if codec == TERMS:  # not through numpy, whose strings drop trailing NULs
        return list(value)
    return np.asarray(value).tolist()


def _decode(codec, raw):
    import numpy as np

    if codec == CSR:
        import scipy.sparse as sp  # here, so that a stage reading no matrix never loads it
        data, indices, indptr, shape = fields(raw, ("data", "indices", "indptr", "shape"))
        value = sp.csr_matrix(
            (_decode(FLOATS, data), _decode(INTS, indices), _decode(INTS, indptr)),
            shape=tuple(_decode(INTS, shape)),
        )
        value.check_format(full_check=True)
        return value
    if codec == TERMS:
        if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
            raise ValueError("expected a list of strings")
        if len(set(raw)) < len(raw):
            raise ValueError("expected distinct terms")
        return np.array(raw, dtype=object)
    value = np.array(raw)
    if value.size and value.dtype.kind not in ("i" if codec == INTS else "iuf"):
        raise ValueError("expected integers" if codec == INTS else "expected numbers")
    value = value.astype(np.int64 if codec == INTS else np.float64)
    if not np.isfinite(value).all():  # JSON NaN and Infinity parse as floats
        raise ValueError("expected finite numbers")
    return value


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


def check_is_fitted(obj):
    """Raise NotFittedError unless ``obj`` has an ``n_features_``: a fit sets it
    last, and a classifier's fit clears it before training, so a diverged fit
    leaves none."""
    if getattr(obj, "n_features_", None) is None:
        raise NotFittedError(f"{type(obj).__name__} is not fitted; call fit() first")


def to_payload(obj):
    """The JSON payload of the fitted ``obj``: its ``kind``, ``hyperparams``,
    ``dimension`` and, under ``parameters``, the attributes its ``fitted``
    rows declare."""
    check_is_fitted(obj)
    return {
        "kind": obj.kind,
        "hyperparams": obj.get_params(),
        "dimension": obj.n_features_,
        "parameters": {key: encode_value(codec, getattr(obj, attr))
                       for key, attr, codec, _ in obj.fitted},
    }


def from_payload(payload, classes):
    """Rebuild a ``to_payload`` payload whose kind is a key of the kind ->
    class mapping ``classes``, then call the object's ``_check_fitted``. A
    ValueError names the first key that is missing, breaks its rule, or
    holds an array whose shape disagrees with its axes."""
    kind, hyperparams, dimension, parameters = fields(
        payload, ("kind", "hyperparams", "dimension", "parameters")
    )
    if not isinstance(kind, str) or kind not in classes:
        raise ArtifactError(f"kind: expected one of {sorted(classes)}, got {kind!r}")
    cls = classes[kind]
    fields(hyperparams, cls.constraints, "hyperparams.")
    cls.check_params(hyperparams)
    obj = cls(**hyperparams)
    obj.n_features_ = decode_value("dimension", INTS, dimension, (), {})
    sizes = {"dimension": obj.n_features_, **hyperparams}
    for key, attr, codec, axes in cls.fitted:
        (raw,) = fields(parameters, (key,), "parameters.")
        setattr(obj, attr, decode_value(f"parameters.{key}", codec, raw, axes, sizes))
    obj._check_fitted()
    return obj
