"""How every stage file is written and how a stage CSV is read, plus the
JSON artifact format of saved models and tf-idf vocabularies.

Each file is written through ``replacing``, so it appears whole or not at
all. ``FLOATS`` and ``INTS`` are arrays of finite numbers (plain numbers
when they have no axes); ``LOG_PROBS`` is a float array that stores -inf as
null, keeping the document strict JSON; ``CSR`` is a sparse matrix stored as
its ``data``/``indices``/``indptr``/``shape`` fields.
"""

import csv
import json
import os
from contextlib import contextmanager, suppress

import numpy as np
import scipy.sparse as sp

from .exceptions import ArtifactError, MalformedRowError

FLOATS, INTS, LOG_PROBS, CSR = "floats", "ints", "log_probs", "csr"


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
    starts. An unparseable row raises MalformedRowError naming that line,
    and bytes that are not UTF-8 raise one naming the file."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
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
    nulls = codec == LOG_PROBS and isinstance(raw, list) and [p is None for p in raw]
    if nulls:
        raw = [0.0 if null else p for p, null in zip(raw, nulls)]
    value = np.array(raw)
    if value.size and value.dtype.kind not in ("i" if codec == INTS else "iuf"):
        raise ValueError("expected integers" if codec == INTS else "expected numbers")
    value = value.astype(np.int64 if codec == INTS else np.float64)
    if not np.isfinite(value).all():  # JSON NaN and Infinity parse as floats
        raise ValueError("expected finite numbers")
    if nulls:
        value[nulls] = -np.inf
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
