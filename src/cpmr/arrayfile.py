"""The one file format of cpmr's datasets and checkpoints: ``.npy`` records.

The first record is a uint8 array holding a UTF-8 JSON header (kind,
version, metadata, array names), then comes one record per named array.
Written through an open handle, the bytes depend on the content alone (an
``.npz`` zip stamps the wall-clock time), so a re-save is byte-identical.
"""

import json
from tokenize import TokenError

import numpy as np

from .errors import DataFormatError

VERSION = 1


def save(path, kind, arrays, meta):
    """Write ``arrays`` (dict name -> ndarray, in order) and JSON-able ``meta``."""
    header = json.dumps({"kind": kind, "version": VERSION, "meta": meta,
                         "arrays": list(arrays)}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        for a in [np.frombuffer(header, dtype=np.uint8), *arrays.values()]:
            np.lib.format.write_array(fh, np.ascontiguousarray(a), allow_pickle=False)


def load(path, kind):
    """(meta, dict name -> ndarray); DataFormatError unless a ``kind`` file."""
    with open(path, "rb") as fh:
        def read():
            return np.lib.format.read_array(fh, allow_pickle=False)
        try:
            head = json.loads(read().tobytes())
            head = head if isinstance(head, dict) else {}
            names, meta = head.get("arrays"), head.get("meta")
            if (head.get("kind"), head.get("version")) != (kind, VERSION) or not (
                    isinstance(meta, dict) and isinstance(names, list) and
                    all(isinstance(n, str) for n in names) and len(set(names)) == len(names)):
                raise ValueError(f"bad header: kind {head.get('kind')!r}, "
                                 f"version {head.get('version')!r}")
            arrays = {name: read() for name in names}
        # numpy's .npy header parser raises each of these on a corrupt header
        except (ValueError, SyntaxError, TypeError, TokenError) as exc:
            raise DataFormatError(f"{path}: not a cpmr {kind} file of version {VERSION} ({exc}); "
                                  "rerun `cpmr preprocess` or `cpmr train` to write one") from exc
    return meta, arrays
