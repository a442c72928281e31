"""A minimal NIfTI-1 writer and reader kept apart from ``petseg.nifti``.

The generator writes every benchmark input through this module, so the
bytes a workload reads do not depend on the program version under test,
and the output checks decode the program's files without trusting its
reader. Only what the benchmark needs is supported: single-file
little-endian volumes of uint8 or float32, gzip-compressed when the
path ends in ``.gz``.
"""

from __future__ import annotations

import gzip
import struct
import zlib

import numpy as np

HEADER_SIZE = 348
VOX_OFFSET = 352
_CODES = {np.dtype("u1"): (2, 8), np.dtype("f4"): (16, 32)}
_DTYPES = {code: dt for dt, (code, _) in _CODES.items()}


def _header(shape, spacing, dtype) -> bytes:
    """352 bytes: the 348-byte header plus an empty extension flag.

    The sform is the plain scaling matrix (RAS+, no flips), the scale slope
    is 1 and the inter 0, as ``petseg.nifti.write_volume`` writes them.
    """
    code, bitpix = _CODES[np.dtype(dtype)]
    buf = bytearray(VOX_OFFSET)
    sx, sy, sz = (float(s) for s in spacing)
    struct.pack_into("<i", buf, 0, HEADER_SIZE)
    buf[38:39] = b"r"
    struct.pack_into("<8h", buf, 40, 3, *shape, 1, 1, 1, 1)
    struct.pack_into("<2h", buf, 70, code, bitpix)
    struct.pack_into("<8f", buf, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", buf, 108, float(VOX_OFFSET), 1.0, 0.0)
    buf[123:124] = bytes([2])  # millimetres
    struct.pack_into("<2h", buf, 252, 0, 1)  # qform_code, sform_code
    struct.pack_into("<12f", buf, 280, sx, 0, 0, 0, 0, sy, 0, 0, 0, 0, sz, 0)
    buf[344:348] = b"n+1\x00"
    return bytes(buf)


def write(path, data: np.ndarray, spacing, dtype) -> None:
    """Write ``data`` (x, y, z) as ``dtype``; gzip when the path ends in .gz.

    The gzip stream has no timestamp and is deflated with the run-length
    strategy: on noisy float PET it writes faster than ``gzip -1`` and
    compresses about as well as ``gzip -6``, whose files take the same
    inflate work to read.
    """
    values = np.asarray(data, dtype=np.dtype(dtype).newbyteorder("<"))
    payload = _header(data.shape, spacing, dtype) + values.tobytes(order="F")
    if str(path).endswith(".gz"):
        deflate = zlib.compressobj(1, zlib.DEFLATED, 31, 9, zlib.Z_RLE)
        payload = deflate.compress(payload) + deflate.flush()
    with open(path, "wb") as fh:
        fh.write(payload)


def read(path) -> np.ndarray:
    """Decode a little-endian single-file volume written by either writer."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    if struct.unpack_from("<i", raw, 0)[0] != HEADER_SIZE or raw[344:348] != b"n+1\x00":
        raise ValueError(f"{path}: not a little-endian single-file NIfTI-1 volume")
    dim = struct.unpack_from("<8h", raw, 40)
    code = struct.unpack_from("<h", raw, 70)[0]
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    slope, inter = struct.unpack_from("<2f", raw, 112)
    shape = tuple(dim[1:4])
    data = np.frombuffer(raw, dtype=_DTYPES[code], count=int(np.prod(shape)), offset=offset)
    data = data.reshape(shape, order="F")
    if slope not in (0.0, 1.0) or inter != 0.0:
        data = data * slope + inter
    return data
