"""Reader/writer for a pragmatic subset of the NIfTI-1 file format.

Supports single-file ``.nii`` / ``.nii.gz`` (magic ``n+1\\0``) volumes with
datatypes uint8, int16, float32 and float64, in either byte order
(auto-detected through the ``sizeof_hdr == 348`` probe). Paired
``.hdr/.img`` files, NIfTI-2 and extensions are out of scope. Volumes
are loaded axis-aligned as RAS+: x = left-right, y = anterior-posterior,
z = inferior-superior. With ``sform_code > 0`` the sform must be a
diagonal scaling; an axis with a negative entry is flipped on reading,
and an oblique or permuted sform (a nonzero off-diagonal or a zero
diagonal entry) raises ``MalformedHeader``. With ``sform_code == 0`` the
data are taken as stored. 4D files with a singleton fourth dimension are
squeezed to 3D. Non-finite ``pixdim[1..3]`` or ``vox_offset``, a
non-finite ``scl_inter`` next to a valid ``scl_slope``, and a ``bitpix``
other than the datatype's width raise ``MalformedHeader``; NaN or
infinite voxels in a float file raise ``IoFailure``.

A read is one streamed pass over the file, through ``gzip.GzipFile``
when the file starts with the gzip magic (so multi-member files, zero
padding and each member's CRC and length are the standard library's).
One loop, ``_fill``, takes runs of whole z-planes (about ``_BLOCK`` file
bytes) with plain ``read()`` calls into a result laid out x-fastest
(Fortran order), as the file is and as nibabel returns it, and hands
each run to one of two puts. A volume read scales the run straight into
its slice of the result, with no decompressed copy of the file and no
float64 temporaries. ``read_volume(path, mask=True)`` reads a label file
as a ``BinaryMask``: its put takes each run through the value checks of
a LABEL volume, raised with the same classes, messages and order, and
compares it into the bool result (a scaled file's run through one
float64 run), so a mask costs one byte per voxel where a LABEL volume
costs four. A read holds its result plus about one run. zlib and numpy
release the GIL, so two reads overlap on two threads. ``write_volume``
stores a ``BinaryMask`` as uint8 from its bool bytes, the bytes of its
LABEL volume.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    DecompressFailure,
    EndiannessUndetectable,
    IoFailure,
    LabelOverflow,
    MalformedHeader,
    TruncatedData,
    UnsupportedDatatype,
    ValidationError,
)
from .manifest import atomic_write
from .volume import LABEL_FAULTS, BinaryMask, Volume3D, VolumeKind, label_fault

HEADER_SIZE = 348
MIN_VOX_OFFSET = HEADER_SIZE + 4  # single-file data start after the extension flag
MAGIC_SINGLE = b"n+1\x00"

# datatype code -> numpy base dtype; bitpix, the writer's dtype names,
# the largest exact label and float-ness all follow from the dtype
SUPPORTED_DATATYPES = {2: "u1", 4: "i2", 16: "f4", 64: "f8"}

# The header fields petseg reads or writes, as name -> (byte offset,
# struct code) at nifti1.h's offsets. A written header is zero elsewhere.
_FIELDS = {
    "sizeof_hdr": (0, "i"),
    "regular": (38, "c"),
    "dim": (40, "8h"),
    "datatype": (70, "h"),
    "bitpix": (72, "h"),
    "pixdim": (76, "8f"),
    "vox_offset": (108, "f"),
    "scl_slope": (112, "f"),
    "scl_inter": (116, "f"),
    "xyzt_units": (123, "B"),
    "descrip": (148, "80s"),
    "sform_code": (254, "h"),
    "srow": (280, "12f"),
    "magic": (344, "4s"),
}


@dataclass(frozen=True)
class NiftiHeader:
    """Decoded subset of the 348-byte NIfTI-1 header."""

    dim: tuple[int, ...]
    datatype_code: int
    bitpix: int
    pixdim: tuple[float, ...]
    vox_offset: float
    scl_slope: float
    scl_inter: float
    magic: bytes
    byteorder: str  # "<" or ">"
    sform_code: int = 0
    srow: tuple[tuple[float, ...], ...] = ((0.0,) * 4,) * 3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.dim[1], self.dim[2], self.dim[3])

    @property
    def spacing(self) -> tuple[float, float, float]:
        return (self.pixdim[1], self.pixdim[2], self.pixdim[3])

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the stored voxels, in the file's byte order."""
        return np.dtype(SUPPORTED_DATATYPES[self.datatype_code]).newbyteorder(self.byteorder)

    @property
    def scale(self) -> tuple[float, float] | None:
        """``(scl_slope, scl_inter)`` when raw values ``v`` read as
        ``v * scl_slope + scl_inter``, else None: a slope of 0 means "no
        scaling" per the NIfTI-1 convention, a NaN or infinite slope is
        read the same way (as nibabel does), and an integer file with
        slope 1 and intercept 0 keeps its integers."""
        slope, inter = self.scl_slope, self.scl_inter
        identity = self.dtype.kind in "iu" and slope == 1.0 and inter == 0.0
        return (slope, inter) if math.isfinite(slope) and slope != 0.0 and not identity else None

    @property
    def flipped_axes(self) -> tuple[int, ...]:
        """Axes the sform maps to decreasing world coordinates."""
        if self.sform_code <= 0:
            return ()
        return tuple(axis for axis in range(3) if self.srow[axis][axis] < 0)


def parse_header(buf: bytes) -> NiftiHeader:
    """Decode a NIfTI-1 header from the first 348 bytes of ``buf``.

    Byte order is detected by checking which decoding of ``sizeof_hdr``
    equals 348. Raises ``BadMagic``, ``UnsupportedDatatype``,
    ``EndiannessUndetectable``, ``MalformedHeader`` or ``TruncatedData``.
    """
    if len(buf) < HEADER_SIZE:
        raise TruncatedData(f"need {HEADER_SIZE} header bytes, got {len(buf)}")

    def field(name):
        at, code = _FIELDS[name]
        values = struct.unpack_from(byteorder + code, buf, at)
        return values if len(values) > 1 else values[0]

    for byteorder in "<>":
        if field("sizeof_hdr") == HEADER_SIZE:
            break
    else:
        raise EndiannessUndetectable("sizeof_hdr is not 348 under either byte order")

    dim, datatype, bitpix, magic = field("dim"), field("datatype"), field("bitpix"), field("magic")
    pixdim, vox_offset = field("pixdim"), field("vox_offset")
    scl_slope, scl_inter = field("scl_slope"), field("scl_inter")
    sform_code, srow_flat = field("sform_code"), field("srow")

    if magic != MAGIC_SINGLE:
        raise BadMagic(f"expected single-file magic {MAGIC_SINGLE!r}, got {magic!r}")
    if datatype not in SUPPORTED_DATATYPES:
        raise UnsupportedDatatype(datatype)
    if bitpix != (width := np.dtype(SUPPORTED_DATATYPES[datatype]).itemsize * 8):
        raise MalformedHeader(f"bitpix {bitpix} does not match datatype {datatype}, which has {width} bits")
    if dim[0] not in (3, 4):
        raise MalformedHeader(f"dim[0] must be 3 or 4, got {dim[0]}")
    if dim[0] == 4 and dim[4] != 1:
        raise MalformedHeader(f"4D volumes require a singleton 4th dimension, got dim[4]={dim[4]}")
    if any(d < 1 for d in dim[1:4]):
        raise MalformedHeader(f"spatial dims must be >= 1, got {dim[1:4]}")
    if any(not (math.isfinite(p) and p > 0) for p in pixdim[1:4]):
        raise MalformedHeader(f"pixdim[1..3] must be finite and > 0, got {pixdim[1:4]}")
    if not math.isfinite(vox_offset):
        raise MalformedHeader(f"vox_offset must be finite, got {vox_offset}")
    if math.isfinite(scl_slope) and scl_slope != 0 and not math.isfinite(scl_inter):
        raise MalformedHeader(f"scl_slope {scl_slope} comes with a non-finite scl_inter {scl_inter}")
    srow = (srow_flat[0:4], srow_flat[4:8], srow_flat[8:12])
    if sform_code > 0:
        for axis, row in enumerate(srow):
            off_diagonal = row[:axis] + row[axis + 1:3]
            if any(v != 0 for v in off_diagonal) or not (math.isfinite(row[axis]) and row[axis] != 0):
                raise MalformedHeader(f"sform is not a diagonal scaling: srow_{'xyz'[axis]} = {row}")

    return NiftiHeader(
        dim=tuple(int(d) for d in dim),
        datatype_code=int(datatype),
        bitpix=int(bitpix),
        pixdim=tuple(float(p) for p in pixdim),
        vox_offset=float(vox_offset),
        scl_slope=float(scl_slope),
        scl_inter=float(scl_inter),
        magic=magic,
        byteorder=byteorder,
        sform_code=int(sform_code),
        srow=srow,
    )


# bytes per step when skipping to the data or draining the stream, and
# file bytes per conversion step (whole z-planes, at least one): together
# they bound what a read holds beside its result
_CHUNK = 1 << 16
_BLOCK = 1 << 20


def read_volume(path, kind: VolumeKind | None = None, *, mask: bool = False,
                label: int | None = None) -> Volume3D | BinaryMask:
    """Load a ``.nii`` / ``.nii.gz`` file into a :class:`Volume3D`, or, with
    ``mask``, its LABEL values into a :class:`BinaryMask` of the nonzero
    voxels (of the voxels equal to ``label`` when given).

    See :func:`read_header_and_volume` for how the bytes become a volume.
    A mask takes the same streamed pass, flips, faults and fault order as
    a LABEL volume, but each run of z-planes is compared straight into the
    bool result, so the read holds one byte per voxel plus about one run.
    """
    if not mask:
        if label is not None:
            raise ValueError("label picks the voxels of a mask: pass mask=True")
        return read_header_and_volume(path, kind)[1]
    if kind not in (None, VolumeKind.LABEL):
        raise ValueError(f"a mask is read from LABEL values, not {kind.name}")
    return _read_file(path, lambda stream: _decode_mask(stream, label, path))


def read_header_and_volume(path, kind: VolumeKind | None = None) -> tuple[NiftiHeader, Volume3D]:
    """The header of a ``.nii`` / ``.nii.gz`` file and its :class:`Volume3D`.

    The file is read in one streamed pass, through ``gzip.GzipFile`` when
    it starts with the gzip magic, and each run of whole z-planes goes
    straight into the result array, which is laid out x-fastest like the
    file (``data.flags.f_contiguous``), so the read holds little beside the
    result. Raw values are mapped as :attr:`NiftiHeader.scale` says, in
    float64. Integer files with slope 1 and intercept 0 keep their integer
    values without a float detour. Axes that the sform flips are flipped
    back, so the data are RAS+. ``kind`` overrides the default inference of
    PET_SUV for float datatypes and LABEL for integer datatypes. A corrupt
    gzip stream is reported before any fault in the bytes it held, and a
    short file before NaN or infinite voxels.
    """
    return _read_file(path, lambda stream: _decode_volume(stream, kind, path))


def _read_file(path, decode):
    """``decode(stream)`` of the file at ``path``, a gzip stream when it
    starts with the gzip magic, with stream and OS faults as ``IoFailure``."""
    try:
        with open(path, "rb") as raw:
            packed = raw.peek(2)[:2] == b"\x1f\x8b"
            with gzip.GzipFile(fileobj=raw) if packed else raw as stream:
                try:
                    return decode(stream)
                except IoFailure:
                    _drain(stream)  # the rest of the stream may hold a decompression fault
                    raise
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise DecompressFailure(f"cannot decompress {path}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _read(stream, size: int) -> bytes:
    """The next ``size`` bytes of ``stream``, fewer only at its end. Each
    call takes at most ``_BLOCK`` bytes, so a header's shape cannot make a
    read allocate more than its file holds."""
    pieces = []
    while size > 0 and (piece := stream.read(min(size, _BLOCK))):
        pieces.append(piece)
        size -= len(piece)
    return b"".join(pieces)


def _drain(stream) -> None:
    """Read ``stream`` to its end, so gzip checks every member's CRC and length."""
    while stream.read(_CHUNK):
        pass


def _start(stream, source) -> NiftiHeader:
    """The header at the start of ``stream``."""
    head = _read(stream, HEADER_SIZE)
    try:
        header = parse_header(head)
    except IoFailure as exc:  # the same fault, naming the file
        exc.args = (f"{source}: {exc}",)
        raise
    if (offset := int(round(header.vox_offset))) < MIN_VOX_OFFSET:
        raise MalformedHeader(f"{source}: vox_offset {offset} points inside the header or its "
                              "extension flag")
    return header


def _fill(stream, header: NiftiHeader, source, dtype, put) -> np.ndarray:
    """The x-fastest ``header.shape`` array of ``dtype`` that ``put`` fills
    from ``stream`` (past the header :func:`_start` read), read to its end.

    The one read loop: it skips to the data, takes runs of whole z-planes
    (raising ``TruncatedData`` for a short one) and allocates the result
    once the first run has arrived, not on the header's word. Each run's
    file values, an ``(nx, ny, n)`` x-fastest view of bytes freed before
    the next run is read, go to ``put(planes, dst)``, ``dst`` being their
    slice of the result seen through the sform flips. NaN or infinite file
    values raise ``IoFailure`` once the stream is drained.
    """
    nx, ny, nz = header.shape
    dt = header.dtype
    plane = nx * ny * dt.itemsize
    run = max(1, _BLOCK // plane)
    offset = int(round(header.vox_offset))
    size = HEADER_SIZE
    while size < offset and (skipped := len(_read(stream, min(offset - size, _CHUNK)))):
        size += skipped
    out = into = None
    finite = True
    for z in range(0, nz, run):
        n = min(run, nz - z)
        data = _read(stream, n * plane)
        size += len(data)
        if len(data) < n * plane:
            raise TruncatedData(
                f"{source}: need {offset + nz * plane} bytes for shape {header.shape}, got {size}"
            )
        if out is None:
            out = np.empty(header.shape, dtype, order="F")
            into = np.flip(out, header.flipped_axes)  # takes the planes in stored order
        planes = np.frombuffer(data, dt).reshape((nx, ny, n), order="F")
        put(planes, into[:, :, z:z + n])
        finite = finite and (dt.kind != "f" or bool(np.isfinite(planes).all()))
        del data, planes  # only the result is held while the next run is read
    _drain(stream)
    if not finite:
        raise IoFailure(f"{source}: NaN or infinite voxel values")
    return out


def _scale_into(planes: np.ndarray, dst: np.ndarray, scale: tuple[float, float] | None) -> None:
    """``dst[...] = planes * slope + inter`` for ``scale = (slope, inter)``
    (in float64), or ``planes`` as they are when ``scale`` is None."""
    if scale is None:
        np.copyto(dst, planes)
    else:
        slope, inter = scale
        np.multiply(planes, slope, out=dst, dtype=np.float64)
        np.add(dst, inter, out=dst)


def _decode_volume(stream, kind: VolumeKind | None, source) -> tuple[NiftiHeader, Volume3D]:
    """The header and volume of the file bytes in ``stream``: each run is
    scaled straight into the result."""
    header = _start(stream, source)
    scale = header.scale
    if kind is None:
        kind = VolumeKind.PET_SUV if header.dtype.kind == "f" else VolumeKind.LABEL
    # unscaled integer labels go straight to int32, everything else to float64
    integer = kind is VolumeKind.LABEL and header.dtype.kind in "iu" and scale is None
    out = _fill(stream, header, source, np.int32 if integer else np.float64,
                lambda planes, dst: _scale_into(planes, dst, scale))
    try:
        return header, Volume3D(out, header.spacing, kind)
    except ValidationError as exc:  # e.g. negative or fractional values in a LABEL file
        raise IoFailure(f"{source}: cannot read as {kind.name}: {exc}") from exc


def _decode_mask(stream, label: int | None, source) -> BinaryMask:
    """The mask of the file bytes in ``stream``: each run takes the checks
    of a LABEL :class:`Volume3D` (a scaled file's run in one float64 run
    buffer) and is compared into the bool result. The gravest fault of any
    run is raised after the read, as a LABEL read raises it."""
    header = _start(stream, source)
    scale = header.scale
    faults = set()

    def put(planes, dst):
        if scale is not None:
            values = np.empty(planes.shape, np.float64, order="F")
            _scale_into(planes, values, scale)
            planes = values
        faults.add(label_fault(planes))
        if label is None:
            np.not_equal(planes, 0, out=dst)
        else:
            np.equal(planes, label, out=dst)

    out = _fill(stream, header, source, np.bool_, put)
    faults.discard(None)
    if faults:
        raise IoFailure(f"{source}: cannot read as LABEL: {LABEL_FAULTS[min(faults)]}")
    return BinaryMask(out, header.spacing)


def _label_limit(code: int) -> int:
    """The largest label that datatype ``code`` stores exactly."""
    dt = np.dtype(SUPPORTED_DATATYPES[code])
    return int(np.iinfo(dt).max) if dt.kind in "iu" else 2 ** (np.finfo(dt).nmant + 1)


def _file_dtype_for(vol: Volume3D | BinaryMask, dtype: str | None) -> int:
    mask = isinstance(vol, BinaryMask)
    label = mask or vol.kind is VolumeKind.LABEL
    vmax = 1 if mask else int(vol.data.max()) if label and vol.data.size else 0
    if dtype is not None:
        by_name = {np.dtype(base).name: code for code, base in SUPPORTED_DATATYPES.items()}
        if dtype not in by_name:
            raise UnsupportedDatatype(dtype)
        code = by_name[dtype]
    elif label:
        code = 2 if vmax <= _label_limit(2) else 4
    else:
        code = 16
    if label and vmax > (limit := _label_limit(code)):
        raise LabelOverflow(f"label value {vmax} exceeds {limit} for datatype code {code}")
    return code


def write_volume(vol: Volume3D | BinaryMask, path, byteorder: str = "<", dtype: str | None = None) -> None:
    """Write ``vol`` as a single-file NIfTI-1 volume (gzip if path ends .gz).

    Float volumes are stored as float32 unless ``dtype`` overrides; LABEL
    volumes as uint8 when the maximum label fits, else int16 (labels above
    32767 raise ``LabelOverflow``); a :class:`BinaryMask` as the uint8
    labels 0 and 1, straight from its bool bytes. Output bytes are
    deterministic: the gzip stream carries no timestamp.
    """
    if byteorder not in ("<", ">"):
        raise ValueError(f"byteorder must be '<' or '>', got {byteorder!r}")
    code = _file_dtype_for(vol, dtype)
    dt = np.dtype(SUPPORTED_DATATYPES[code]).newbyteorder(byteorder)

    nx, ny, nz = vol.shape
    sx, sy, sz = vol.spacing
    fields = {
        "sizeof_hdr": HEADER_SIZE,
        "regular": b"r",
        "dim": (3, nx, ny, nz, 1, 1, 1, 1),
        "datatype": code,
        "bitpix": dt.itemsize * 8,
        "pixdim": (1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0),
        "vox_offset": float(MIN_VOX_OFFSET),
        "scl_slope": 1.0,
        "xyzt_units": 2,  # millimetres
        "descrip": b"petseg",
        "sform_code": 1,
        "srow": (sx, 0.0, 0.0, 0.0, 0.0, sy, 0.0, 0.0, 0.0, 0.0, sz, 0.0),
        "magic": MAGIC_SINGLE,
    }
    head = bytearray(MIN_VOX_OFFSET)  # the header, then an empty extension flag
    for name, value in fields.items():
        at, fmt = _FIELDS[name]
        struct.pack_into(byteorder + fmt, head, at, *(value if isinstance(value, tuple) else (value,)))
    data = vol.mask.view(np.uint8) if isinstance(vol, BinaryMask) else vol.data
    payload = bytes(head) + data.astype(dt, copy=False).tobytes(order="F")
    if str(path).endswith(".gz"):
        payload = gzip.compress(payload, compresslevel=6, mtime=0)
    atomic_write(path, payload)
