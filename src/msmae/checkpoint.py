"""Binary checkpoint container.

Layout (all integers little-endian):

    magic   4 bytes  "PM2A"
    version u16      currently 2
    config  u32 length + utf-8 text: the [model] section of config.ini,
            one `key = value` line per ModelConfig field
    params  u32 record count, then records
    optflag u8       0 = no optimizer section
    [step   u64, epoch u64, m-table, v-table]   when optflag == 1
    auxflag u8       0 = no auxiliary table
    [aux-table]      extra named arrays (classifier head, run digest) when 1

A record is: name (u16 length + utf-8), rank (u8), extents (rank x u32),
then the raw float32 payload. Values are stored verbatim, so a save/load
cycle is bit-exact.

Records stream between file and array: a save writes each array's own
bytes to the file, and a load reads each payload straight into the array
it returns, after checking that the file still holds that many bytes.
Malformed files raise ParseError naming the absolute byte offset where
reading failed; a name repeated within a table, and a moment table whose
names or shapes differ from the parameters', are malformed too.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from . import tensor as T
from .codec import ini_section, read_ini, text_keys
from .errors import ConfigError, ContractError, ParseError
from .model import ModelConfig, param_shapes

MAGIC = b"PM2A"
VERSION = 2


def _table(items):
    """A table's chunks in file order: its count, then each record's header
    bytes and array. Every record is checked here, before a byte is written."""
    chunks = [struct.pack("<I", len(items))]
    for name, arr in items:
        if arr.dtype != np.float32:
            raise ContractError(f"checkpoint stores float32 only; {name} is {arr.dtype}")
        if arr.ndim > 0xFF:
            raise ContractError(f"{name}: rank {arr.ndim} exceeds container limit")
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ContractError(f"name too long for container: {len(raw)} bytes")
        chunks += [struct.pack("<H", len(raw)) + raw + struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr]
    return chunks


def _raw(arr):
    """A contiguous array's bytes as a flat uint8 view. numpy caches the
    format and shape of an exported buffer on the exporting array for its
    lifetime; exporting through this throwaway view keeps that cache off the
    caller's arrays and the loaded ones."""
    return arr.reshape(-1).view(np.uint8)


_MODEL_KEYS = text_keys("model", ModelConfig)


def model_text(config):
    """The container's config text: the [model] section as config.ini has it."""
    return ini_section("model", [(key, getattr(config, key)) for _, key in _MODEL_KEYS])


def parse_model_text(raw, path="model text", start=0):
    """ModelConfig from config text bytes found at byte `start` of `path`.

    The text is read as INI, like a --config file, and sets each
    ModelConfig key exactly once in its [model] section: anything else
    raises ParseError naming the key or section and `start`.
    """
    origin = f"{path}: config text at byte {start}"
    try:
        values = read_ini(raw.decode("utf-8"), origin, _MODEL_KEYS)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{origin} is not UTF-8 at byte {start + exc.start}") from None
    except ConfigError as exc:
        raise ParseError(str(exc)) from None
    missing = [key for part, key in _MODEL_KEYS if (part, key) not in values]
    if missing:
        raise ParseError(f"{origin} has no value for {missing}")
    try:
        return ModelConfig(**{key: value for (_, key), value in values.items()}).validate()
    except ConfigError as exc:
        raise ParseError(f"{origin} is invalid: {exc}") from None


class _Reader:
    """Reads an open container front to back, tracking the byte offset."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.size = os.fstat(fh.fileno()).st_size
        self.off = 0

    def _claim(self, n, what):
        # checked before anything is allocated: no read wants more than the file holds
        if self.off + n > self.size:
            raise ParseError(
                f"{self.path}: truncated while reading {what} at byte {self.off} "
                f"(wanted {n} bytes, file has {self.size})"
            )

    def _advance(self, got, n, what):
        if got != n:  # the file shrank while it was being read
            raise ParseError(f"{self.path}: read {got} of {n} bytes of {what} at byte {self.off}")
        self.off += n

    def take(self, n, what):
        self._claim(n, what)
        out = self.fh.read(n)
        self._advance(len(out), n, what)
        return out

    def unpack(self, fmt, what):
        """One little-endian integer of struct format fmt (B, H, I or Q)."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def string(self, what):
        n = self.unpack("H", f"{what} length")
        start = self.off
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(f"{self.path}: {what} is not UTF-8 at byte {start + e.start}") from None

    def array(self, name, shape, at):
        """Record `name`'s float32 payload, read straight from the file into
        its own array; `at` is the byte of the record's rank."""
        n, what = 4 * math.prod(shape), f"{name} payload"  # exact: np.prod would wrap around
        self._claim(n, what)
        try:
            out = np.empty(shape, dtype="<f4")
        except ValueError:  # more axes than numpy gives an array
            raise ParseError(f"{self.path}: {name} rank {len(shape)} at byte {at} exceeds numpy's limit") from None
        self._advance(self.fh.readinto(_raw(out)), n, what)
        return out


def _read_table(rd, what):
    count = rd.unpack("I", f"{what} count")
    out = {}
    for i in range(count):
        start = rd.off
        name = rd.string(f"{what} record {i} name")
        if name in out:
            raise ParseError(f"{rd.path}: {what} record {i} at byte {start} repeats the name {name!r}")
        at = rd.off
        rank = rd.unpack("B", f"{name} rank")
        shape = tuple(rd.unpack("I", f"{name} extent") for _ in range(rank))
        out[name] = rd.array(name, shape, at)
    return out


def _check_shapes(path, table, expected, what=""):
    for name, shape in expected.items():
        if table[name].shape != tuple(shape):
            raise ParseError(f"{path}: {what}{name} has shape {table[name].shape}, config wants {tuple(shape)}")


def save_checkpoint(path, config, params, optimizer=None, aux=None):
    """Write config + parameters (+ optional optimizer/aux tables) atomically.

    optimizer, when given, is {"step": int, "epoch": int, "m": {name: arr},
    "v": {name: arr}} with float32 arrays matching the parameter shapes.
    aux is a free name->float32-array table (classifier heads and such).
    Each array's bytes go straight to the file; a save that fails leaves
    `path` as it was and no `.tmp` file behind.
    """
    text = model_text(config).encode("utf-8")
    chunks = [MAGIC, struct.pack("<HI", VERSION, len(text)), text]
    names = list(param_shapes(config))
    missing = [n for n in names if n not in params]
    if missing:
        raise ContractError(f"params missing {missing[:3]} for this config")
    chunks += _table([(n, params[n].data) for n in names])
    if optimizer is None:
        chunks.append(struct.pack("<B", 0))
    else:
        chunks.append(struct.pack("<BQQ", 1, int(optimizer["step"]), int(optimizer["epoch"])))
        chunks += _table([(n, optimizer["m"][n]) for n in names])
        chunks += _table([(n, optimizer["v"][n]) for n in names])
    if aux is None:
        chunks.append(struct.pack("<B", 0))
    else:
        arrs = {n: (np.asarray(a) if isinstance(a, np.ndarray) else a.data) for n, a in aux.items()}
        chunks.append(struct.pack("<B", 1))
        chunks += _table(sorted(arrs.items()))
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk if isinstance(chunk, bytes) else _raw(np.ascontiguousarray(chunk, dtype="<f4")))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Read a container; returns (config, params, optimizer-or-None, aux-or-None).

    Parameters come back as float32 Tensors with requires_grad set, in the
    canonical creation order, verified against the embedded config; the
    moment tables must match them name for name and shape for shape.
    """
    try:
        with open(path, "rb") as fh:
            return _read_container(_Reader(fh, str(path)))
    except OSError as e:
        raise ParseError(f"{path}: cannot read checkpoint ({e.strerror})") from e


def _read_container(rd):
    path = rd.path
    if rd.take(4, "magic") != MAGIC:
        raise ParseError(f"{path}: bad magic at byte 0, not a checkpoint container")
    version = rd.unpack("H", "version")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported container version {version} at byte 4")
    size = rd.unpack("I", "config length")
    start = rd.off
    config = parse_model_text(rd.take(size, "config text"), path, start)
    table = _read_table(rd, "parameter")
    expected = param_shapes(config)
    if set(table) != set(expected):
        gone = sorted(set(expected) - set(table))[:3]
        alien = sorted(set(table) - set(expected))[:3]
        raise ParseError(f"{path}: parameter table mismatch (missing {gone}, unexpected {alien})")
    _check_shapes(path, table, expected)
    params = {n: T.tensor(table[n], requires_grad=True) for n in expected}
    optimizer = None
    if rd.unpack("B", "optimizer flag") == 1:
        step = rd.unpack("Q", "optimizer step")
        epoch = rd.unpack("Q", "optimizer epoch")
        m = _read_table(rd, "first-moment")
        v = _read_table(rd, "second-moment")
        for part, label in ((m, "first"), (v, "second")):
            if set(part) != set(expected):
                raise ParseError(f"{path}: {label}-moment table does not match parameters")
            _check_shapes(path, part, expected, f"{label}-moment ")
        optimizer = {"step": step, "epoch": epoch, "m": m, "v": v}
    aux = None
    if rd.unpack("B", "aux flag") == 1:
        aux = _read_table(rd, "auxiliary")
    if rd.off != rd.size:
        raise ParseError(f"{path}: {rd.size - rd.off} trailing bytes after byte {rd.off}")
    return config, params, optimizer, aux
