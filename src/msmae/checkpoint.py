"""Binary checkpoint container.

Layout (all integers little-endian):

    magic   4 bytes  "PM2A"
    version u16      currently 1
    config  u32 length + utf-8 text, one key=value line per ModelConfig
            field, values in the codec module's spelling
    params  u32 record count, then records
    optflag u8       0 = no optimizer section
    [step   u64, epoch u64, m-table, v-table]   when optflag == 1
    auxflag u8       0 = no auxiliary table
    [aux-table]      extra named arrays (e.g. classifier head) when 1

A record is: name (u16 length + utf-8), rank (u8), extents (rank x u32),
then the raw float32 payload. Values are stored verbatim, so a save/load
cycle is bit-exact. Malformed files raise ParseError naming the absolute
byte offset where reading failed.
"""

from __future__ import annotations

import os
import struct
from dataclasses import fields

import numpy as np

from . import tensor as T
from .codec import format_value, parse_value
from .errors import ConfigError, ContractError, ParseError
from .model import ModelConfig, param_shapes

MAGIC = b"PM2A"
VERSION = 1


def _pack_str(s):
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ContractError(f"name too long for container: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def _pack_record(name, arr):
    if arr.dtype != np.float32:
        raise ContractError(f"checkpoint stores float32 only; {name} is {arr.dtype}")
    if arr.ndim > 0xFF:
        raise ContractError(f"{name}: rank {arr.ndim} exceeds container limit")
    head = _pack_str(name) + struct.pack("<B", arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
    return head + np.ascontiguousarray(arr, dtype="<f4").tobytes()


def _pack_table(items):
    return [struct.pack("<I", len(items))] + [_pack_record(name, arr) for name, arr in items]


def model_text(config):
    """The container's config text for a ModelConfig."""
    return "\n".join(f"{f.name}={format_value(getattr(config, f.name))}" for f in fields(config))


def parse_model_text(raw, path="model text", start=0):
    """ModelConfig from config text bytes found at byte `start` of `path`.

    A malformed line raises ParseError naming the byte it starts at. Keys
    a text leaves out keep their ModelConfig defaults.
    """
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    values, off = {}, start
    for line in raw.split(b"\n"):
        try:
            key, _, value = line.decode("utf-8").partition("=")
            if key not in defaults:
                raise ConfigError(f"unknown model config key {key!r}")
            values[key] = parse_value(value, defaults[key])
        except (UnicodeDecodeError, ConfigError) as exc:
            raise ParseError(f"{path}: bad config line at byte {off}: {exc}") from None
        off += len(line) + 1
    try:
        return ModelConfig(**values).validate()
    except ConfigError as exc:
        raise ParseError(f"{path}: config text at byte {start} is invalid: {exc}") from None


class _Cursor:
    def __init__(self, blob, path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, n, what):
        if self.off + n > len(self.blob):
            raise ParseError(
                f"{self.path}: truncated while reading {what} at byte {self.off} "
                f"(wanted {n} bytes, file has {len(self.blob)})"
            )
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def unpack(self, fmt, what):
        """One little-endian integer of struct format fmt (B, H, I or Q)."""
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))[0]

    def string(self, what):
        n = self.unpack("H", f"{what} length")
        return self.take(n, what).decode("utf-8")


def _read_table(cur, what):
    count = cur.unpack("I", f"{what} count")
    out = {}
    for i in range(count):
        name = cur.string(f"{what} record {i} name")
        rank = cur.unpack("B", f"{name} rank")
        shape = tuple(cur.unpack("I", f"{name} extent") for _ in range(rank))
        n_items = int(np.prod(shape)) if shape else 1
        raw = cur.take(4 * n_items, f"{name} payload")
        out[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
    return out


def save_checkpoint(path, config, params, optimizer=None, aux=None):
    """Write config + parameters (+ optional optimizer/aux tables) atomically.

    optimizer, when given, is {"step": int, "epoch": int, "m": {name: arr},
    "v": {name: arr}} with float32 arrays matching the parameter shapes.
    aux is a free name->float32-array table (classifier heads and such).
    """
    text = model_text(config).encode("utf-8")
    parts = [MAGIC, struct.pack("<H", VERSION), struct.pack("<I", len(text)), text]
    names = list(param_shapes(config))
    missing = [n for n in names if n not in params]
    if missing:
        raise ContractError(f"params missing {missing[:3]} for this config")
    parts += _pack_table([(n, params[n].data) for n in names])
    if optimizer is None:
        parts.append(struct.pack("<B", 0))
    else:
        parts.append(struct.pack("<BQQ", 1, int(optimizer["step"]), int(optimizer["epoch"])))
        parts += _pack_table([(n, optimizer["m"][n]) for n in names])
        parts += _pack_table([(n, optimizer["v"][n]) for n in names])
    if aux is None:
        parts.append(struct.pack("<B", 0))
    else:
        arrs = {n: (np.asarray(a) if isinstance(a, np.ndarray) else a.data) for n, a in aux.items()}
        parts.append(struct.pack("<B", 1))
        parts += _pack_table(sorted(arrs.items()))
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(parts))
    os.replace(tmp, path)


def load_checkpoint(path):
    """Read a container; returns (config, params, optimizer-or-None, aux-or-None).

    Parameters come back as float32 Tensors with requires_grad set, in the
    canonical creation order, verified against the embedded config.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: cannot read checkpoint ({e.strerror})") from e
    cur = _Cursor(blob, str(path))
    if cur.take(4, "magic") != MAGIC:
        raise ParseError(f"{path}: bad magic at byte 0, not a checkpoint container")
    version = cur.unpack("H", "version")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported container version {version} at byte 4")
    size = cur.unpack("I", "config length")
    start = cur.off
    config = parse_model_text(cur.take(size, "config text"), path, start)
    table = _read_table(cur, "parameter")
    expected = param_shapes(config)
    if set(table) != set(expected):
        gone = sorted(set(expected) - set(table))[:3]
        alien = sorted(set(table) - set(expected))[:3]
        raise ParseError(f"{path}: parameter table mismatch (missing {gone}, unexpected {alien})")
    for name, shape in expected.items():
        if table[name].shape != tuple(shape):
            raise ParseError(f"{path}: {name} has shape {table[name].shape}, config wants {tuple(shape)}")
    params = {n: T.tensor(table[n], requires_grad=True) for n in expected}
    optimizer = None
    if cur.unpack("B", "optimizer flag") == 1:
        step = cur.unpack("Q", "optimizer step")
        epoch = cur.unpack("Q", "optimizer epoch")
        m = _read_table(cur, "first-moment")
        v = _read_table(cur, "second-moment")
        for part, label in ((m, "first"), (v, "second")):
            if set(part) != set(expected):
                raise ParseError(f"{path}: {label}-moment table does not match parameters")
        optimizer = {"step": step, "epoch": epoch, "m": m, "v": v}
    aux = None
    if cur.unpack("B", "aux flag") == 1:
        aux = _read_table(cur, "auxiliary")
    if cur.off != len(blob):
        raise ParseError(f"{path}: {len(blob) - cur.off} trailing bytes after byte {cur.off}")
    return config, params, optimizer, aux
