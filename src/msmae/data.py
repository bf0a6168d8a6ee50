"""Point cloud I/O, normalization, and the synthetic shape generator.

Five shape families stand in for scanned-object datasets at desk scale.
Class identity is a property of the geometry, not of scale or position:
normalization removes both, so a classifier must read shape.

File formats:
  XYZ  one "x y z" line per point, '#' starts a comment, 9 significant
       digits on save; parse failures name the line.
  PCB  magic "PCB1", u32 little-endian count, then count*3 float32
       little-endian; bit-exact round trip; parse failures name the byte.
  labels.tsv  "id<TAB>integer-label" per line.

Dataset directories look like <root>/<class-name>/<id>.pcb with an
optional labels.tsv at the root.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .codec import derived
from .errors import ConfigError, ContractError, ParseError
from .geometry import fps
from .rng import derive_rng

KINDS = ("sphere", "cube-surface", "cylinder", "torus", "plane")


@dataclass
class DatasetRecord:
    points: np.ndarray  # (N, 3) float64
    label: int
    id: str


def normalize_unit_sphere(points):
    """Center on the centroid and scale the farthest point to norm 1.

    A degenerate cloud (all points identical) is only centered; the scale
    divisor becomes 1 instead of 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ContractError(f"points must be (N >= 1, 3), got {pts.shape}")
    centered = pts - pts.mean(axis=0)
    scale = np.sqrt((centered * centered).sum(axis=1).max())
    return centered / (scale if scale > 0 else 1.0)


def _surface_sphere(n, rng, radius=1.0):
    # isotropic directions from normalized gaussians
    d = rng.normal(size=(n, 3))
    norms = np.sqrt((d * d).sum(axis=1, keepdims=True))
    return radius * d / np.maximum(norms, 1e-12)


def _surface_cube(n, rng, half=1.0):
    # faces of [-half, half]^3 have equal area: uniform face pick, uniform in-face
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-half, half, size=(n, 2))
    pts = np.empty((n, 3))
    axis = face // 2  # 0=x, 1=y, 2=z
    sign = np.where(face % 2 == 0, half, -half)
    for a in range(3):
        rows = axis == a
        others = [b for b in range(3) if b != a]
        pts[rows, a] = sign[rows]
        pts[rows, others[0]] = uv[rows, 0]
        pts[rows, others[1]] = uv[rows, 1]
    return pts


def _surface_cylinder(n, rng, radius=0.5, height=2.0):
    # area-weighted between the lateral surface and the two caps
    lateral = 2.0 * np.pi * radius * height
    cap = np.pi * radius * radius
    total = lateral + 2.0 * cap
    region = rng.random(n)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    t = rng.random(n)
    pts = np.empty((n, 3))
    on_side = region < lateral / total
    on_top = (~on_side) & (region < (lateral + cap) / total)
    on_bot = ~(on_side | on_top)
    pts[on_side, 0] = radius * np.cos(theta[on_side])
    pts[on_side, 1] = radius * np.sin(theta[on_side])
    pts[on_side, 2] = (t[on_side] - 0.5) * height
    for rows, z in ((on_top, height / 2.0), (on_bot, -height / 2.0)):
        rho = radius * np.sqrt(t[rows])
        pts[rows, 0] = rho * np.cos(theta[rows])
        pts[rows, 1] = rho * np.sin(theta[rows])
        pts[rows, 2] = z
    return pts


def _surface_torus(n, rng, major=0.8, minor=0.3):
    """Uniform area sampling via rejection on the tube angle.

    Surface element scales with (major + minor*cos v); candidates are
    accepted with that density, drawn in fixed-size batches so the rng
    sequence is deterministic.
    """
    out = np.empty((n, 2))
    have = 0
    while have < n:
        need = n - have
        v = rng.uniform(0.0, 2.0 * np.pi, size=2 * need)
        accept = rng.uniform(0.0, major + minor, size=2 * need) <= major + minor * np.cos(v)
        got = v[accept][:need]
        out[have:have + got.size, 1] = got
        have += got.size
    out[:, 0] = rng.uniform(0.0, 2.0 * np.pi, size=n)
    u, v = out[:, 0], out[:, 1]
    ring = major + minor * np.cos(v)
    return np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=1)


def _surface_plane(n, rng, half=1.0):
    xy = rng.uniform(-half, half, size=(n, 2))
    return np.concatenate([xy, np.zeros((n, 1))], axis=1)


_SURFACES = {
    "sphere": _surface_sphere,
    "cube-surface": _surface_cube,
    "cylinder": _surface_cylinder,
    "torus": _surface_torus,
    "plane": _surface_plane,
}


def save_xyz(path, points, comment=None):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ContractError(f"points must be (N, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ContractError("refusing to write non-finite coordinates")
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for x, y, z in pts:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")


def load_xyz(path):
    pts = []
    try:
        fh = open(path)
    except OSError as e:
        raise ParseError(f"{path}: cannot read ({e.strerror})") from e
    with fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 values, found {len(parts)}")
            try:
                x, y, z = (float(p) for p in parts)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric coordinate in {body!r}") from None
            if not all(np.isfinite((x, y, z))):
                raise ParseError(f"{path}:{lineno}: non-finite coordinate")
            pts.append((x, y, z))
    if not pts:
        raise ParseError(f"{path}: no points found")
    return np.asarray(pts, dtype=np.float64)


PCB_MAGIC = b"PCB1"


def save_pcb(path, points):
    pts = np.ascontiguousarray(np.asarray(points), dtype="<f4")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ContractError(f"points must be (N, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ContractError("refusing to write non-finite coordinates")
    with open(path, "wb") as fh:
        fh.write(PCB_MAGIC)
        fh.write(struct.pack("<I", pts.shape[0]))
        fh.write(pts.tobytes())


def load_pcb(path):
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: cannot read ({e.strerror})") from e
    if blob[:4] != PCB_MAGIC:
        raise ParseError(f"{path}: bad magic at byte 0 ({blob[:4]!r}), not a PCB file")
    if len(blob) < 8:
        raise ParseError(f"{path}: truncated header at byte {len(blob)}")
    (count,) = struct.unpack("<I", blob[4:8])
    want = 8 + count * 12
    if len(blob) < want:
        raise ParseError(
            f"{path}: truncated at byte {len(blob)}: header claims {count} points "
            f"({want} bytes total)"
        )
    if len(blob) > want:
        raise ParseError(f"{path}: {len(blob) - want} trailing bytes after byte {want}")
    pts = np.frombuffer(blob, dtype="<f4", count=count * 3, offset=8).reshape(count, 3)
    if not np.isfinite(pts).all():
        bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        raise ParseError(f"{path}: non-finite coordinate in point {bad}")
    return pts.astype(np.float32)


def save_labels(path, mapping):
    with open(path, "w") as fh:
        for key in sorted(mapping):
            fh.write(f"{key}\t{int(mapping[key])}\n")


def load_labels(path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.rstrip("\n")
            if not body.strip():
                continue
            parts = body.split("\t")
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'id<TAB>label'")
            try:
                out[parts[0]] = int(parts[1])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: label {parts[1]!r} is not an integer") from None
    return out


def resample(points, count, rng):
    """Force a cloud to exactly `count` points.

    Short clouds are filled by random choice with replacement; long clouds
    are reduced by farthest point sampling so coverage stays uniform.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if count < 1:
        raise ConfigError(f"target count must be >= 1, got {count}")
    if n == count:
        return pts
    if n < count:
        return pts[rng.integers(0, n, size=count)]
    return pts[fps(pts, count)]


def write_dataset_dir(root, records, class_names):
    """Lay records out as <root>/<class>/<id>.pcb plus labels.tsv."""
    labels = {}
    for rec in records:
        cls = class_names[rec.label]
        os.makedirs(os.path.join(root, cls), exist_ok=True)
        save_pcb(os.path.join(root, cls, f"{rec.id}.pcb"), rec.points)
        labels[f"{cls}/{rec.id}"] = rec.label
    save_labels(os.path.join(root, "labels.tsv"), labels)


def load_dataset_dir(root):
    """Read a dataset directory; labels.tsv, when present, is authoritative."""
    if not os.path.isdir(root):
        raise ConfigError(f"dataset directory {root} does not exist")
    classes = sorted(d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)))
    if not classes:
        raise ConfigError(f"dataset directory {root} has no class subdirectories")
    sidecar = os.path.join(root, "labels.tsv")
    mapping = load_labels(sidecar) if os.path.isfile(sidecar) else None
    records = []
    for label, cls in enumerate(classes):
        files = sorted(f for f in os.listdir(os.path.join(root, cls)) if f.endswith(".pcb"))
        if not files:
            raise ConfigError(f"class directory {os.path.join(root, cls)} holds no .pcb files")
        for f in files:
            stem = f[:-4]
            key = f"{cls}/{stem}"
            lab = label
            if mapping is not None:
                if key not in mapping:
                    raise ParseError(f"{sidecar}: no label for {key}")
                lab = mapping[key]
            records.append(DatasetRecord(
                points=load_pcb(os.path.join(root, cls, f)).astype(np.float64),
                label=lab, id=key))
    return records


@dataclass
class DataConfig:
    source: str = "synthetic"  # "synthetic" or a dataset directory path
    kinds: tuple = KINDS
    per_class: int = 0  # 0 -> distribute `total` round-robin
    total: int = 512
    num_points: int = derived(128)  # a run takes [model] num_points
    noise: float = 0.02
    seed: int = 0
    split_seed: int = 7
    train_frac: float = 0.8
    normalize: bool = True

    def validate(self):
        if self.source == "synthetic":
            if not self.kinds:
                raise ConfigError("at least one shape kind is required")
            for k in self.kinds:
                if k not in _SURFACES:
                    raise ConfigError(f"unknown shape kind {k!r}; known: {', '.join(KINDS)}")
            if self.per_class < 0 or (self.per_class == 0 and self.total < len(self.kinds)):
                raise ConfigError("need per_class >= 1 or total >= number of kinds")
            if not 0 <= self.noise < np.inf:  # NaN fails too
                raise ConfigError(f"noise must be >= 0 and finite, got {self.noise}")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"train_frac must lie in (0, 1), got {self.train_frac}")
        if self.num_points < 1:
            raise ConfigError("num_points must be >= 1")
        return self


def split_hash(split_seed, record_id):
    """Stable in [0, 1): blake2b of the seed and id, shard-order independent."""
    digest = hashlib.blake2b(f"{split_seed}:{record_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0 ** 64


def make_records(dc):
    """Generate or load the flat record list for a config, pre-split.

    Synthetic records are generated per (class, index) with derived seeds;
    directory sources are loaded and resampled to num_points.
    """
    dc.validate()
    records = []
    if dc.source == "synthetic":
        counts = {k: dc.per_class for k in dc.kinds}
        if dc.per_class == 0:
            base, extra = divmod(dc.total, len(dc.kinds))
            counts = {k: base + (1 if i < extra else 0) for i, k in enumerate(dc.kinds)}
        for ci, kind in enumerate(dc.kinds):
            for j in range(counts[kind]):
                rng = derive_rng(dc.seed, "data", KINDS.index(kind), j)
                pts = _SURFACES[kind](dc.num_points, rng)
                if dc.noise > 0:
                    pts = pts + rng.normal(0.0, dc.noise, size=pts.shape)
                records.append(DatasetRecord(points=pts, label=ci, id=f"{kind}-{j:05d}"))
    else:
        records = load_dataset_dir(dc.source)
        for i, rec in enumerate(records):
            rec.points = resample(rec.points, dc.num_points, derive_rng(dc.seed, "resample", i))
    if dc.normalize:
        for rec in records:
            rec.points = normalize_unit_sphere(rec.points)
    return records


def make_dataset(dc):
    """Build (train, val) record lists per the config.

    The split assigns each record by hashing (split_seed, id), so
    membership depends only on the id, never on shard order.
    """
    records = make_records(dc)
    train = [r for r in records if split_hash(dc.split_seed, r.id) < dc.train_frac]
    val = [r for r in records if split_hash(dc.split_seed, r.id) >= dc.train_frac]
    labels_present = {r.label for r in records}
    for name, part in (("train", train), ("val", val)):
        got = {r.label for r in part}
        if got != labels_present:
            missing = sorted(labels_present - got)
            raise ConfigError(f"{name} split lost class(es) {missing}; adjust split_seed or sizes")
    return train, val
