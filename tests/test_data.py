"""Synthetic generators, file formats, and dataset assembly tests."""

import numpy as np
import pytest

from msmae import data as D
from msmae.errors import ConfigError, ContractError, ParseError
from msmae.rng import derive_rng


def shape(kind, n, noise=0.0, seed=0):
    """One raw cloud of `kind` from the dataset generator."""
    dc = D.DataConfig(kinds=(kind,), per_class=1, num_points=n, noise=noise, seed=seed,
                      normalize=False)
    return D.make_records(dc)[0].points


class TestGenerators:
    def test_all_kinds_produce_shape(self):
        for kind in D.KINDS:
            pts = shape(kind, 200, seed=5)
            assert pts.shape == (200, 3)
            assert np.isfinite(pts).all()

    def test_deterministic_per_seed(self):
        for kind in D.KINDS:
            a = shape(kind, 64, noise=0.02, seed=9)
            b = shape(kind, 64, noise=0.02, seed=9)
            c = shape(kind, 64, noise=0.02, seed=10)
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_sphere_points_on_unit_shell(self):
        pts = shape("sphere", 500, seed=1)
        norms = np.linalg.norm(pts, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_noiseless_plane_is_flat(self):
        pts = shape("plane", 300, seed=2)
        assert np.abs(pts[:, 2]).max() == 0.0
        assert np.abs(pts[:, :2]).max() <= 1.0

    def test_cube_surface_on_boundary(self):
        pts = shape("cube-surface", 400, seed=3)
        on_face = np.isclose(np.abs(pts), 1.0).any(axis=1)
        assert on_face.all()
        assert np.abs(pts).max() <= 1.0 + 1e-12

    def test_torus_radii(self):
        pts = shape("torus", 400, seed=4)
        ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        minor = np.sqrt((ring - 0.8) ** 2 + pts[:, 2] ** 2)
        assert np.abs(minor - 0.3).max() < 1e-9

    def test_cylinder_bounds(self):
        pts = shape("cylinder", 400, seed=6)
        r = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        assert r.max() <= 0.5 + 1e-12
        assert np.abs(pts[:, 2]).max() <= 1.0 + 1e-12
        lateral = np.isclose(r, 0.5)
        caps = np.isclose(np.abs(pts[:, 2]), 1.0)
        assert (lateral | caps).all()

    def test_noise_is_additive_gaussian(self):
        clean = shape("sphere", 1000, seed=7)
        noisy = shape("sphere", 1000, noise=0.05, seed=7)
        resid = noisy - clean
        assert 0.03 < resid.std() < 0.07

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="moebius"):
            shape("moebius", 10)
        with pytest.raises(ConfigError):
            shape("sphere", 0)


class TestNormalize:
    def test_centered_and_bounded(self):
        pts = np.random.default_rng(8).normal(size=(128, 3)) * 4 + 10
        out = D.normalize_unit_sphere(pts)
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.linalg.norm(out, axis=1).max() == pytest.approx(1.0)

    def test_degenerate_cloud_survives(self):
        out = D.normalize_unit_sphere(np.full((4, 3), 2.5))
        assert np.abs(out).max() == 0.0


class TestXyz:
    def test_round_trip(self, tmp_path):
        pts = np.random.default_rng(9).normal(size=(50, 3))
        path = tmp_path / "c.xyz"
        D.save_xyz(path, pts)
        back = D.load_xyz(path)
        assert np.abs(back - pts).max() < 1e-6

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n\n1 2 3\n# mid\n4 5 6\n")
        back = D.load_xyz(path)
        assert np.array_equal(back, [[1, 2, 3], [4, 5, 6]])

    def test_errors_name_line_numbers(self, tmp_path):
        cases = [
            ("1 2\n", ":1:"),
            ("1 2 3\n4 five 6\n", ":2:"),
            ("1 2 3\n\n1 2 inf\n", ":3:"),
            ("1 2 3 4\n", ":1:"),
        ]
        for text, needle in cases:
            path = tmp_path / "bad.xyz"
            path.write_text(text)
            with pytest.raises(ParseError) as exc:
                D.load_xyz(path)
            assert needle in str(exc.value)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.xyz"
        path.write_text("# nothing\n")
        with pytest.raises(ParseError):
            D.load_xyz(path)


class TestPcb:
    def test_round_trip_bit_exact(self, tmp_path):
        pts = np.random.default_rng(10).normal(size=(77, 3)).astype(np.float32)
        path = tmp_path / "c.pcb"
        D.save_pcb(path, pts)
        back = D.load_pcb(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, pts)

    def test_float64_saved_as_float32(self, tmp_path):
        pts = np.random.default_rng(11).normal(size=(5, 3))
        path = tmp_path / "c.pcb"
        D.save_pcb(path, pts)
        assert np.array_equal(D.load_pcb(path), pts.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pcb"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(ParseError) as exc:
            D.load_pcb(path)
        assert "byte 0" in str(exc.value)

    def test_truncated_payload_names_offset(self, tmp_path):
        pts = np.ones((4, 3), dtype=np.float32)
        path = tmp_path / "t.pcb"
        D.save_pcb(path, pts)
        blob = path.read_bytes()
        path.write_bytes(blob[:8 + 12])  # header + one point
        with pytest.raises(ParseError) as exc:
            D.load_pcb(path)
        msg = str(exc.value)
        assert "4" in msg and "byte" in msg

    def test_trailing_bytes_rejected(self, tmp_path):
        pts = np.ones((2, 3), dtype=np.float32)
        path = tmp_path / "t.pcb"
        D.save_pcb(path, pts)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError):
            D.load_pcb(path)

    def test_nonfinite_rejected_on_load(self, tmp_path):
        pts = np.ones((3, 3), dtype=np.float32)
        pts[1, 2] = np.inf
        path = tmp_path / "n.pcb"
        with pytest.raises(ContractError):
            D.save_pcb(path, pts)
        # craft the file directly: loader must also catch it
        import struct
        blob = D.PCB_MAGIC + struct.pack("<I", 3) + pts.astype("<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(ParseError) as exc:
            D.load_pcb(path)
        assert "1" in str(exc.value)


    def test_empty_cloud_rejected(self, tmp_path):
        path = tmp_path / "e.pcb"
        path.write_bytes(D.PCB_MAGIC + (0).to_bytes(4, "little"))
        with pytest.raises(ParseError, match="no points"):
            D.load_pcb(path)


class TestLabels:
    def test_round_trip(self, tmp_path):
        labels = {"sphere/a-1": 0, "cube/b-2": 1}
        path = tmp_path / "labels.tsv"
        D.save_labels(path, labels)
        assert D.load_labels(path) == (labels, {"cube/b-2": 1, "sphere/a-1": 2})  # sorted ids

    def test_malformed_line_numbered(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("a\t0\nb\tnope\n")
        with pytest.raises(ParseError) as exc:
            D.load_labels(path)
        assert ":2:" in str(exc.value)

    def test_negative_label_numbered(self, tmp_path):
        # numpy would file label -1 under the last class
        path = tmp_path / "labels.tsv"
        path.write_text("a\t0\nb\t1\nc\t-1\n")
        with pytest.raises(ParseError, match=r"labels\.tsv:3: label -1 is negative"):
            D.load_labels(path)

    def test_repeated_id_names_both_lines(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("a\t0\nb\t1\n\na\t2\n")
        with pytest.raises(ParseError, match=r"labels\.tsv:4: id 'a' repeats line 1"):
            D.load_labels(path)


class TestResample:
    def test_upsample_with_replacement(self):
        pts = np.random.default_rng(12).normal(size=(10, 3))
        out = D.resample(pts, 25, derive_rng(0, "resample", 0))
        assert out.shape == (25, 3)
        src = {tuple(p) for p in pts}
        assert all(tuple(p) in src for p in out)

    def test_downsample_is_fps_subset(self):
        pts = np.random.default_rng(13).normal(size=(40, 3))
        out = D.resample(pts, 12, derive_rng(0, "resample", 1))
        assert out.shape == (12, 3)
        src = {tuple(p) for p in pts}
        assert all(tuple(p) in src for p in out)
        # FPS keeps points spread out: min pairwise distance should beat
        # the tightest pair of the raw cloud
        def min_pair(a):
            d = np.sqrt(((a[:, None] - a[None]) ** 2).sum(-1))
            return d[~np.eye(len(a), dtype=bool)].min()
        assert min_pair(out) >= min_pair(pts)

    def test_exact_count_passthrough(self):
        pts = np.random.default_rng(14).normal(size=(16, 3))
        out = D.resample(pts, 16, derive_rng(0, "resample", 2))
        assert np.array_equal(out, pts)


class TestDatasetDir:
    def test_write_then_load(self, tmp_path):
        dc = D.DataConfig(total=12, num_points=32, seed=3, noise=0.01,
                          kinds=("sphere", "torus"), train_frac=0.5)
        train, val = D.make_dataset(dc)
        root = tmp_path / "ds"
        D.write_dataset_dir(root, train + val, list(dc.kinds))
        back = D.load_dataset_dir(root)
        assert len(back) == 12
        by_id = {r.id: r for r in train + val}
        for rec in back:
            ref = by_id[rec.id.split("/")[-1]] if "/" in rec.id else by_id[rec.id]
            assert np.array_equal(rec.points, ref.points.astype(np.float32))
            assert rec.label == ref.label

    def test_empty_dir_rejected(self, tmp_path):
        root = tmp_path / "empty"
        root.mkdir()
        with pytest.raises(ConfigError):
            D.load_dataset_dir(root)

    def test_missing_label_key_rejected(self, tmp_path):
        dc = D.DataConfig(total=8, num_points=32, seed=3, noise=0.0,
                          kinds=("sphere", "torus"), train_frac=0.5)
        train, val = D.make_dataset(dc)
        root = tmp_path / "ds"
        D.write_dataset_dir(root, train + val, list(dc.kinds))
        labels = D.load_labels(root / "labels.tsv")[0]
        labels.pop(sorted(labels)[0])
        D.save_labels(root / "labels.tsv", labels)
        with pytest.raises(ParseError):
            D.load_dataset_dir(root)

    def test_orphan_label_row_rejected(self, tmp_path):
        dc = D.DataConfig(total=8, num_points=32, seed=3, noise=0.0,
                          kinds=("sphere", "torus"), train_frac=0.5)
        train, val = D.make_dataset(dc)
        root = tmp_path / "ds"
        D.write_dataset_dir(root, train + val, list(dc.kinds))
        rows = (root / "labels.tsv").read_text().count("\n")
        with open(root / "labels.tsv", "a") as fh:
            fh.write("ghost/none\t1\n")
        with pytest.raises(ParseError, match=rf"labels\.tsv:{rows + 1}: id 'ghost/none' names no \.pcb file"):
            D.load_dataset_dir(root)


class TestMakeDataset:
    def test_round_robin_total(self):
        dc = D.DataConfig(total=13, num_points=32, seed=0, noise=0.01,
                          split_seed=1, train_frac=0.5)
        train, val = D.make_dataset(dc)
        assert len(train) + len(val) == 13
        counts = {}
        for r in train + val:
            counts[r.label] = counts.get(r.label, 0) + 1
        assert sorted(counts.values()) == [2, 2, 3, 3, 3]

    def test_per_class_override(self):
        dc = D.DataConfig(per_class=4, num_points=32, seed=0, noise=0.01,
                          kinds=("sphere", "plane"), split_seed=1, train_frac=0.5)
        train, val = D.make_dataset(dc)
        assert len(train) + len(val) == 8

    def test_split_deterministic_and_frozen(self):
        dc = D.DataConfig(total=512, num_points=32, seed=0, noise=0.01, split_seed=7,
                          train_frac=0.8)
        t1, v1 = D.make_dataset(dc)
        t2, v2 = D.make_dataset(dc)
        assert [r.id for r in t1] == [r.id for r in t2]
        assert [r.id for r in v1] == [r.id for r in v2]
        # frozen counts for the default recipe: hash split of 512 ids at 0.8
        assert (len(t1), len(v1)) == (410, 102)

    def test_split_depends_only_on_id_and_seed(self):
        dc1 = D.DataConfig(total=64, num_points=32, seed=0, noise=0.01, split_seed=7)
        dc2 = D.DataConfig(total=64, num_points=16, seed=0, noise=0.05, split_seed=7)
        t1, v1 = D.make_dataset(dc1)
        t2, v2 = D.make_dataset(dc2)
        assert [r.id for r in t1] == [r.id for r in t2]
        assert [r.id for r in v1] == [r.id for r in v2]
        dc3 = D.DataConfig(total=64, num_points=32, seed=0, noise=0.01, split_seed=8)
        t3, _ = D.make_dataset(dc3)
        assert [r.id for r in t1] != [r.id for r in t3]

    def test_points_normalized(self):
        dc = D.DataConfig(total=16, num_points=64, seed=0, noise=0.01,
                          split_seed=1, train_frac=0.5)
        train, val = D.make_dataset(dc)
        for r in train + val:
            assert np.linalg.norm(r.points, axis=1).max() <= 1.0 + 1e-9

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            D.DataConfig(total=0, per_class=0).validate()
        with pytest.raises(ConfigError):
            D.DataConfig(train_frac=1.5).validate()
        with pytest.raises(ConfigError):
            D.DataConfig(num_points=0).validate()
        with pytest.raises(ConfigError):
            D.DataConfig(kinds=("sphere", "unknown-kind")).validate()


class TestSplitHash:
    def test_uniform_enough(self):
        vals = [D.split_hash(7, f"sphere-{i:08d}") for i in range(2000)]
        assert all(0.0 <= v < 1.0 for v in vals)
        assert abs(np.mean(vals) - 0.5) < 0.02

    def test_stable_known_values(self):
        # frozen: guards against accidental hash recipe changes
        v = D.split_hash(7, "sphere-00000000")
        assert v == D.split_hash(7, "sphere-00000000")
        assert v != D.split_hash(8, "sphere-00000000")


class TestReadersUnderMutation:
    """Every file reader either loads a damaged file or raises ParseError.

    Each case is a fixed-seed series of one-byte overwrites and truncations
    of one valid file. Half the positions (overwrites all) fall in a 4 KiB
    window, the rest anywhere in the file. The window is the first 4 KiB,
    where a checkpoint keeps its header and the names and extents of its
    first records. A training checkpoint (`pm2a-train`, with optimizer and
    aux tables) alternates it with the 4 KiB from its optimizer flag (step,
    epoch and the first first-moment records) and its last 4 KiB (the last
    second-moment records and the aux table).
    """

    CASES = 400
    KINDS = ("pm2a", "pcb", "xyz", "tsv", "pm2a-train")

    def files(self, kind, tmp_path):
        """The valid file of `kind`, its reader and where its windows start."""
        from msmae.checkpoint import load_checkpoint, save_checkpoint
        from msmae.config import load_run_config
        from msmae.model import Model
        rc = load_run_config(None)
        recs = D.make_dataset(rc.data)[0]
        path = tmp_path / f"valid.{kind}"
        if kind.startswith("pm2a"):
            params = Model.init(rc.model, seed=0).params
            save_checkpoint(path, rc.model, params)
            if kind == "pm2a":
                return path, load_checkpoint, [0]
            flag = path.stat().st_size - 2  # the optimizer flag, then the aux flag
            rng = np.random.default_rng(0)
            moments = {"step": 12, "epoch": 1,
                       "m": {n: rng.normal(size=p.shape).astype(np.float32) for n, p in params.items()},
                       "v": {n: rng.random(p.shape).astype(np.float32) for n, p in params.items()}}
            aux = {"head.w": rng.normal(size=(16, 5)).astype(np.float32),
                   "run.digest": np.arange(16, dtype=np.float32)}
            save_checkpoint(path, rc.model, params, optimizer=moments, aux=aux)
            return path, load_checkpoint, [0, flag, path.stat().st_size - 4096]
        if kind == "pcb":
            D.save_pcb(path, recs[0].points)
            return path, D.load_pcb, [0]
        if kind == "xyz":
            D.save_xyz(path, recs[0].points, comment="one desk cloud")
            return path, D.load_xyz, [0]
        D.save_labels(path, {r.id: r.label for r in recs})
        return path, D.load_labels, [0]

    @pytest.mark.parametrize("kind", KINDS)
    def test_loads_or_raises_parse_error(self, kind, tmp_path):
        path, load, windows = self.files(kind, tmp_path)
        blob = path.read_bytes()
        rng = np.random.default_rng(self.KINDS.index(kind))
        damaged, escaped = tmp_path / f"damaged.{kind}", []
        for case in range(self.CASES):
            start = 0 if case % 2 else windows[case // 2 % len(windows)]
            end = len(blob) if case % 2 else min(len(blob), 4096)
            pos = start + int(rng.integers(0, end))
            if case % 4 == 3:
                damaged.write_bytes(blob[:pos])
                what = f"truncated at byte {pos}"
            else:
                value = int(rng.integers(0, 256))
                damaged.write_bytes(blob[:pos] + bytes([value]) + blob[pos + 1:])
                what = f"byte {pos} set to {value}"
            try:
                load(damaged)
            except ParseError:
                pass
            except Exception as exc:  # anything but ParseError is the failure
                escaped.append(f"{what}: {type(exc).__name__}: {exc}")
        assert not escaped, f"{len(escaped)} of {self.CASES} escaped: {escaped[:3]}"
