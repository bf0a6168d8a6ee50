"""Linear probe, few-shot episodes, and finetune head tests."""

import numpy as np
import pytest

from msmae import evaluate as E
from msmae import model as M
from msmae import tensor as T
from msmae import training as TR
from msmae.data import DataConfig, make_dataset
from msmae.errors import ConfigError, ContractError, NumericError

TINY = M.ModelConfig(num_points=64, counts=(16, 8, 4), dims=(8, 16, 32),
                     radii=(0.32, 0.64, 1.28), ks=(8, 4, 4),
                     encoder_blocks_per_stage=1, decoder_blocks_per_stage=1, heads=2)


def blobs(n_per_class, k, dim, spread, seed):
    """Gaussian blobs around k well-separated centers."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, dim)) * 5.0
    feats, labels = [], []
    for c in range(k):
        feats.append(centers[c] + rng.normal(size=(n_per_class, dim)) * spread)
        labels.extend([c] * n_per_class)
    return np.concatenate(feats), np.array(labels, dtype=np.int64)


class TestLinearProbe:
    def test_separable_data_perfect(self):
        feats, labels = blobs(30, 4, 16, 0.1, 0)
        res = E.linear_probe(feats[::2], labels[::2], feats[1::2], labels[1::2])
        assert res.accuracy == 1.0
        assert all(v == 1.0 for v in res.per_class)
        assert np.asarray(res.confusion).trace() == res.num_test

    def test_shuffled_labels_near_chance(self):
        feats, labels = blobs(60, 4, 16, 0.1, 1)
        rng = np.random.default_rng(2)
        shuffled = rng.permutation(labels[::2])
        res = E.linear_probe(feats[::2], shuffled, feats[1::2], labels[1::2])
        assert res.accuracy < 0.5  # 4 classes, chance 0.25

    def test_deterministic(self):
        feats, labels = blobs(20, 3, 8, 1.5, 3)
        a = E.linear_probe(feats[::2], labels[::2], feats[1::2], labels[1::2])
        b = E.linear_probe(feats[::2], labels[::2], feats[1::2], labels[1::2])
        assert a.accuracy == b.accuracy
        assert a.confusion == b.confusion

    def test_confusion_rows_sum_to_class_sizes(self):
        feats, labels = blobs(25, 3, 8, 2.0, 4)
        res = E.linear_probe(feats[::2], labels[::2], feats[1::2], labels[1::2])
        for c in range(3):
            assert sum(res.confusion[c]) == (labels[1::2] == c).sum()

    def test_standardization_makes_scale_irrelevant(self):
        feats, labels = blobs(20, 3, 8, 0.2, 5)
        a = E.linear_probe(feats[::2], labels[::2], feats[1::2], labels[1::2])
        big = feats * 1000.0
        b = E.linear_probe(big[::2], labels[::2], big[1::2], labels[1::2])
        assert a.accuracy == b.accuracy

    def test_misaligned_rejected(self):
        feats, labels = blobs(10, 2, 4, 0.5, 6)
        with pytest.raises(ContractError):
            E.linear_probe(feats[:5], labels[:6], feats, labels)

    def test_single_class_rejected(self):
        feats = np.random.default_rng(7).normal(size=(10, 4))
        labels = np.zeros(10, dtype=np.int64)
        with pytest.raises(ConfigError):
            E.linear_probe(feats, labels, feats, labels)

    def test_as_dict_serializes(self):
        import json
        feats, labels = blobs(10, 2, 4, 0.3, 8)
        res = E.linear_probe(feats[::2], labels[::2], feats[1::2], labels[1::2])
        blob = json.loads(json.dumps(res.as_dict()))
        assert blob["accuracy"] == res.accuracy
        assert blob["num_test"] == res.num_test


class TestEpisodes:
    def test_shapes_and_disjointness(self):
        labels = np.repeat(np.arange(5), 40)
        for run in range(200):
            train_rows, test_rows = E.sample_episode(labels, way=3, shot=5, seed=0, run=run)
            assert len(train_rows) == 15
            assert len(test_rows) == 60
            assert not set(train_rows) & set(test_rows)
            cls = set(labels[train_rows])
            assert len(cls) == 3
            assert set(labels[test_rows]) == cls
            # exactly shot support and queries per class
            for c in cls:
                assert (labels[train_rows] == c).sum() == 5
                assert (labels[test_rows] == c).sum() == 20

    def test_runs_differ_but_reproduce(self):
        labels = np.repeat(np.arange(5), 40)
        a_train, a_test = E.sample_episode(labels, way=3, shot=5, seed=0, run=0)
        b_train, _ = E.sample_episode(labels, way=3, shot=5, seed=0, run=1)
        c_train, c_test = E.sample_episode(labels, way=3, shot=5, seed=0, run=0)
        assert list(a_train) != list(b_train)
        assert list(a_train) == list(c_train)
        assert list(a_test) == list(c_test)

    def test_insufficient_samples_rejected(self):
        labels = np.repeat(np.arange(3), 10)  # 10 per class < 5 + 20
        with pytest.raises(ConfigError):
            E.sample_episode(labels, way=2, shot=5, seed=0, run=0)

    def test_too_many_ways_rejected(self):
        labels = np.repeat(np.arange(3), 40)
        with pytest.raises(ConfigError):
            E.sample_episode(labels, way=4, shot=1, seed=0, run=0)


class TestFewShot:
    def test_separable_features_ace_it(self):
        feats, labels = blobs(40, 5, 16, 0.05, 9)
        out = E.few_shot_eval(feats, labels, way=3, shot=5, runs=10, seed=0)
        assert out["mean"] == 1.0
        assert out["std"] == 0.0
        assert len(out["runs"]) == 10

    def test_noise_features_near_chance(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(200, 16))
        labels = np.repeat(np.arange(5), 40)
        out = E.few_shot_eval(feats, labels, way=5, shot=5, runs=10, seed=0)
        assert 0.05 < out["mean"] < 0.45  # chance is 0.2

    def test_mean_matches_runs(self):
        feats, labels = blobs(40, 4, 8, 1.0, 11)
        out = E.few_shot_eval(feats, labels, way=2, shot=3, runs=6, seed=1)
        assert out["mean"] == pytest.approx(np.mean(out["runs"]))
        assert out["std"] == pytest.approx(np.std(out["runs"]))


class TestFeatures:
    def test_extract_shape_and_determinism(self):
        dc = DataConfig(total=8, num_points=64, seed=0, noise=0.01,
                        kinds=("sphere", "cube-surface"), split_seed=1, train_frac=0.5)
        train, val = make_dataset(dc)
        model = M.Model.init(TINY, seed=0)
        f1 = E.extract_features(model, train)
        f2 = E.extract_features(model, train)
        assert f1.shape == (len(train), TINY.dims[-1])
        assert np.array_equal(f1, f2)


class TestFinetune:
    def records(self):
        dc = DataConfig(total=16, num_points=64, seed=0, noise=0.01,
                        kinds=("sphere", "cube-surface"), split_seed=1, train_frac=0.5)
        return make_dataset(dc)

    def test_head_shapes(self):
        shapes = E.head_shapes(32, 5)
        assert shapes["head.w0"] == (32, 32)
        assert shapes["head.w1"] == (32, 16)
        assert shapes["head.w2"] == (16, 5)

    def test_frozen_encoder_is_untouched(self):
        train, val = self.records()
        model = M.Model.init(TINY, seed=0)
        before = {n: p.data.copy() for n, p in model.params.items()}
        ec = E.EvalConfig(finetune_epochs=3, finetune_batch_size=4,
                          finetune_warmup_epochs=0, freeze_encoder=True)
        res, head = E.finetune(model, train, val, num_classes=2, ec=ec)
        for n, p in model.params.items():
            assert np.array_equal(p.data, before[n]), n
        assert 0.0 <= res.accuracy <= 1.0
        assert set(head) == set(E.head_shapes(TINY.dims[-1], 2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("frozen", [False, True])
    def test_diverging_loss_raises_numeric_error(self, frozen):
        train, val = self.records()
        model = M.Model.init(TINY, seed=0)
        ec = E.EvalConfig(finetune_epochs=3, finetune_batch_size=4, finetune_lr=1e8,
                          finetune_warmup_epochs=0, freeze_encoder=frozen)
        with pytest.raises(NumericError, match=r"non-finite finetune loss at step \d+ \(epoch \d+\)"):
            E.finetune(model, train, val, num_classes=2, ec=ec)

    def test_unfrozen_encoder_moves(self):
        train, val = self.records()
        model = M.Model.init(TINY, seed=0)
        before = {n: p.data.copy() for n, p in model.params.items()}
        ec = E.EvalConfig(finetune_epochs=2, finetune_batch_size=4,
                          finetune_warmup_epochs=0, freeze_encoder=False)
        E.finetune(model, train, val, num_classes=2, ec=ec)
        moved = sum(not np.array_equal(p.data, before[n]) for n, p in model.params.items())
        assert moved > len(before) // 2

    def test_deterministic(self):
        train, val = self.records()
        accs = []
        for _ in range(2):
            model = M.Model.init(TINY, seed=0)
            ec = E.EvalConfig(finetune_epochs=2, finetune_batch_size=4,
                              finetune_warmup_epochs=0, freeze_encoder=True)
            res, _ = E.finetune(model, train, val, num_classes=2, ec=ec)
            accs.append(res.accuracy)
        assert accs[0] == accs[1]

    def test_unfrozen_deterministic(self):
        train, val = self.records()
        runs = []
        for _ in range(2):
            model = M.Model.init(TINY, seed=0)
            ec = E.EvalConfig(finetune_epochs=2, finetune_batch_size=4,
                              finetune_warmup_epochs=0, freeze_encoder=False)
            _, head = E.finetune(model, train, val, num_classes=2, ec=ec)
            runs.append({**model.params, **head})
        assert runs[0].keys() == runs[1].keys()
        for n, p in runs[0].items():
            assert p.data.tobytes() == runs[1][n].data.tobytes(), n

    @pytest.mark.parametrize("frozen", [False, True])
    def test_packed_gradients_match_single_clouds(self, frozen):
        # finetune's batch loss through training.tape_gradients: 5 clouds at
        # 2 per tape make two full tapes and a tape of one
        assert E.FINETUNE_TAPE_CLOUDS == 2
        train, _ = self.records()
        recs = [r for r in train if r.label == 0][:3] + [r for r in train if r.label == 1][:2]
        labels = np.asarray([r.label for r in recs])
        model = M.Model.init(TINY, seed=3, dtype=np.float64)
        head = E.init_head(TINY.dims[-1], 2, seed=4, dtype=np.float64)
        trainable = dict(head) if frozen else {**model.params, **head}
        feats = E.extract_features(model, recs) if frozen else None

        def gradients(rows):
            if frozen:
                features = lambda part: T.tensor(feats[rows][part])
            else:
                reprs, asg = M.hierarchy(TINY, [recs[i].points for i in rows])
                features = lambda part: M.pool_tokens(M.encode_batch(
                    model.params, TINY, reprs[part], asg[part])[-1], len(reprs[part]))
            return TR.tape_gradients(
                lambda part: T.softmax_cross_entropy(E.head_forward(head, features(part)),
                                                     labels[rows][part]),
                len(rows), trainable, E.FINETUNE_TAPE_CLOUDS)

        loss, packed = gradients(list(range(5)))
        singles = [gradients([i]) for i in range(5)]
        want_loss = np.mean([l for l, _ in singles])
        assert abs(loss - want_loss) <= 1e-9 * want_loss
        want = [sum(g) / len(recs) for g in zip(*[g for _, g in singles])]
        # relative to the largest entry, as for pretraining's packed batches
        scale = max(np.abs(w).max() for w in want)
        assert len(packed) == len(trainable)
        for got, w in zip(packed, want):
            assert np.abs(got - w).max() <= 1e-9 * scale

    def test_frozen_head_learns_separable_problem(self):
        # features from two tight blobs: the head alone must fit them
        feats, labels = blobs(20, 2, TINY.dims[-1], 0.05, 12)

        class StubModel:
            config = TINY
            params = M.Model.init(TINY, seed=0).params

        from msmae.data import DatasetRecord
        # monkeypatch-free: drive the head training path directly
        rng = np.random.default_rng(0)
        head = E.init_head(TINY.dims[-1], 2, rng)
        import msmae.tensor as T
        import msmae.training as TR
        opt = TR.OptimizerState.init(head, weight_decay=0.05)
        sched = TR.Schedule(base_lr=1e-2, total_epochs=200, steps_per_epoch=1, min_lr=1e-6)
        x = feats.astype(np.float32)
        y = labels
        for step in range(200):
            with T.Tape() as tape:
                logits = E.head_forward(head, T.tensor(x))
                loss = T.softmax_cross_entropy(logits, y)
            grads = dict(zip(head, tape.gradients(loss, list(head.values()))))
            TR.adamw_step(head, grads, opt, TR.lr_at(step + 1, sched))
        logits = E.head_forward(head, T.tensor(x))
        acc = (logits.data.argmax(1) == y).mean()
        assert acc == 1.0
