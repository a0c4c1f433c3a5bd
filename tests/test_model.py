"""Fusion model: gate weights, masking semantics, fused logits, checkpoints."""

import copy
import pickle

import numpy as np
import pytest

from entrofuse.data import MultimodalBatch, apply_mask
from entrofuse.losses import cec_pairs, step_loss
from entrofuse.model import (FusionConfig, FusionModel, forward,
                             forward_pullback, gate_rows, load_checkpoint,
                             predict_subset, save_checkpoint)
from entrofuse.optim import adamw_step
from entrofuse.rng import stream
from entrofuse.subsets import nonempty_subsets

import reference_chain as R


def random_batch(rng, n, dims, classes, presence=None):
    feats = [rng.normal(size=(n, d)) for d in dims]
    if presence is None:
        presence = np.ones((n, len(dims)), dtype=bool)
    presence = np.asarray(presence, dtype=bool)
    for m in range(len(dims)):
        feats[m] = feats[m] * presence[:, m:m + 1]
    labels = rng.integers(0, classes, size=n)
    return MultimodalBatch(features=feats, presence=presence, labels=labels)


def random_model(rng, cfg):
    """Init then scatter every weight so the gate path is nontrivial."""
    model = FusionModel(cfg, rng)
    for _, t in model.parameters():
        t[...] = rng.normal(scale=0.5, size=t.shape)
    return model


def frozen_gate_model(rng, cfg):
    """A model as the no_gate ablation trains it: the gate output layer at
    its zero initialisation and no gate parameter taking a gradient. The
    first gate layer and every other weight are scattered."""
    model = random_model(rng, cfg)
    model.gate_w2[:] = 0.0
    model.gate_b2[:] = 0.0
    model.gate_frozen = True
    return model


def random_presence(rng, n, m):
    """Random presence pattern that leaves every row at least one modality."""
    presence = rng.random((n, m)) < rng.uniform(0.1, 0.9)
    empty = np.flatnonzero(~presence.any(axis=1))
    presence[empty, rng.integers(0, m, size=empty.size)] = True
    return presence


class TestGateWeights:
    def test_fresh_model_gates_uniformly(self):
        # zero-initialized gate output layer puts every observed modality at 1/M
        cfg = FusionConfig(modalities=2, dims=(3, 5), classes=4, fused_dim=6)
        model = FusionModel(cfg, np.random.default_rng(0))
        batch = random_batch(np.random.default_rng(1), 8, cfg.dims, cfg.classes)
        out = forward(model, batch)
        np.testing.assert_allclose(out.p.data, np.full((8, 2), 0.5), rtol=0, atol=0)

    def test_masked_modality_gets_exactly_zero_weight(self):
        cfg = FusionConfig(modalities=2, dims=(3, 5), classes=4, fused_dim=6)
        model = random_model(np.random.default_rng(2), cfg)
        batch = random_batch(np.random.default_rng(3), 8, cfg.dims, cfg.classes)
        masked = apply_mask(batch, per_sample=np.tile([True, False], (8, 1)))
        out = forward(model, masked)
        # exact zeros and ones, not merely tiny values
        assert (out.p.data[:, 1] == 0.0).all()
        assert (out.p.data[:, 0] == 1.0).all()
        assert (out.gate_entropy == 0.0).all()

    def test_rows_sum_to_one_and_absent_entries_are_zero(self):
        for k in range(5):
            rng = np.random.default_rng(k)
            cfg = FusionConfig(modalities=3, dims=(4, 3, 5), classes=4, fused_dim=6)
            model = random_model(rng, cfg)
            presence = rng.random((16, 3)) < 0.6
            presence[~presence.any(axis=1), 0] = True  # keep every row alive
            batch = random_batch(rng, 16, cfg.dims, cfg.classes, presence)
            out = forward(model, batch)
            np.testing.assert_allclose(out.p.data.sum(axis=1), 1.0, rtol=0, atol=1e-9)
            assert (out.p.data[~presence] == 0.0).all()
            assert (out.p.data >= 0.0).all()

    def test_gate_entropy_and_confidence_are_reported_off_the_tape(self):
        # the loss derives its own from the weights and logits; the
        # forward's copies are statistics
        cfg = FusionConfig(modalities=3, dims=(4, 3, 5), classes=4, fused_dim=6)
        model = random_model(np.random.default_rng(5), cfg)
        batch = random_batch(np.random.default_rng(6), 8, cfg.dims, cfg.classes)
        out = forward(model, batch)
        entropy = out.gate_entropy
        taped = R.entropy_rows(out.p)
        conf = R.confidence(out.logits)
        assert isinstance(entropy, np.ndarray)
        assert not out.confidence.requires_grad
        assert (entropy == taped.data).all()
        assert (out.confidence.data == conf.data).all()

    def test_gate_entropy_bounded_by_log_observed_count(self):
        for k in range(5):
            rng = np.random.default_rng(10 + k)
            cfg = FusionConfig(modalities=3, dims=(4, 3, 5), classes=4, fused_dim=6)
            model = random_model(rng, cfg)
            presence = rng.random((32, 3)) < 0.6
            presence[~presence.any(axis=1), 1] = True
            batch = random_batch(rng, 32, cfg.dims, cfg.classes, presence)
            out = forward(model, batch)
            bound = np.log(presence.sum(axis=1))
            assert (out.gate_entropy <= bound + 1e-12).all()
            assert (out.gate_entropy >= -1e-12).all()

    def test_frozen_gate_rows_are_the_observed_average(self):
        # property over random presence patterns, exact to the last bit
        for m in (2, 3, 4):
            cfg = FusionConfig(modalities=m, dims=(4, 3, 5, 2)[:m], classes=4,
                               fused_dim=6)
            for k in range(10):
                rng = np.random.default_rng(100 * m + k)
                model = frozen_gate_model(rng, cfg)
                presence = random_presence(rng, 32, m)
                batch = random_batch(rng, 32, cfg.dims, cfg.classes, presence)
                expected = presence / presence.sum(axis=1, keepdims=True)
                assert np.array_equal(gate_rows(model, batch).data, expected)

    def test_frozen_gate_gets_no_gradient(self):
        for m in (2, 3, 4):
            cfg = FusionConfig(modalities=m, dims=(4, 3, 5, 2)[:m], classes=4,
                               fused_dim=6)
            for k in range(5):
                rng = np.random.default_rng(500 + 100 * m + k)
                model = frozen_gate_model(rng, cfg)
                batch = random_batch(rng, 16, cfg.dims, cfg.classes)
                keep = random_presence(rng, 16, m)
                step_loss(model, batch, keep, cec_pairs(m), lam=0.05,
                          gamma=2.0)
                assert not model.gate.grads.any()
                assert all(g.any() for name, g in model.grad.items()
                           if not name.startswith("gate_"))


class TestForwardValues:
    def test_matches_straight_line_recomputation(self):
        # independent numpy replay of the whole forward pass
        for k in range(4):
            rng = np.random.default_rng(20 + k)
            cfg = FusionConfig(modalities=2, dims=(3, 2), classes=2,
                               fused_dim=4, gate_hidden=7)
            model = random_model(rng, cfg)
            model.norm_mean = [rng.normal(size=d) for d in cfg.dims]
            model.norm_std = [rng.uniform(0.5, 2.0, size=d) for d in cfg.dims]
            presence = np.array([[True, True], [True, False],
                                 [False, True], [True, True]])
            batch = random_batch(rng, 4, cfg.dims, cfg.classes, presence)
            out = forward(model, batch)

            cols = []
            for m in range(2):
                z = (batch.features[m] - model.norm_mean[m]) / model.norm_std[m]
                cols.append(z * presence[:, m:m + 1])
            x_gate = np.concatenate(cols + [presence.astype(float)], axis=1)
            h1 = np.maximum(x_gate @ model.gate_w1 + model.gate_b1, 0.0)
            glog = h1 @ model.gate_w2 + model.gate_b2
            glog = np.where(presence, glog, -np.inf)
            glog = glog - glog.max(axis=1, keepdims=True)
            e = np.exp(glog)
            p = e / e.sum(axis=1, keepdims=True)
            z = sum(p[:, m:m + 1] * (batch.features[m] @ model.proj[m])
                    for m in range(2))
            logits = z @ model.head_w + model.head_b

            np.testing.assert_allclose(out.p.data, p, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out.logits.data, logits, rtol=0, atol=1e-12)

    def test_single_label_confidence_is_max_softmax(self):
        rng = np.random.default_rng(30)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=5, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 16, cfg.dims, cfg.classes)
        out = forward(model, batch)
        ex = np.exp(out.logits.data - out.logits.data.max(axis=1, keepdims=True))
        probs = ex / ex.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(out.confidence.data, probs.max(axis=1),
                                   rtol=0, atol=1e-12)
        assert (out.confidence.data <= 1.0).all()
        assert (out.confidence.data >= 1.0 / cfg.classes - 1e-12).all()

    def test_multilabel_confidence_is_max_sigmoid(self):
        rng = np.random.default_rng(31)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=5, fused_dim=4,
                           multilabel=True)
        model = random_model(rng, cfg)
        feats = [rng.normal(size=(16, 3)) for _ in range(2)]
        presence = np.ones((16, 2), dtype=bool)
        labels = (rng.random((16, 5)) < 0.3).astype(np.float64)
        batch = MultimodalBatch(features=feats, presence=presence,
                                labels=labels, multilabel=True)
        out = forward(model, batch)
        sig = 1.0 / (1.0 + np.exp(-out.logits.data))
        np.testing.assert_allclose(out.confidence.data, sig.max(axis=1),
                                   rtol=0, atol=1e-12)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(32)
        cfg = FusionConfig(modalities=2, dims=(4, 4), classes=3, fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        a = forward(model, batch)
        b = forward(model, batch)
        assert (a.logits.data == b.logits.data).all()
        assert (a.p.data == b.p.data).all()
        assert (a.confidence.data == b.confidence.data).all()

    def test_masking_an_already_absent_modality_changes_nothing(self):
        # zero gate weight means the modality cannot influence the logits
        rng = np.random.default_rng(33)
        cfg = FusionConfig(modalities=3, dims=(3, 3, 3), classes=4, fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        keep = np.tile([True, True, False], (8, 1))
        once = apply_mask(batch, per_sample=keep)
        twice = apply_mask(once, per_sample=keep)
        a = forward(model, once)
        b = forward(model, twice)
        np.testing.assert_allclose(a.logits.data, b.logits.data, rtol=0, atol=1e-9)
        np.testing.assert_allclose(a.p.data, b.p.data, rtol=0, atol=1e-9)


class TestPredictSubset:
    def test_equals_forward_after_masking_complement(self):
        rng = np.random.default_rng(40)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4, fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 10, cfg.dims, cfg.classes)
        for subset in nonempty_subsets(3):
            via_subset = predict_subset(model, batch, subset)
            masked = apply_mask(batch,
                                per_sample=np.tile(subset, (10, 1)))
            via_mask = forward(model, masked)
            assert (via_subset.logits.data == via_mask.logits.data).all()
            assert (via_subset.confidence.data == via_mask.confidence.data).all()

    def test_full_subset_reproduces_plain_forward(self):
        rng = np.random.default_rng(41)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 6, cfg.dims, cfg.classes)
        full = predict_subset(model, batch, np.ones(2, dtype=bool))
        plain = forward(model, batch)
        assert (full.logits.data == plain.logits.data).all()

    def test_two_modalities_give_three_distinct_confidence_profiles(self):
        rng = np.random.default_rng(42)
        cfg = FusionConfig(modalities=2, dims=(4, 4), classes=3, fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 12, cfg.dims, cfg.classes)
        confs = [predict_subset(model, batch, s).confidence.data
                 for s in nonempty_subsets(2)]
        assert len(confs) == 3
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.abs(confs[i] - confs[j]).max() > 1e-6

    def test_empty_subset_rejected(self):
        rng = np.random.default_rng(43)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 4, cfg.dims, cfg.classes)
        with pytest.raises(ValueError):
            predict_subset(model, batch, np.zeros(2, dtype=bool))

    def test_subset_of_the_wrong_length_rejected(self):
        rng = np.random.default_rng(44)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 4, cfg.dims, cfg.classes)
        for bits in ((True,), (True, False, True)):
            with pytest.raises(ValueError, match="modality count"):
                predict_subset(model, batch, np.array(bits))


class TestNormStats:
    def test_fit_norm_matches_numpy_on_observed_rows(self):
        rng = np.random.default_rng(50)
        cfg = FusionConfig(modalities=2, dims=(3, 4), classes=3, fused_dim=4)
        model = FusionModel(cfg, rng)
        presence = rng.random((40, 2)) < 0.7
        presence[~presence.any(axis=1), 0] = True
        batch = random_batch(rng, 40, cfg.dims, cfg.classes, presence)
        model.fit_norm(batch)
        for m in range(2):
            rows = batch.features[m][presence[:, m]]
            np.testing.assert_allclose(model.norm_mean[m], rows.mean(axis=0),
                                       rtol=0, atol=1e-15)
            np.testing.assert_allclose(model.norm_std[m], rows.std(axis=0),
                                       rtol=0, atol=1e-15)

    def test_constant_feature_gets_std_floor(self):
        cfg = FusionConfig(modalities=1, dims=(2,), classes=2, fused_dim=2)
        model = FusionModel(cfg, np.random.default_rng(51))
        feats = [np.column_stack([np.full(8, 3.0), np.arange(8.0)])]
        batch = MultimodalBatch(features=feats,
                                presence=np.ones((8, 1), dtype=bool),
                                labels=np.zeros(8, dtype=np.int64))
        model.fit_norm(batch)
        assert model.norm_std[0][0] == 1e-8

    def test_gate_input_appends_presence_flags(self):
        rng = np.random.default_rng(52)
        cfg = FusionConfig(modalities=2, dims=(3, 2), classes=3, fused_dim=4)
        model = FusionModel(cfg, rng)
        presence = np.array([[True, False], [True, True]])
        batch = random_batch(rng, 2, cfg.dims, cfg.classes, presence)
        x = model.gate_input(batch)
        assert x.shape == (2, cfg.gate_input_dim)
        np.testing.assert_allclose(x[:, -2:], presence.astype(float), rtol=0, atol=0)
        # absent block is zeroed even though standardization shifts the mean
        model.norm_mean = [np.full(3, 5.0), np.full(2, 5.0)]
        x = model.gate_input(batch)
        assert (x[0, 3:5] == 0.0).all()

    def test_gate_input_equals_concatenated_blocks(self):
        # the in-place fill does the reference's float ops, bit for bit
        rng = np.random.default_rng(53)
        cfg = FusionConfig(modalities=3, dims=(4, 1, 6), classes=3, fused_dim=4)
        model = FusionModel(cfg, rng)
        model.norm_mean = [rng.normal(size=d) for d in cfg.dims]
        model.norm_std = [rng.uniform(0.1, 3.0, size=d) for d in cfg.dims]
        presence = rng.random((50, 3)) < 0.6
        presence[~presence.any(axis=1), 0] = True  # a batch row observes one
        batch = random_batch(rng, 50, cfg.dims, cfg.classes, presence)
        cols = [(batch.features[m] - model.norm_mean[m]) / model.norm_std[m]
                * presence[:, m:m + 1] for m in range(3)]
        ref = np.concatenate(cols + [presence.astype(np.float64)], axis=1)
        assert np.array_equal(model.gate_input(batch), ref)


class TestValidation:
    def test_dims_length_must_match_modalities(self):
        with pytest.raises(ValueError):
            FusionConfig(modalities=3, dims=(4, 4), classes=2)

    @pytest.mark.parametrize("hidden", [0, -1])
    def test_gate_needs_hidden_units(self, hidden):
        # with none, only gate_b2 reaches the weights: no row could move them
        with pytest.raises(ValueError):
            FusionConfig(modalities=2, dims=(4, 4), classes=2,
                         gate_hidden=hidden)

    def test_forward_rejects_mismatched_batch(self):
        rng = np.random.default_rng(60)
        model = FusionModel(
            FusionConfig(modalities=2, dims=(3, 3), classes=2, fused_dim=4), rng)
        batch = random_batch(rng, 4, (3, 5), 2)
        with pytest.raises(ValueError):
            forward(model, batch)

    def test_forward_rejects_fully_unobserved_sample(self):
        rng = np.random.default_rng(61)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=2, fused_dim=4)
        model = FusionModel(cfg, rng)
        presence = np.array([[True, True], [False, False]])
        batch = random_batch(rng, 2, cfg.dims, cfg.classes)
        batch.presence[:] = presence
        with pytest.raises(ValueError):
            forward(model, batch)


    def test_forward_rejects_overflowing_logits(self):
        rng = np.random.default_rng(62)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=2, fused_dim=4)
        model = random_model(rng, cfg)
        model.head_w[:] = 1e308
        batch = random_batch(rng, 4, cfg.dims, cfg.classes)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="logits"):
                forward(model, batch)

    def test_gate_rows_rejects_non_finite_weights(self):
        rng = np.random.default_rng(63)
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=2, fused_dim=4)
        model = random_model(rng, cfg)
        model.gate_w2[0, 1] = np.nan
        batch = random_batch(rng, 4, cfg.dims, cfg.classes)
        with pytest.raises(ValueError, match="gate weights"):
            gate_rows(model, batch)
        with pytest.raises(ValueError, match="gate weights"):
            forward(model, batch)


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(70)
        cfg = FusionConfig(modalities=2, dims=(3, 4), classes=3, fused_dim=5,
                           gate_hidden=9, multilabel=False)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 20, cfg.dims, cfg.classes)
        model.fit_norm(batch)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.cfg == cfg
        for (name_a, ta), (name_b, tb) in zip(model.parameters(),
                                              loaded.parameters()):
            assert name_a == name_b
            assert (ta == tb).all()
        for m in range(2):
            assert (model.norm_mean[m] == loaded.norm_mean[m]).all()
            assert (model.norm_std[m] == loaded.norm_std[m]).all()

    def test_loaded_model_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(71)
        cfg = FusionConfig(modalities=2, dims=(4, 4), classes=3, fused_dim=4)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 10, cfg.dims, cfg.classes)
        model.fit_norm(batch)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        a = forward(model, batch)
        b = forward(loaded, batch)
        assert (a.logits.data == b.logits.data).all()
        assert (a.p.data == b.p.data).all()


    @staticmethod
    def _saved_arrays(tmp_path):
        """A fitted model and the arrays of its saved checkpoint."""
        rng = np.random.default_rng(74)
        cfg = FusionConfig(modalities=2, dims=(3, 4), classes=3, fused_dim=5)
        model = random_model(rng, cfg)
        model.fit_norm(random_batch(rng, 20, cfg.dims, cfg.classes))
        save_checkpoint(model, tmp_path / "ckpt.npz")
        with np.load(tmp_path / "ckpt.npz") as z:
            return model, {name: z[name].copy() for name in z.files}

    @pytest.mark.parametrize("key,value,message", [
        ("norm_std_1", -1.0, "norm_std_1 holds a value <= 0"),
        ("norm_std_0", 0.0, "norm_std_0 holds a value <= 0"),
        ("norm_std_1", np.inf, "norm_std_1 is non-finite"),
        ("norm_mean_0", np.nan, "norm_mean_0 is non-finite"),
        ("gate_w1", -np.inf, "gate_w1 is non-finite"),
        ("head_b", np.nan, "head_b is non-finite")])
    def test_load_rejects_an_out_of_range_entry(self, tmp_path, key, value,
                                                message):
        _, arrays = self._saved_arrays(tmp_path)
        arrays[key].flat[-1] = value
        np.savez(tmp_path / "bad.npz", **arrays)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(tmp_path / "bad.npz")

    @pytest.mark.parametrize("key", ["head_b", "norm_mean_0", "norm_std_1",
                                     "config_json"])
    def test_load_rejects_a_missing_entry(self, tmp_path, key):
        _, arrays = self._saved_arrays(tmp_path)
        del arrays[key]
        np.savez(tmp_path / "short.npz", **arrays)
        with pytest.raises(ValueError, match=f"^checkpoint lacks entry {key}$"):
            load_checkpoint(tmp_path / "short.npz")

    @staticmethod
    def _flip_a_head_w_byte(blob, arrays):
        # np.savez stores members uncompressed, so the bytes appear verbatim
        at = blob.find(arrays["head_w"].tobytes())
        assert at > 0
        return blob[:at] + bytes([blob[at] ^ 0xFF]) + blob[at + 1:]

    @pytest.mark.parametrize("damage,message", [
        ("empty", "^checkpoint is not an npz archive: "),
        ("truncated", "^checkpoint is not an npz archive: "),
        ("lone_npy", "^checkpoint is not an npz archive$"),
        ("bad_crc", "^checkpoint entry head_w is unreadable: ")],
        ids=["empty", "truncated", "lone_npy", "bad_crc"])
    def test_load_rejects_a_file_that_is_not_a_readable_archive(
            self, tmp_path, damage, message):
        _, arrays = self._saved_arrays(tmp_path)
        blob = (tmp_path / "ckpt.npz").read_bytes()
        path = tmp_path / "damaged.npz"
        if damage == "lone_npy":
            with open(path, "wb") as fh:
                np.save(fh, arrays["head_w"])
        else:
            path.write_bytes({"empty": b"",
                              "truncated": blob[: len(blob) // 2],
                              "bad_crc": self._flip_a_head_w_byte(blob, arrays),
                              }[damage])
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    def test_load_accepts_the_smallest_fitted_deviation(self, tmp_path):
        model, arrays = self._saved_arrays(tmp_path)
        arrays["norm_std_0"][...] = 1e-8  # fit_norm's floor
        np.savez(tmp_path / "floor.npz", **arrays)
        loaded = load_checkpoint(tmp_path / "floor.npz")
        assert (loaded.norm_std[0] == 1e-8).all()
        assert np.array_equal(loaded.norm_std[1], model.norm_std[1])


class TestParamBuffers:
    """The model lays out each parameter group as one flat parameter and
    one flat gradient buffer; every parameter is a plain array viewing the
    first, and its ``grad`` entry the same view of the second."""

    @staticmethod
    def _assert_views(model):
        params = dict(model.parameters())
        assert list(model.grad) == list(params)
        covered = 0
        for group, prefixes in ((model.base, ("proj_", "head_")),
                                (model.gate, ("gate_",))):
            names = [name for name in params if name.startswith(prefixes)]
            assert group.params.ndim == 1 and group.grads.ndim == 1
            assert group.params.size == sum(params[k].size for k in names)
            lo = 0
            for name in names:
                param, grad = params[name], model.grad[name]
                hi = lo + param.size
                assert type(param) is np.ndarray and grad.shape == param.shape
                assert param.base is group.params
                assert grad.base is group.grads
                assert np.shares_memory(param, group.params[lo:hi])
                assert np.shares_memory(grad, group.grads[lo:hi])
                lo = hi
            covered += len(names)
        assert covered == len(params)
        assert not np.shares_memory(model.base.params, model.gate.params)

    def test_views_after_init(self):
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4, fused_dim=5)
        model = FusionModel.from_seed(cfg, 3)
        self._assert_views(model)
        init = FusionModel(cfg, stream(3, "init"))
        for (name, a), (_, b) in zip(model.parameters(), init.parameters()):
            assert np.array_equal(a, b)
            assert not model.grad[name].any()

    def test_views_after_load_checkpoint(self, tmp_path):
        rng = np.random.default_rng(72)
        cfg = FusionConfig(modalities=2, dims=(3, 4), classes=3, fused_dim=5)
        model = random_model(rng, cfg)
        save_checkpoint(model, tmp_path / "ckpt.npz")
        loaded = load_checkpoint(tmp_path / "ckpt.npz")
        self._assert_views(loaded)
        assert np.array_equal(loaded.base.params, model.base.params)
        assert np.array_equal(loaded.gate.params, model.gate.params)

    def test_backward_adds_into_the_buffers_and_zero_grad_clears_them(self):
        rng = np.random.default_rng(73)
        cfg = FusionConfig(modalities=2, dims=(3, 4), classes=3, fused_dim=5)
        model = random_model(rng, cfg)
        batch = random_batch(rng, 8, cfg.dims, cfg.classes)
        grads = []
        for _ in range(2):
            R.run_pullback(*forward_pullback(model, batch),
                           lambda logits, p: R.mean_all(R.confidence(logits)))
            grads.append(np.concatenate([model.base.grads, model.gate.grads]))
        np.testing.assert_allclose(grads[1], 2.0 * grads[0], rtol=1e-12)
        self._assert_views(model)
        model.zero_grad()
        assert not model.base.grads.any() and not model.gate.grads.any()

    @pytest.mark.parametrize("rebind", ["data", "head", "grad", "no grad",
                                        "grad shape"])
    def test_rebound_parameter_rejected(self, rebind):
        cfg = FusionConfig(modalities=2, dims=(3, 4), classes=3, fused_dim=5)
        model = FusionModel.from_seed(cfg, 0)
        if rebind == "data":  # a detached copy no optimizer can see
            model.proj[1] = model.proj[1].copy()
        elif rebind == "head":
            model.head_w = model.head_w + 0.0
        elif rebind == "grad":
            model.grad["proj_1"] = model.grad["proj_1"] + 1.0
        elif rebind == "no grad":
            del model.grad["proj_1"]
        else:
            model.grad["proj_1"] = np.ones(())
        with pytest.raises(RuntimeError, match="rebound"):
            model.zero_grad()


COPIES = {"deepcopy": copy.deepcopy,
          "pickle": lambda model: pickle.loads(pickle.dumps(model))}


class TestCopies:
    """A deep copy or an unpickled model views its own buffers, as a model
    just built does: NumPy copies each view as an array of its own."""

    @pytest.fixture
    def pair(self, request):
        rng = np.random.default_rng(75)
        cfg = FusionConfig(modalities=3, dims=(3, 4, 2), classes=4, fused_dim=5)
        model = random_model(rng, cfg)
        model.grad["head_w"][...] = rng.normal(size=model.head_w.shape)
        batch = random_batch(rng, 9, cfg.dims, cfg.classes)
        return model, COPIES[request.param](model), batch

    @pytest.mark.parametrize("pair", list(COPIES), indirect=True)
    def test_copy_views_its_own_buffers(self, pair):
        model, twin, _ = pair
        TestParamBuffers._assert_views(twin)
        for name, p in twin.parameters():
            for buf in (model.base.params, model.gate.params,
                        model.base.grads, model.gate.grads):
                assert not np.shares_memory(p, buf)
                assert not np.shares_memory(twin.grad[name], buf)
        assert np.array_equal(twin.grad["head_w"], model.grad["head_w"])

    @pytest.mark.parametrize("pair", list(COPIES), indirect=True)
    def test_copy_forward_is_bit_identical(self, pair):
        model, twin, batch = pair
        a, b = forward(model, batch), forward(twin, batch)
        assert np.array_equal(a.logits.data, b.logits.data)
        assert np.array_equal(a.p.data, b.p.data)

    @pytest.mark.parametrize("pair", list(COPIES), indirect=True)
    def test_adamw_on_the_copy_moves_only_the_copy(self, pair):
        model, twin, batch = pair
        before = forward(model, batch).logits.data
        twin.base.grads[...] = 1.0
        twin.gate.grads[...] = 1.0
        for group in (twin.base, twin.gate):
            adamw_step(group.params, group.grads, {}, lr=0.1)
        assert not np.array_equal(forward(twin, batch).logits.data, before)
        assert np.array_equal(forward(model, batch).logits.data, before)

    @pytest.mark.parametrize("pair", list(COPIES), indirect=True)
    def test_zero_grad_rejects_a_rebound_parameter_of_the_copy(self, pair):
        _, twin, _ = pair
        twin.zero_grad()
        assert not twin.base.grads.any() and not twin.gate.grads.any()
        twin.head_w = twin.head_w.copy()
        with pytest.raises(RuntimeError, match="head_w was rebound"):
            twin.zero_grad()


class TestSeededInit:
    def test_same_seed_same_weights(self):
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        a = FusionModel.from_seed(cfg, 7)
        b = FusionModel.from_seed(cfg, 7)
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            assert (ta == tb).all()

    def test_different_seed_different_weights(self):
        cfg = FusionConfig(modalities=2, dims=(3, 3), classes=3, fused_dim=4)
        a = FusionModel.from_seed(cfg, 7)
        b = FusionModel.from_seed(cfg, 8)
        assert np.abs(a.gate_w1 - b.gate_w1).max() > 1e-9

    def test_gate_output_layer_starts_at_zero(self):
        cfg = FusionConfig(modalities=3, dims=(3, 3, 3), classes=3, fused_dim=4)
        model = FusionModel.from_seed(cfg, 0)
        assert (model.gate_w2 == 0.0).all()
        assert (model.gate_b2 == 0.0).all()
