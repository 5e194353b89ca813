"""Checkpoints written by earlier versions of the trainers.

The two ALSH archives in ``tests/fixtures`` were written by the last
version that still offered two LSH bucket storages, with::

    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(40, 8)), rng.integers(0, 3, size=40)
    trainer = ALSHApproxTrainer(MLP([8, 16, 16, 3], seed=0), seed=1, **kw)
    trainer.fit(x, y, epochs=1, batch_size=8,
                checkpoint_dir=out, checkpoint_tag=tag)

``alsh_flat.ckpt.npz`` used the default flat storage (``kw = {}``) and
must still resume.  ``alsh_dict.ckpt.npz`` used ``backend="dict"``, whose
per-table ``t<i>.items`` / ``t<i>.codes`` arrays must be refused with a
clear error instead of a bare ``KeyError``.

``alsh_flat.ckpt.npz`` also holds Adam state written while optimiser
slots were row-major, and weights written while trainers kept ``W``
row-major; both must resume unchanged onto column-major arrays.

``standard_momentum.ckpt.npz`` was written by the last version that still
offered the momentum rule, on the same ``x, y``, with::

    trainer = StandardTrainer(MLP([8, 16, 3], seed=0),
                              optimizer="momentum", seed=1)
    trainer.fit(x, y, epochs=1, batch_size=8,
                checkpoint_dir=out, checkpoint_tag="standard_momentum")

No rule today can take over its velocity slots, so resuming is refused.
A refused resume, for that or for a layer shape, leaves the trainer's
weights and optimiser slots as they were.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.alsh_approx import ALSHApproxTrainer
from repro.core.standard import StandardTrainer
from repro.nn.checkpoint import load_checkpoint
from repro.nn.network import MLP
from repro.nn.optim import OPTIMIZERS
from repro.nn.serialize import atomic_savez, read_archive

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def resume(tmp_path, tag, epochs):
    """Fit a same-config trainer to ``epochs``, resuming from the fixture."""
    shutil.copy(FIXTURES / f"{tag}.ckpt.npz", tmp_path / f"{tag}.ckpt.npz")
    return fit(tmp_path, tag, epochs)


def fit(tmp_path, tag, epochs):
    """Fit to ``epochs``, resuming from ``tmp_path / f"{tag}.ckpt.npz"``."""
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(40, 8)), rng.integers(0, 3, size=40)
    trainer = ALSHApproxTrainer(MLP([8, 16, 16, 3], seed=0), seed=1)
    history = trainer.fit(
        x, y, epochs=epochs, batch_size=8,
        checkpoint_dir=tmp_path, checkpoint_tag=tag,
    )
    return trainer, history


def test_flat_checkpoint_restores_index_state(tmp_path):
    archive = load_checkpoint(FIXTURES / "alsh_flat.ckpt.npz")
    # One epoch is already done, so fit restores and trains nothing.
    trainer, history = resume(tmp_path, "alsh_flat", epochs=1)
    assert len(history.epochs) == 1
    for i, index in enumerate(trainer.indexes):
        np.testing.assert_array_equal(
            index.index.state_dict()["item_gcode"],
            archive.arrays[f"aux.index{i}.item_gcode"],
        )


def test_flat_checkpoint_restores_optimizer_slots(tmp_path):
    archive = load_checkpoint(FIXTURES / "alsh_flat.ckpt.npz")
    expected = {k: v for k, v in archive.arrays.items() if k.startswith("opt.")}
    trainer, _ = resume(tmp_path, "alsh_flat", epochs=1)
    meta, arrays = trainer.optimizer.state_dict()
    assert meta == archive.payload["optimizer"]
    assert sorted(arrays) == sorted(expected)
    for name, arr in arrays.items():
        assert arr.shape == expected[name].shape, name
        assert arr.dtype == expected[name].dtype, name
        np.testing.assert_array_equal(arr, expected[name])
        if arr.ndim == 2:
            assert expected[name].flags.c_contiguous, name
            assert arr.flags.f_contiguous, name


def test_flat_checkpoint_restores_row_major_weights_column_major(tmp_path):
    archive = load_checkpoint(FIXTURES / "alsh_flat.ckpt.npz")
    trainer, _ = resume(tmp_path, "alsh_flat", epochs=1)
    for i, layer in enumerate(trainer.net.layers):
        expected = archive.arrays[f"net.W{i}"]
        assert expected.flags.c_contiguous and not expected.flags.f_contiguous
        assert layer.W.flags.f_contiguous, i
        np.testing.assert_array_equal(layer.W, expected)
        np.testing.assert_array_equal(layer.b, archive.arrays[f"net.b{i}"])


def test_missing_optimizer_slot_is_refused_clearly(tmp_path):
    arrays = read_archive(FIXTURES / "alsh_flat.ckpt.npz")
    del arrays["opt.0.m"]
    atomic_savez(tmp_path / "alsh_flat.ckpt.npz", arrays)
    with pytest.raises(ValueError, match=r"slot 'm' of parameter \('W', 2\)") as err:
        fit(tmp_path, "alsh_flat", epochs=2)
    assert "opt.0.m" in str(err.value)
    assert "\n" not in str(err.value)


def test_flat_checkpoint_trains_one_more_epoch(tmp_path):
    _, history = resume(tmp_path, "alsh_flat", epochs=2)
    assert len(history.epochs) == 2
    assert np.isfinite(history.epochs[1].loss)


def test_dict_checkpoint_is_refused_clearly(tmp_path):
    with pytest.raises(ValueError, match="removed dict bucket layout") as err:
        resume(tmp_path, "alsh_dict", epochs=2)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
def test_momentum_checkpoint_is_refused_clearly(tmp_path, optimizer):
    tag = "standard_momentum"
    shutil.copy(FIXTURES / f"{tag}.ckpt.npz", tmp_path / f"{tag}.ckpt.npz")
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(40, 8)), rng.integers(0, 3, size=40)
    trainer = StandardTrainer(
        MLP([8, 16, 3], seed=0), optimizer=optimizer, seed=1
    )
    with pytest.raises(
        ValueError, match=f"holds 'momentum' optimiser state, this trainer "
                          f"uses '{optimizer}'"
    ) as err:
        trainer.fit(x, y, epochs=2, batch_size=8,
                    checkpoint_dir=tmp_path, checkpoint_tag=tag)
    assert "\n" not in str(err.value)


def _weights_and_slots(trainer):
    arrays = {}
    for i, layer in enumerate(trainer.net.layers):
        arrays[f"W{i}"], arrays[f"b{i}"] = layer.W.copy(), layer.b.copy()
    for name, arr in trainer.optimizer.state_dict()[1].items():
        arrays[name] = arr.copy()
    return arrays


@pytest.mark.parametrize(
    "sizes, refusal",
    [
        ([8, 16, 3], "holds 'momentum' optimiser state"),
        ([8, 16, 4], "layer 1 shape mismatch"),
    ],
    ids=["optimizer-rule", "layer-shape"],
)
def test_refused_resume_leaves_the_trainer_as_it_was(tmp_path, sizes, refusal):
    tag = "standard_momentum"
    shutil.copy(FIXTURES / f"{tag}.ckpt.npz", tmp_path / f"{tag}.ckpt.npz")
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(40, 8)), rng.integers(0, 3, size=40)
    trainer = StandardTrainer(MLP(sizes, seed=0), optimizer="adam", seed=1)
    trainer.train_batch(x[:8], y[:8])  # Adam slots to keep
    before = _weights_and_slots(trainer)
    with pytest.raises(ValueError, match=refusal):
        trainer.fit(x, y, epochs=2, batch_size=8,
                    checkpoint_dir=tmp_path, checkpoint_tag=tag)
    after = _weights_and_slots(trainer)
    assert sorted(after) == sorted(before)
    for name, arr in before.items():
        np.testing.assert_array_equal(after[name], arr, err_msg=name)
