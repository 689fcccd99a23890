"""Tests for the Figure 5 training loop wrapper."""

from __future__ import annotations

import pytest

from repro import active_session
from repro.ml.dataset import train_test_split
from repro.ml.train import TrainingConfig, make_synthetic_classification, train_classifier


@pytest.fixture()
def data():
    dataset = make_synthetic_classification(samples=200, features=8, classes=3, seed=1)
    return train_test_split(dataset, test_fraction=0.25, seed=1)


class TestSyntheticData:
    def test_shapes_and_determinism(self):
        a = make_synthetic_classification(samples=50, features=5, classes=2, seed=9)
        b = make_synthetic_classification(samples=50, features=5, classes=2, seed=9)
        assert a.X.shape == (50, 5)
        assert (a.X == b.X).all()
        assert set(a.y.tolist()) <= {0, 1}


class TestUninstrumentedTraining:
    def test_learns_the_synthetic_task(self, data):
        train_data, test_data = data
        result = train_classifier(train_data, test_data, TrainingConfig(epochs=6, lr=5e-3), use_flor_args=False)
        assert result.final_accuracy > 0.8
        assert len(result.losses) == 6 * len(list(range(0, len(train_data), 32)))
        assert len(result.accuracies) == 6

    def test_sgd_option(self, data):
        train_data, test_data = data
        result = train_classifier(
            train_data, test_data, TrainingConfig(epochs=4, lr=0.1, optimizer="sgd"), use_flor_args=False
        )
        assert result.final_accuracy > 0.6


class TestInstrumentedTraining:
    def test_flor_records_loss_acc_recall_and_hyperparameters(self, data, session):
        train_data, test_data = data
        with active_session(session):
            result = train_classifier(train_data, test_data, TrainingConfig(epochs=3, lr=5e-3))
        frame = session.dataframe("acc", "recall")
        assert len(frame) == 3  # one row per epoch
        assert frame["acc"].to_list()[-1] == pytest.approx(result.final_accuracy)
        losses = session.dataframe("loss")
        assert len(losses) == len(result.losses)
        hyper = session.dataframe("epochs", "lr", "hidden", "batch_size", "seed")
        assert hyper.row(0)["epochs"] == 3

    def test_checkpoints_saved_during_instrumented_run(self, data, session):
        train_data, test_data = data
        with active_session(session):
            train_classifier(train_data, test_data, TrainingConfig(epochs=3, lr=5e-3))
        assert session.checkpoints.saved >= 1
        # Checkpoints are written on the flusher's thread and
        # train_classifier never commits: wait for them before listing.
        session.flusher.drain()
        keys = session.objects.list_keys(session.projid)
        assert any(name.startswith("ckpt::") for *_rest, name in keys)

    def test_cli_args_override_config(self, data, make_session):
        train_data, test_data = data
        session = make_session("cli", default_filename="train.py", cli_args={"epochs": 2, "hidden": 8})
        with active_session(session):
            result = train_classifier(train_data, test_data, TrainingConfig(epochs=10, hidden=64))
        assert len(result.accuracies) == 2
        assert result.model.hidden_sizes == (8,)
