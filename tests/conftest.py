"""Shared fixtures for the test suite."""

import multiprocessing

import numpy as np
import pytest

from tracefill.circuit import CircuitParams, Dc, Sine, WaveformSpec, simulate
from tracefill.nn import NetConfig
from tracefill.preprocess import TimeSeriesSet
from tracefill.training import TrainConfig, train


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail the test after which a child process, such as a chunk helper, still runs."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"processes left running: {left}"


@pytest.fixture
def tiny_net() -> NetConfig:
    return NetConfig(n_features=4, seq_len=3, lstm_hidden=4, latent_dim=2)


@pytest.fixture(scope="session")
def toy_datasets() -> list[TimeSeriesSet]:
    """Three short simulated series for cheap training tests."""
    params = CircuitParams()
    specs = [
        WaveformSpec((Dc(3.0),)),
        WaveformSpec((Sine(2.0, 8e4, 0.0), Dc(1.0))),
        WaveformSpec((Sine(3.0, 5e4, 1.0),)),
    ]
    return [simulate(params, s, 1e-8, 40) for s in specs]


@pytest.fixture(scope="session")
def toy_model(toy_datasets):
    """A small trained model shared by reconstruction tests."""
    config = TrainConfig(
        epochs=40,
        seed=3,
        net=NetConfig(n_features=4, seq_len=3, lstm_hidden=4, latent_dim=2),
    )
    model, history = train(toy_datasets, config)
    return model, history


def rel_rmse(reference: np.ndarray, candidate: np.ndarray) -> float:
    err = np.sqrt(np.mean((candidate - reference) ** 2))
    return float(err / reference.std())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
