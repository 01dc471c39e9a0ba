import pytest

from exosim.hand import default_hand
from exosim.config import default_subject_bank
from exosim.tendons import calibrate_depth, config1_extension, config2_pinch
from exosim.trial import run_trial, trial_config_for


@pytest.fixture(scope="session")
def extension_net():
    return config1_extension()


@pytest.fixture(scope="session")
def hand(extension_net):
    return calibrate_depth(default_hand(), extension_net, 57.0)


@pytest.fixture(scope="session")
def pinch_net():
    return config2_pinch()


@pytest.fixture(scope="session")
def bank(hand):
    return default_subject_bank(hand)


@pytest.fixture(scope="session")
def noiseless_traces(hand, extension_net, bank):
    """One noiseless trial per bank subject, each with its own magnet."""
    return {
        p.subject_id: run_trial(trial_config_for(hand, extension_net, p), seed=0)
        for p in bank
    }


@pytest.fixture(scope="session")
def noisy_traces(hand, extension_net, bank):
    """One sigma=0.4 trial per bank subject at a fixed seed."""
    return {
        p.subject_id: run_trial(
            trial_config_for(hand, extension_net, p, noise_sigma_n=0.4), seed=123
        )
        for p in bank
    }
