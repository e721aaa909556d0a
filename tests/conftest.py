import pytest


@pytest.fixture
def fast_experiment_configs():
    """One cheap parameter block per experiment type."""
    return {
        "entropy": {"parameters": {"pairs": 40, "alphabet": 4}},
        "transport": {"parameters": {"n_atoms": 5, "instances": 6}},
        "jko": {"parameters": {"cells": 120, "steps": 8}},
        "fokker_planck": {
            "parameters": {"cells": 60, "t_end": 2.0, "check_boltzmann": False}
        },
        "multicomponent": {"parameters": {"cells": 32, "steps": 40}},
        "phasefield": {
            "parameters": {
                "model": "allen_cahn",
                "cells": 32,
                "length": 32.0,
                "dt": 0.05,
                "steps": 200,
            }
        },
        "particles": {
            "parameters": {"n": 400, "t_end": 0.2, "cells": 40}
        },
        "ldp": {"parameters": {"n_values": [50, 100, 200]}},
        "reversibility": {"parameters": {"cells": 40, "steps": 30}},
    }
