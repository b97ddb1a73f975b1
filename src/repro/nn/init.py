"""Weight initialisation schemes (Kaiming / constants).

All initialisers take an explicit ``rng`` so that model construction is
fully deterministic given a seed — a requirement for the federated
experiments, where every device must start from the *same* initial model
(HADFL workflow step 1: "synchronize the initial models w_k = w(0)").
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 2:  # Linear: (out, in)
        fan_out, fan_in = shape
    elif len(shape) == 4:  # Conv2d: (out, in, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        size = int(np.prod(shape))
        fan_in = fan_out = size
    return fan_in, fan_out


def kaiming_normal(
    shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """He initialisation for ReLU networks: N(0, sqrt(2/fan_in))."""
    # repro: allow[det-unseeded-rng] a fixed fallback seed would correlate unseeded layers
    rng = rng or np.random.default_rng()
    fan_in, _ = _fan_in_out(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def kaiming_uniform(
    shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    # repro: allow[det-unseeded-rng] a fixed fallback seed would correlate unseeded layers
    rng = rng or np.random.default_rng()
    fan_in, _ = _fan_in_out(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def ones(shape: Tuple[int, ...]) -> np.ndarray:
    return np.ones(shape)
