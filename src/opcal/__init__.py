"""Operational calculus of experiments, states, effects and
transformations on finite-dimensional quantum and classical backends,
with numerical verification of the norm, dimension, faithfulness and
representation constructions."""

from .core import (
    Effect,
    Experiment,
    Observable,
    State,
    Theory,
    Transformation,
    Weight,
    act,
    add,
    classical,
    coexistent,
    compose,
    condition,
    dynamical_equiv,
    effect_norm,
    evolve_effect,
    identity,
    informational_equiv,
    pair,
    quantum,
    scale,
    trans_norm,
    weight_norm,
)
from .quantum import (
    apply_local,
    kraus_to_choi,
    local_state,
    max_entangled,
)

__version__ = "0.1.0"
