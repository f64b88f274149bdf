"""Operational calculus of experiments, states, effects and
transformations on finite-dimensional quantum and classical backends,
with numerical verification of the norm, dimension, faithfulness and
representation constructions."""

# The one name the package root re-exports: perfbench's tracer test
# reads it here to show that a name bound by `from .x import y` is
# traced too.  No program imports a name from the package root.
from .quantum import apply_local  # noqa: F401

__version__ = "0.1.0"
