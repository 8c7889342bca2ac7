"""Minimal NCHW tensor engine with reverse-mode autodiff."""
from . import ops  # noqa: F401  (attaches Tensor's arithmetic dunders)
