"""SR network specs, builders, classical baselines, and checkpoints."""
