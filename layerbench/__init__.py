"""Layer-separating benchmark of the vectorized XML store (see run.py)."""
