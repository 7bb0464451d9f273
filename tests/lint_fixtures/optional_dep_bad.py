"""Violates optional-dep-guard: unguarded module-level optional imports."""

import scipy.optimize
from scipy.sparse import csr_matrix

__all__ = ["scipy", "csr_matrix"]
