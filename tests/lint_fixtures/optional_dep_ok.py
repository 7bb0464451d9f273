"""Conforms to optional-dep-guard: guarded seam or lazy function import."""

try:
    import scipy.optimize as _opt
except ImportError:  # the no-scipy leg
    _opt = None


def linprog():
    from scipy.optimize import linprog

    return linprog
