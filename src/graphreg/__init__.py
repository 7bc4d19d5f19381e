"""graphreg: a numerical laboratory for graph-regular operators on
Hilbert C*-modules.

Finite-dimensional block algebras, piecewise symbols on a 1-D domain and
truncated Toeplitz matrices realize the same operator-transform calculus:
the (a, a_*, b)-transform, the bounded transform, absolute values, polar
decompositions and a functional calculus for normal operators, together
with classification machinery deciding essential definedness, orthogonal
closedness, graph regularity and regularity.

The package root holds only ``__version__``: import from the layer
modules (``graphreg.transforms``, ``graphreg.modules``, ...), so that a
process loads only the layers it uses.
"""

__version__ = "0.1.0"
