"""gct: exact-arithmetic tools for the complexity of det vs perm.

Modules:

* ``monomials`` the grevlex order, the monomials of one degree, their count
                and packed code; imports nothing from ``gct``
* ``poly``      exact sparse polynomial arithmetic, flattenings, the file codec
* ``zoo``       named polynomial generators, decompositions, verifiers
* ``flatten``   exact ranks and border-rank lower bounds
* ``hhh``       the Hermite--Hadamard--Howe map and its kernel
* ``reptheory`` symmetric-group character calculus, weight-space counting
                and module multiplicities, obstructions
* ``latin``     Latin-square sign counting and determinant pairings
* ``geometry``  Hessians, characteristic-polynomial identities, stabilizers
* ``cli``       the ``gct`` command-line entry point and result cache, which
                takes every content digest

``CapacityError``, the refusal every layer raises, lives here, so no layer
runs another only to name it.
"""

__version__ = "0.1.0"


class CapacityError(RuntimeError):
    """A computation was rejected because its exact size exceeds the cap.

    Raised *before* the offending object is built, so callers can report
    the predicted size honestly instead of hanging.
    """

    def __init__(self, context: str, size: int, cap: int):
        super().__init__(
            f"{context}: size {size} exceeds capacity cap {cap}"
        )
        self.context = context
        self.size = size
        self.cap = cap
