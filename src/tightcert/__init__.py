"""Contact surgery diagram calculus with machine-checkable tightness
certificates for rational surgeries on the right-handed trefoil."""

__version__ = "0.1.0"
