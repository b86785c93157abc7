"""tropkit: exact idempotent and tropical mathematics toolkit.

Submodules:

    semiring   tagged scalar semirings, residuation, star, exact intervals
    tropmat    dense matrices/vectors, product, residuation, Kleene star
    spectral   cycle-mean eigenvalue, critical graph, eigenvectors
    projector  semimodule projectors, Hilbert values, separation
    twosided   two-sided systems A x <= B x, generator sets
    determ     bideterminant, permanent, rook coefficients, singularity
    plucker    tropical Plucker functions, normal flows, reconstruction
    assign     idempotent assignment analysis, strong regularity
    dynamics   degree-one homogeneous min-plus dynamics and traffic models
    errors     the exception hierarchy of domain outcomes
    io         exact JSON/CSV serialization of all object kinds
    cli        the `tropkit` command-line front end
"""

import importlib as _importlib

__all__ = [
    "assign",
    "determ",
    "dynamics",
    "errors",
    "io",
    "plucker",
    "projector",
    "semiring",
    "spectral",
    "tropmat",
    "twosided",
]


def __getattr__(name):
    if name in __all__:
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module 'tropkit' has no attribute {name!r}")

__version__ = "0.1.0"
