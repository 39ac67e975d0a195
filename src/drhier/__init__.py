"""drhier: exact symbolic computation for hamiltonian hierarchies of PDEs.

Modules form one import chain, each importing only modules before it:
slots -> scalars -> diffpoly -> psido -> hamops -> gdhier -> drspin ->
quantize -> reconstruct -> cli.
"""

from .diffpoly import DiffPoly, LocalFunctional, Ring, integrate, local_eq

__all__ = [
    "DiffPoly",
    "LocalFunctional",
    "Ring",
    "integrate",
    "local_eq",
]
