"""Dissipative-bath dynamics toolkit.

Bath kernels (Ohmic, Drude, discrete), colored-noise synthesis, Langevin
ensembles, Kramers/Smoluchowski grid solvers with selectable operator
ordering, time-sliced functional determinants, and high-temperature
decoherence of density matrices.

The public names are each module's ``__all__``, re-exported here.
"""

from .kernels import *
from .determinants import *
from .noise import *
from .potentials import *
from .langevin import *
from .fokker_planck import *
from .decoherence import *
from . import decoherence, determinants, fokker_planck, kernels, langevin, noise, potentials

__version__ = "0.11.0"

__all__ = ["__version__"]
__all__ += kernels.__all__
__all__ += determinants.__all__
__all__ += noise.__all__
__all__ += potentials.__all__
__all__ += langevin.__all__
__all__ += fokker_planck.__all__
__all__ += decoherence.__all__
