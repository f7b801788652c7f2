"""Exact-arithmetic engine for affine/periodic Temperley-Lieb diagram
algebras, their six uncoiled quotients, and the Wenzl-Jones projectors."""

from .scalars import (EXACT, FLOAT, NonGenericParameterError, ParamEnv, qbinom,
                      qfact, qnum, sample_env)
from .diagrams import (Diagram, LinkState, e, flip, identity, link_states,
                       multiply_raw, omega, omega_inv, parity)
from .algebra import (Algebra, AlgebraElement, AlgebraVariant,
                      InfiniteAlgebraError, ResourceLimitError,
                      basis_dimension, basis_enumerate,
                      dimension_closed_form, mul, psi_bilinear, reduce)
from .reps import StandardModule, build_central, central_eigenvalue, matrix_of
from .projectors import (GammaTable, build_projector_Q, build_Z, check_e0Z,
                         gamma_conjecture, gamma_residuals, gamma_solve,
                         kernel_J, projector_oracle, wenzl_jones_P)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
