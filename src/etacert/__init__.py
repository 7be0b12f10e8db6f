"""etacert: exact q-series arithmetic and congruence certification.

Truncated integer power series, eta-quotient expansion, theta dissection,
and finite coefficient checks that certify infinite congruence families for
broken k-diamond partition counts (mod 5, 25, 7 and 49), with
machine-readable certificates.  The package exports each layer module's
own `__all__`; `oracle` stays unexported.
"""

from . import finite_check, pipelines, series, theta
from .series import *  # noqa: F403
from .theta import *  # noqa: F403
from .finite_check import *  # noqa: F403
from .pipelines import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__", *series.__all__, *theta.__all__, *finite_check.__all__, *pipelines.__all__]
