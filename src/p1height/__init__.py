"""Canonical heights on the projective line over Q, without factoring resultants.

The public API is the ``__all__`` of the modules forms, nonarch, arch,
height and fixtures, re-exported here.
"""

from . import arch, fixtures, forms, height, nonarch
from .arch import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .forms import *  # noqa: F403
from .height import *  # noqa: F403
from .nonarch import *  # noqa: F403

__version__ = "1.0.0"

__all__ = [
    *forms.__all__, *nonarch.__all__, *arch.__all__, *height.__all__, *fixtures.__all__,
    "__version__",
]
