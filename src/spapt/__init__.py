"""Local measure-and-prepare realization of the approximated partial
transpose for two qubits, with operation-based entanglement detection.

The package builds the physical (completely positive) approximations to
the transpose and to the inversion as measure-and-prepare channels, mixes
them into the two-qubit partial-transpose approximation, simulates its
finite-shot single-copy realization, and turns measured statistics into
entanglement verdicts thresholded at 2/9.

The package namespace re-exports the public names of its modules: each
module's ``__all__`` is the list.
"""

__version__ = "1.0.0"

from . import channels, detection, linalg, states, tomography
from .linalg import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from .channels import *  # noqa: F401,F403
from .tomography import *  # noqa: F401,F403
from .detection import *  # noqa: F401,F403

__all__ = ["__version__"] + [name for module in (linalg, states, channels, tomography, detection) for name in module.__all__]
