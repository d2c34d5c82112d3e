"""Simultaneous learning of a system state, its adjoint, and an open-loop
optimal control with a physics-informed network, plus classical validators.

Submodules are imported explicitly (``ctrlpinn.trainer`` etc.); the package
root stays import-light so the CLI can cap BLAS threads before numpy loads.
"""

import os

__version__ = "0.1.0"


def thread_cap() -> int:
    """The BLAS threads each matrix product may use: ``CTRLPINN_THREADS``,
    default 1.  ValueError unless it is an integer >= 1."""
    text = os.environ.get("CTRLPINN_THREADS", "1")
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CTRLPINN_THREADS must be an integer >= 1, got {text!r}")
    return cap
