"""Exact calculus of integral forms over presented noncommutative algebras."""

__version__ = "0.1.0"

from .scalars import PoleAtAssignment, ScalarContext, ScalarRF  # noqa: F401
from .ncalg import (  # noqa: F401
    AlgElement,
    MIXED,
    Presentation,
    TensorElement,
    check_local_confluence,
    coproduct,
    counit,
    antipode,
    zdegree,
)
