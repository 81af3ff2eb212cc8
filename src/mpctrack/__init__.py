"""Sequential detection and estimation of multipath-component parameters
with belief-propagation data association, particle filtering and online
false-alarm-rate adaptation, plus the synthetic experiment harness."""

from .model import ArrayGeometry, HyperParams, Measurement
from .scenario import Scenario
from .tracker import FarBelief, PmpcBelief, StepEstimate, TrackerState

__all__ = [
    "ArrayGeometry", "HyperParams", "Measurement",
    "Scenario",
    "FarBelief", "PmpcBelief", "StepEstimate", "TrackerState",
]

__version__ = "0.1.0"
