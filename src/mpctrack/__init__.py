"""Sequential detection and estimation of multipath-component parameters
with belief-propagation data association, particle filtering and online
false-alarm-rate adaptation, plus the synthetic experiment harness."""

from .model import ArrayGeometry, HyperParams, KinematicState, Measurement
from .scenario import Scenario
from .tracker import FarBelief, PmpcBelief, StepEstimate, TrackerState

__all__ = [
    "ArrayGeometry", "HyperParams", "KinematicState", "Measurement",
    "Scenario",
    "FarBelief", "PmpcBelief", "StepEstimate", "TrackerState",
]

__version__ = "0.1.0"
