"""Saturn core: labels, serializer trees, metadata service, fault
tolerance, and online reconfiguration."""

from repro.core.label import Label, LabelType, label_max
from repro.core.reconfig import ReconfigurationManager
from repro.core.replication import ReplicationMap
from repro.core.serializer import Serializer, interest_of
from repro.core.service import SaturnService
from repro.core.tree import TopologyError, TreeTopology

__all__ = [
    "Label", "LabelType", "label_max",
    "ReconfigurationManager", "ReplicationMap", "Serializer", "interest_of",
    "SaturnService", "TopologyError", "TreeTopology",
]
