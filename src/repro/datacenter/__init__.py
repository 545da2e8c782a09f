"""Per-datacenter components (§4): the datacenter skeleton every protocol
shares, gears, label sink, remote proxy, storage, and the client
library."""

from repro.datacenter.base import Datacenter
from repro.datacenter.client import ClientProcess
from repro.datacenter.datacenter import (DatacenterParams, SaturnDatacenter,
                                         dc_process_name)
from repro.datacenter.gear import Gear
from repro.datacenter.label_sink import LabelSink
from repro.datacenter.remote_proxy import RemoteProxy
from repro.datacenter.storage import (Partition, PartitionedStore,
                                      StoredValue, responsible_partition)

__all__ = [
    "ClientProcess", "Datacenter", "DatacenterParams", "SaturnDatacenter",
    "dc_process_name", "Gear", "LabelSink", "RemoteProxy",
    "Partition", "PartitionedStore", "StoredValue", "responsible_partition",
]
