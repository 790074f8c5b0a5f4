"""KV-Direct-style smart-NIC key-value store (Li et al., SOSP 2017 —
the introduction's RDMA/SmartNIC deployment example).
"""

from .hashtable import HashTable
from .server import (
    KvOutcome,
    KvPrice,
    SmartNicKvServer,
    SoftwareKvServer,
    run_ops,
)

__all__ = [
    "HashTable", "KvOutcome", "KvPrice", "SmartNicKvServer",
    "SoftwareKvServer", "run_ops",
]
