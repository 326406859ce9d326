"""Storage engines (FTLs and DRAM) behind the SEMEL server API.

Four engines, matching the paper's evaluation backends:

* :class:`MFTLBackend` — the unified multi-version FTL (Contribution 3);
* :class:`VFTLBackend` — the split baseline: multi-version KV layer over a
  generic FTL;
* :class:`MFTLBackend` with ``multi_version=False`` — the single-version
  "SFTL" mode of Figure 6 (see ``repro.baselines.single_version``);
* :class:`DRAMBackend` — byte-addressable persistent memory.

The two flash engines are one store, :class:`PackedVersionStore`
(``versionstore.py``: version lists, request path, write buffer,
watermark trimming, victim scan), placed two ways: ``mftl.py`` puts a
page at a physical ``(block, page)`` and erases blocks; ``vftl.py`` puts
it at an LBA of a :class:`GenericFTL` and trims LBAs. All three
log-structured layers share the pool signalling and the one GC daemon
in ``gc.py`` (:class:`SpacePool`, :class:`Collector`).
"""

from .base import (
    BackendStats,
    BlockPins,
    CapacityError,
    Cpu,
    GetResult,
    KVBackend,
    retained_versions,
)
from .dram import DRAMBackend
from .gc import BlockAllocator, Collector, SpacePool
from .mftl import DEFAULT_MFTL_OP_CPU, MFTLBackend
from .packing import DEFAULT_PACKING_DELAY, PagePacker
from .sftl import DEFAULT_FTL_OP_CPU, GenericFTL
from .versionstore import PackedVersionStore
from .vftl import DEFAULT_KV_OP_CPU, VFTLBackend

__all__ = [
    "KVBackend",
    "GetResult",
    "BackendStats",
    "BlockPins",
    "CapacityError",
    "Cpu",
    "retained_versions",
    "SpacePool",
    "BlockAllocator",
    "Collector",
    "PagePacker",
    "DEFAULT_PACKING_DELAY",
    "GenericFTL",
    "DEFAULT_FTL_OP_CPU",
    "PackedVersionStore",
    "MFTLBackend",
    "DEFAULT_MFTL_OP_CPU",
    "VFTLBackend",
    "DEFAULT_KV_OP_CPU",
    "DRAMBackend",
]
