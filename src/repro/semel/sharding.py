"""Key-space sharding and the global shard directory.

§3: "The client library coordinates with a global master to map each key
to a data shard and to the shard's primary replica using standard
techniques (e.g., consistent hashing). The master maintains the shard maps
based on its global view of participating servers."

We implement a consistent-hash ring with virtual nodes mapping keys to
shards, and a :class:`Directory` playing the master's role: it tracks each
shard's replica set and primary, and performs promotion on failover. As in
real deployments (ZooKeeper et al.), the map changes rarely; we let
clients and servers read the directory object directly rather than paying
an RPC per lookup, and document that as the standard client-side caching
of shard maps.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Dict, List, Sequence

__all__ = ["HashRing", "ShardInfo", "Directory", "stable_hash"]


def stable_hash(value: str) -> int:
    """A process-independent 64-bit hash (Python's hash() is salted)."""
    digest = hashlib.md5(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent hashing with virtual nodes.

    Keys map to the first point on the ring at or after their hash. Adding
    or removing one shard moves only ~1/n of the key space.
    """

    def __init__(self, shards: Sequence[str], vnodes: int = 64) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: List[int] = []
        self._owners: List[str] = []
        for shard in shards:
            for replica_index in range(vnodes):
                point = stable_hash(f"{shard}#{replica_index}")
                self._points.append(point)
                self._owners.append(shard)
        order = sorted(range(len(self._points)),
                       key=lambda i: self._points[i])
        self._points = [self._points[i] for i in order]
        self._owners = [self._owners[i] for i in order]

    def owner_of(self, key: str) -> str:
        """The shard owning ``key``."""
        point = stable_hash(key)
        index = bisect_right(self._points, point)
        if index == len(self._points):
            index = 0
        return self._owners[index]


class ShardInfo:
    """Replica membership for one shard; replicas[0] is the primary."""

    def __init__(self, name: str, replicas: Sequence[str]) -> None:
        if not replicas:
            raise ValueError(f"shard {name!r} needs at least one replica")
        self.name = name
        self.replicas = list(replicas)

    @property
    def primary(self) -> str:
        return self.replicas[0]

    @property
    def backups(self) -> List[str]:
        return self.replicas[1:]

    @property
    def fault_tolerance(self) -> int:
        """f such that the shard has 2f+1 replicas (majority = f+1)."""
        return (len(self.replicas) - 1) // 2

    def promote(self, new_primary: str) -> None:
        """Make ``new_primary`` (an existing replica) the primary."""
        if new_primary not in self.replicas:
            raise ValueError(
                f"{new_primary!r} is not a replica of shard {self.name!r}")
        self.replicas.remove(new_primary)
        self.replicas.insert(0, new_primary)


class Directory:
    """The global master's shard map."""

    def __init__(self, shards: Dict[str, Sequence[str]],
                 vnodes: int = 64) -> None:
        self._shards: Dict[str, ShardInfo] = {
            name: ShardInfo(name, replicas)
            for name, replicas in shards.items()
        }
        self._ring = HashRing(sorted(self._shards), vnodes=vnodes)

    @property
    def shard_names(self) -> List[str]:
        return sorted(self._shards)

    def shard_of(self, key: str) -> ShardInfo:
        """Shard owning ``key``."""
        return self._shards[self._ring.owner_of(key)]

    def shard(self, name: str) -> ShardInfo:
        return self._shards[name]

    def primary_of(self, key: str) -> str:
        """Current primary server for ``key``'s shard."""
        return self.shard_of(key).primary

    def all_servers(self) -> List[str]:
        servers: List[str] = []
        for shard in self._shards.values():
            servers.extend(shard.replicas)
        return servers

    def all_primaries(self) -> List[str]:
        return [self._shards[name].primary for name in self.shard_names]

    def promote(self, shard_name: str, new_primary: str) -> None:
        """Failover: make ``new_primary`` the primary of ``shard_name``."""
        self._shards[shard_name].promote(new_primary)
