from .transport import RankContext, SimCluster, SocketTransport, socket_links
from .distribute import EntityRange, distribute_entities, nbx_exchange
from .matching import (
    MeshShard,
    RemoteCoupling,
    match_uncoupled_faces,
    prepare_shards,
)
from .partition import partition_mesh

__all__ = [
    "RankContext",
    "SimCluster",
    "SocketTransport",
    "socket_links",
    "EntityRange",
    "distribute_entities",
    "nbx_exchange",
    "MeshShard",
    "RemoteCoupling",
    "match_uncoupled_faces",
    "prepare_shards",
    "partition_mesh",
]
