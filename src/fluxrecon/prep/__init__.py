from .transport import RankContext, SimCluster, SocketTransport
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
    "EntityRange",
    "distribute_entities",
    "nbx_exchange",
    "MeshShard",
    "RemoteCoupling",
    "match_uncoupled_faces",
    "prepare_shards",
    "partition_mesh",
]
