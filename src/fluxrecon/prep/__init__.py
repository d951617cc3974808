from .transport import RankContext, SimCluster, SocketTransport
from .distribute import EntityRange, distribute_entities, nbx_exchange
from .matching import (
    MeshShard,
    RemoteCoupling,
    match_remote_faces,
    prepare_shards,
    resolve_boundary_faces,
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
    "match_remote_faces",
    "resolve_boundary_faces",
    "prepare_shards",
    "partition_mesh",
]
