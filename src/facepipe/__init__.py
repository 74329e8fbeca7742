"""3D face identification pipeline.

Raw facial point clouds are aligned to a reference model, rendered to 2.5D
depth maps, enlarged with expression / pose / occlusion augmentation, and
matched against a gallery with cosine distance over normalized features.
"""

from facepipe.pointcloud import (
    NeighborIndex,
    PointCloud,
    RigidTransform,
    apply_transform,
    crop_sphere,
    load_ply,
    save_ply,
)

__version__ = "0.1.0"

__all__ = [
    "NeighborIndex",
    "PointCloud",
    "RigidTransform",
    "apply_transform",
    "crop_sphere",
    "load_ply",
    "save_ply",
    "__version__",
]
