"""3D face identification pipeline.

Raw facial point clouds are aligned to a reference model, rendered to 2.5D
depth maps, enlarged with expression / pose / occlusion augmentation, and
matched against a gallery with cosine distance over normalized features.
"""

__all__: list[str] = []
