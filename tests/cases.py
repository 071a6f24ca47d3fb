"""Helper shared by the tests: the stiffness of one tetrahedron."""

import numpy as np

from twoscalefem.elasticity import Material, batch_leaf_stiffness


def element_stiffness(coords, material: Material):
    """12x12 stiffness and volume of one tetrahedron (raises on inverted ones)."""
    K, vol = batch_leaf_stiffness(np.asarray(coords, dtype=np.float64), np.arange(4)[None], material)
    return K[0], vol[0]
