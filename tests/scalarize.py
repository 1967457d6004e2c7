"""A scalar test function of any Tensor: a fixed weighting of its
elements, summed, as one autodiff node."""
import numpy as np

from vsrkit.autodiff import Tensor


def weighted_sum(x, weights=1.0):
    """``sum(x * weights)``; ``weights`` broadcasts to the shape of ``x``."""
    w = np.broadcast_to(np.asarray(weights, dtype=np.float64),
                        x.data.shape)
    return Tensor(np.float64((x.data * w).sum()), (x,), lambda g: (g * w,),
                  op="weighted_sum")
