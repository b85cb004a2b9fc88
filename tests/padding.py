"""Virtual-value padding of a context network, kept for the tests' fixtures.

`epiq.context.validate_context` refuses a level-1 layer that feeds a narrower
layer ("requires virtual-value padding"); these tests pad such networks by
hand, with zero columns and fresh labels, to check that `propagate` folds
them and that `build_space` refuses them.  Nothing in `epiq` pads a network.
"""
from epiq import Knowability
from epiq.context import ContextError, ContextNetwork, Layer
from epiq.exactnum import ExactAmplitude


def pad_virtual_values(net: ContextNetwork, layer_index: int) -> ContextNetwork:
    """Extend the layer after a wider level-1 layer with virtual values.

    The later layer gains M - M' fresh labels, appended after its own, whose
    amplitude columns are zero, so their final probability is pinned to zero
    and every row keeps its normalization.
    """
    if not 0 <= layer_index < len(net.layers) - 1:
        raise ContextError("layer index must name a non-final layer")
    layer, nxt = net.layers[layer_index], net.layers[layer_index + 1]
    if layer.level is not Knowability.NEVER:
        raise ContextError("padding applies after a level-1 layer")
    m, mp = layer.size, nxt.size
    if m <= mp:
        raise ContextError("padding unnecessary")
    extra = m - mp
    exact = net.is_exact()
    zero = ExactAmplitude.of(0) if exact else 0j
    fresh = max(nxt.labels) + 1.0
    new_labels = nxt.labels + tuple(fresh + k for k in range(extra))
    new_layers = list(net.layers)
    new_layers[layer_index + 1] = Layer(nxt.property_id, nxt.level, new_labels)
    new_edges = list(net.edges)
    new_edges[layer_index] = tuple(row + (zero,) * extra for row in net.edges[layer_index])
    if layer_index + 1 < len(net.layers) - 1:
        # rows for the virtual values of the following matrix: put all weight
        # on the first downstream value so row normalization holds; the rows
        # are unreachable (zero incoming amplitude).
        follow = list(net.edges[layer_index + 1])
        width = len(follow[0])
        one = ExactAmplitude.of(1) if exact else 1 + 0j
        for _ in range(extra):
            follow.append((one,) + (zero,) * (width - 1))
        new_edges[layer_index + 1] = tuple(follow)
    return ContextNetwork(layers=tuple(new_layers), initial=net.initial,
                          edges=tuple(new_edges))
