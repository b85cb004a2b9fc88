"""Experimental contexts as layered networks of alternatives.

A context lists the properties observed in sequence, each with a knowability
level and a finite set of labelled values.  Complex amplitudes connect the
values of consecutive layers.  Crossing a decided (level-3) layer combines
probabilities classically; crossing a never-knowable (level-1) layer combines
amplitudes first and squares at the end, which is where interference enters.

Propagation keeps a mixture of amplitude rows, each with a classical weight.
A decided layer merges the mixture into one weight per value, because every
run that took value j continues with the same matrix row j; the mixture is
therefore never wider than the widest layer, and the cost is linear in depth.

Amplitudes may be ordinary complex numbers or exact Q(sqrt2) values
(`exactnum.ExactAmplitude`); a network whose amplitudes are all exact is
propagated without any floating-point arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .evolution import Knowability
from .exactnum import ExactAmplitude, abs2

NORM_TOL = 1e-12

Amplitude = Union[complex, ExactAmplitude]


class ContextError(ValueError):
    pass


@dataclass(frozen=True)
class Layer:
    property_id: str
    level: Knowability
    labels: tuple  # distinct real value labels, one per alternative

    def __post_init__(self):
        object.__setattr__(self, "level", Knowability(self.level))
        object.__setattr__(self, "labels", tuple(float(x) for x in self.labels))

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class ContextNetwork:
    """Layered network: initial amplitudes feed the first layer, one complex
    matrix links each consecutive pair (entry [j][k]: value j of the earlier
    layer to value k of the later)."""

    layers: tuple
    initial: tuple
    edges: tuple  # of matrices, each a tuple of row tuples

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "initial", tuple(self.initial))
        object.__setattr__(self, "edges",
                           tuple(tuple(tuple(row) for row in m) for m in self.edges))

    @property
    def final_layer(self) -> Layer:
        return self.layers[-1]

    def is_exact(self) -> bool:
        amps = list(self.initial)
        for m in self.edges:
            for row in m:
                amps.extend(row)
        return all(isinstance(a, ExactAmplitude) for a in amps)

    def matrix(self, i: int):
        return self.edges[i]


@dataclass(frozen=True)
class ContextualState:
    """Knowledge about the specimen at one layer: either a unit amplitude
    vector over the layer's values, or a single reduced value index."""

    layer_cursor: int
    amplitudes: Optional[tuple] = None
    reduced: Optional[int] = None

    def __post_init__(self):
        if (self.amplitudes is None) == (self.reduced is None):
            raise ContextError("state is either superposed or reduced")
        if self.amplitudes is not None:
            object.__setattr__(self, "amplitudes", tuple(self.amplitudes))
            if not _normalized(self.amplitudes):
                raise ContextError("superposed state is not normalized")


def _normalized(amps) -> bool:
    """Whether the squared moduli sum to 1; written so that NaN fails."""
    return abs(float(sum(abs2(a) for a in amps)) - 1.0) <= NORM_TOL


def born(a: Amplitude):
    """Probability carried by one amplitude: its squared modulus."""
    return abs2(a)


def validate_context(net: ContextNetwork) -> list:
    """All structural violations of a network, as a list of messages."""
    errors = []
    if not net.layers:
        return ["network has no layers"]
    for layer in net.layers:
        if layer.size < 2:
            errors.append(f"layer {layer.property_id}: a complete set needs at least 2 alternatives")
        if len(set(layer.labels)) != len(layer.labels):
            errors.append(f"layer {layer.property_id}: value labels must be distinct")
    if net.final_layer.level is not Knowability.DECIDED:
        errors.append("final property must be decided")
    if len(net.edges) != len(net.layers) - 1:
        errors.append("need exactly one amplitude matrix per consecutive layer pair")
        return errors
    if len(net.initial) != net.layers[0].size:
        errors.append("initial amplitude vector does not match first layer")
    elif not _normalized(net.initial):
        errors.append("row not normalized: initial amplitudes")
    for i, m in enumerate(net.edges):
        rows, cols = net.layers[i].size, net.layers[i + 1].size
        if len(m) != rows or any(len(row) != cols for row in m):
            errors.append(f"matrix {i}: expected shape {rows}x{cols}")
            continue
        for j, row in enumerate(m):
            if not _normalized(row):
                errors.append(f"row not normalized: matrix {i} row {j}")
    for i, layer in enumerate(net.layers[:-1]):
        if layer.level is Knowability.NEVER and net.layers[i + 1].size < layer.size:
            errors.append(f"layer {layer.property_id}: requires virtual-value padding")
    return errors


def _require_valid(net: ContextNetwork):
    errors = validate_context(net)
    if errors:
        raise ContextError("; ".join(errors))


@dataclass(frozen=True)
class Distribution:
    labels: tuple
    probabilities: tuple  # floats
    exact: Optional[tuple] = None  # Sqrt2Scalar values when propagated exactly
    rules: tuple = ()  # per crossed layer: "classical" | "amplitude"

    def total_variation(self, other: "Distribution") -> float:
        return 0.5 * sum(abs(p - q) for p, q in zip(self.probabilities, other.probabilities))


def propagate(net: ContextNetwork, start: Optional[ContextualState] = None) -> Distribution:
    """Fold the network into the outcome distribution of its final property.

    The mixture is a list of classical weights, one per amplitude row.  A
    level-3 layer merges it into one weight per value, sum_b w_b |row_b[j]|^2,
    and continues with that layer's matrix rows; a level-1 layer carries every
    row's amplitudes linearly through the matrix.  An unpromoted level-2 layer
    is an error: consistency reduction must resolve it first.
    """
    _require_valid(net)
    cursor, rows = 0, [net.initial]
    if start is not None:
        cursor = start.layer_cursor
        if start.reduced is None:
            rows = [start.amplitudes]
        elif cursor >= len(net.layers) - 1:
            raise ContextError("nothing left to propagate")
        else:
            rows = [net.matrix(cursor)[start.reduced]]
            cursor += 1
    edges = net.edges
    exact = net.is_exact() and all(isinstance(a, ExactAmplitude) for a in rows[0])
    if not exact:
        rows = [tuple(map(complex, row)) for row in rows]
        edges = tuple(tuple(tuple(map(complex, row)) for row in m) for m in edges)

    weights, rules = [1], []
    for i in range(cursor, len(net.layers) - 1):
        layer, matrix = net.layers[i], edges[i]
        if layer.level is Knowability.DECIDED:
            rules.append("classical")
            weights, rows = _merge(weights, rows, layer.size), matrix
        elif layer.level is Knowability.NEVER:
            rules.append("amplitude")
            rows = [[sum(a * m_row[k] for a, m_row in zip(row, matrix))
                     for k in range(net.layers[i + 1].size)] for row in rows]
        else:
            raise ContextError("unresolved contingent knowability")

    totals = _merge(weights, rows, net.final_layer.size)
    probs = tuple(float(t) for t in totals)
    if not abs(sum(probs) - 1.0) <= NORM_TOL:
        if "amplitude" in rules:
            raise ContextError("amplitude matrix violates unitarity conditions")
        raise ContextError("distribution does not normalize")
    return Distribution(
        labels=net.final_layer.labels,
        probabilities=probs,
        exact=tuple(totals) if exact else None,
        rules=tuple(rules),
    )


def _merge(weights, rows, size) -> list:
    """One classical weight per value j: sum_b w_b |row_b[j]|^2."""
    return [sum(w * abs2(row[j]) for w, row in zip(weights, rows)) for j in range(size)]


def reduce_by_observation(state: ContextualState, net: ContextNetwork,
                          outcome: int) -> ContextualState:
    """Collapse a superposed state at a decided layer onto one observed value."""
    layer = net.layers[state.layer_cursor]
    if layer.level is not Knowability.DECIDED:
        raise ContextError("reduction forbidden at unknowable property")
    if state.amplitudes is None:
        raise ContextError("state is already reduced")
    if not 0 <= outcome < layer.size:
        raise ContextError(f"no value index {outcome} at layer {layer.property_id}")
    if float(abs2(state.amplitudes[outcome])) == 0.0:
        raise ContextError("impossible outcome")
    return ContextualState(layer_cursor=state.layer_cursor, reduced=outcome)


def reduce_by_consistency(net: ContextNetwork,
                          path_knowledge_reachable: bool) -> ContextNetwork:
    """Resolve every contingent (level-2) layer of the network.

    If path knowledge can still be gained later, Nature must decide the value
    no later than the layer boundary: the layer is promoted to level 3.  If an
    eraser guarantees the knowledge can never surface, the layer degrades to
    level 1 and amplitudes interfere.
    """
    if not any(l.level is Knowability.CONTINGENT for l in net.layers):
        raise ContextError("nothing to resolve")
    target = Knowability.DECIDED if path_knowledge_reachable else Knowability.NEVER
    new_layers = tuple(
        replace(l, level=target) if l.level is Knowability.CONTINGENT else l
        for l in net.layers)
    return replace(net, layers=new_layers)


@dataclass(frozen=True)
class PaddingResult:
    network: ContextNetwork
    layer_index: int
    virtual_value_indices: tuple  # indices in the padded later layer


def pad_virtual_values(net: ContextNetwork, layer_index: int) -> PaddingResult:
    """Extend the layer after a wider level-1 layer with virtual values.

    The later layer gains M - M' fresh labels whose amplitude columns are
    zero, so their final probability is pinned to zero and every row keeps
    its normalization.
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
    matrix = net.matrix(layer_index)
    new_matrix = tuple(row + (zero,) * extra for row in matrix)
    new_layers = list(net.layers)
    new_layers[layer_index + 1] = replace(nxt, labels=new_labels)
    new_edges = list(net.edges)
    new_edges[layer_index] = new_matrix
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
    padded = ContextNetwork(layers=tuple(new_layers), initial=net.initial,
                            edges=tuple(new_edges))
    return PaddingResult(network=padded, layer_index=layer_index,
                         virtual_value_indices=tuple(range(mp, m)))
