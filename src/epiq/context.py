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

from typing import Optional

from . import Knowability  # re-exported: epiq.context.Knowability
from . import Record, _set
from .exactnum import ZERO, ExactAmplitude, abs2

NORM_TOL = 1e-12


class ContextError(ValueError):
    pass


class Layer(Record):
    __slots__ = ("property_id", "level", "labels")

    def __init__(self, property_id: str, level: Knowability, labels: tuple):
        _set(self, "property_id", property_id)
        _set(self, "level", Knowability(level))
        # distinct real value labels, one per alternative
        _set(self, "labels", tuple(float(x) for x in labels))

    @property
    def size(self) -> int:
        return len(self.labels)


class ContextNetwork(Record):
    """Layered network: initial amplitudes feed the first layer, one complex
    matrix links each consecutive pair (entry [j][k]: value j of the earlier
    layer to value k of the later)."""

    __slots__ = ("layers", "initial", "edges")

    def __init__(self, layers: tuple, initial: tuple, edges: tuple):
        _set(self, "layers", tuple(layers))
        _set(self, "initial", tuple(initial))
        # of matrices, each a tuple of row tuples
        _set(self, "edges", tuple(tuple(tuple(row) for row in m) for m in edges))

    @property
    def final_layer(self) -> Layer:
        return self.layers[-1]

    def is_exact(self) -> bool:
        amps = list(self.initial)
        for m in self.edges:
            for row in m:
                amps.extend(row)
        return all(isinstance(a, ExactAmplitude) for a in amps)


class ContextualState(Record):
    """Knowledge about the specimen at one layer: either a unit amplitude
    vector over the layer's values, or a single reduced value index."""

    __slots__ = ("layer_cursor", "amplitudes", "reduced")

    def __init__(self, layer_cursor: int, amplitudes: Optional[tuple] = None,
                 reduced: Optional[int] = None):
        if (amplitudes is None) == (reduced is None):
            raise ContextError("state is either superposed or reduced")
        if amplitudes is not None:
            amplitudes = tuple(amplitudes)
            if not _normalized(map(abs2, amplitudes)):
                raise ContextError("superposed state is not normalized")
        _set(self, "layer_cursor", layer_cursor)
        _set(self, "amplitudes", amplitudes)
        _set(self, "reduced", reduced)


def _normalized(squares) -> bool:
    """Whether squared moduli sum to 1; written so that NaN fails.  A sum past
    the float range (a float square that overflowed to inf meeting an exact
    one, or an exact sum too large to convert) is not 1 either."""
    try:
        return abs(float(sum(squares)) - 1.0) <= NORM_TOL
    except OverflowError:
        return False


def _squares(rows) -> list:
    """|a|^2 of every entry, row by row."""
    return [[abs2(a) for a in row] for row in rows]


def validate_context(net: ContextNetwork) -> list:
    """All structural violations of a network, as a list of messages."""
    return _check(net, net.edges)[0]


def _check(net: ContextNetwork, edges) -> tuple:
    """validate_context's messages for `net` with its matrices read from
    `edges`, and each matrix's table of |m_jk|^2 that the row checks sum
    (None for a matrix of the wrong shape)."""
    errors, squares = [], []
    if not net.layers:
        return ["network has no layers"], squares
    for layer in net.layers:
        if layer.size < 2:
            errors.append(f"layer {layer.property_id}: a complete set needs at least 2 alternatives")
        if len(set(layer.labels)) != len(layer.labels):
            errors.append(f"layer {layer.property_id}: value labels must be distinct")
    if net.final_layer.level is not Knowability.DECIDED:
        errors.append("final property must be decided")
    if len(net.edges) != len(net.layers) - 1:
        errors.append("need exactly one amplitude matrix per consecutive layer pair")
        return errors, squares
    if len(net.initial) != net.layers[0].size:
        errors.append("initial amplitude vector does not match first layer")
    elif not _normalized(map(abs2, net.initial)):
        errors.append("row not normalized: initial amplitudes")
    for i, m in enumerate(edges):
        rows, cols = net.layers[i].size, net.layers[i + 1].size
        if len(m) != rows or any(len(row) != cols for row in m):
            errors.append(f"matrix {i}: expected shape {rows}x{cols}")
            squares.append(None)
            continue
        squares.append(_squares(m))
        for j, row in enumerate(squares[-1]):
            if not _normalized(row):
                errors.append(f"row not normalized: matrix {i} row {j}")
    for i, layer in enumerate(net.layers[:-1]):
        if layer.level is Knowability.NEVER and net.layers[i + 1].size < layer.size:
            errors.append(f"layer {layer.property_id}: requires virtual-value padding")
    return errors, squares


class Distribution(Record):
    __slots__ = ("labels", "probabilities", "exact", "rules")

    def __init__(self, labels: tuple, probabilities: tuple,
                 exact: Optional[tuple] = None, rules: tuple = ()):
        _set(self, "labels", labels)
        _set(self, "probabilities", probabilities)  # floats
        _set(self, "exact", exact)  # Sqrt2Scalar values when propagated exactly
        _set(self, "rules", rules)  # per crossed layer: "classical" | "amplitude"

    def total_variation(self, other: "Distribution") -> float:
        return 0.5 * sum(abs(p - q) for p, q in zip(self.probabilities, other.probabilities))


def propagate(net: ContextNetwork, start: Optional[ContextualState] = None) -> Distribution:
    """Fold the network into the outcome distribution of its final property.

    The mixture is a list of classical weights, one per amplitude row.  A
    level-3 layer merges it into one weight per value, sum_b w_b |row_b[j]|^2,
    and continues with that layer's matrix rows; a level-1 layer carries every
    row's amplitudes linearly through the matrix.  An unpromoted level-2 layer
    is an error: consistency reduction must resolve it first.

    Each edge entry is squared once per call: the validity check keeps every
    matrix's |m_jk|^2 table, and a merge straight after a decided layer reads
    it instead of squaring the matrix rows again.  A network with any float
    amplitude, or a float start state, is checked and propagated on complex
    entries.
    """
    exact = net.is_exact() and (start is None or start.amplitudes is None or all(
        isinstance(a, ExactAmplitude) for a in start.amplitudes))
    edges = net.edges if exact else tuple(
        tuple(tuple(map(complex, row)) for row in m) for m in net.edges)
    errors, squares = _check(net, edges)
    if errors:
        raise ContextError("; ".join(errors))
    cursor, rows, squared = 0, [net.initial], None
    if start is not None:
        cursor = start.layer_cursor
        if not 0 <= cursor < len(net.layers):
            raise ContextError(f"start layer {cursor} outside the network")
        size = net.layers[cursor].size
        if start.reduced is None:
            if len(start.amplitudes) != size:
                raise ContextError(f"start state needs {size} amplitudes")
            rows = [start.amplitudes]
        elif cursor >= len(net.layers) - 1:
            raise ContextError("nothing left to propagate")
        elif not 0 <= start.reduced < size:
            raise ContextError(f"no value index {start.reduced} at start layer")
        else:
            rows, squared = [edges[cursor][start.reduced]], [squares[cursor][start.reduced]]
            cursor += 1
    if not exact:
        rows = [tuple(map(complex, row)) for row in rows]

    weights, rules = [1], []
    for i in range(cursor, len(net.layers) - 1):
        layer, matrix = net.layers[i], edges[i]
        if layer.level is Knowability.DECIDED:
            rules.append("classical")
            weights = _merge(weights, squared or _squares(rows), layer.size)
            rows, squared = matrix, squares[i]
        elif layer.level is Knowability.NEVER:
            rules.append("amplitude")
            rows, squared = [[sum(a * m_row[k] for a, m_row in zip(row, matrix))
                              for k in range(net.layers[i + 1].size)] for row in rows], None
        else:
            raise ContextError("unresolved contingent knowability")

    totals = _merge(weights, squared or _squares(rows), net.final_layer.size)
    probs = tuple(float(t) for t in totals)
    if not abs(sum(probs) - 1.0) <= NORM_TOL:
        if "amplitude" in rules:
            raise ContextError("amplitude matrix violates unitarity conditions")
        raise ContextError("distribution does not normalize")
    return Distribution(
        labels=net.final_layer.labels,
        # float rounding can land an ulp above 1; float() of an exact total cannot
        probabilities=tuple(min(p, 1.0) for p in probs),
        exact=tuple(totals) if exact else None,
        rules=tuple(rules),
    )


def _merge(weights, squared, size) -> list:
    """One classical weight per value j: sum_b w_b |row_b[j]|^2, from the
    rows' squared moduli."""
    return [sum(w * row[j] for w, row in zip(weights, squared)) for j in range(size)]


def reduce_by_observation(state: ContextualState, net: ContextNetwork,
                          outcome: int) -> ContextualState:
    """Collapse a superposed state at a decided layer onto one observed value."""
    if not 0 <= state.layer_cursor < len(net.layers):
        raise ContextError(f"state layer {state.layer_cursor} outside the network")
    layer = net.layers[state.layer_cursor]
    if layer.level is not Knowability.DECIDED:
        raise ContextError("reduction forbidden at unknowable property")
    if state.amplitudes is None:
        raise ContextError("state is already reduced")
    if not 0 <= outcome < layer.size:
        raise ContextError(f"no value index {outcome} at layer {layer.property_id}")
    # an exact |a|^2 is compared with ZERO exactly (it never equals 0), a
    # float one with 0 (it never equals ZERO)
    if abs2(state.amplitudes[outcome]) in (0, ZERO):
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
        Layer(l.property_id, target, l.labels) if l.level is Knowability.CONTINGENT else l
        for l in net.layers)
    return ContextNetwork(new_layers, net.initial, net.edges)


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
