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
(`exactnum.ExactAmplitude`).  A network whose amplitudes are all exact is
checked and propagated on integer rows, each with one shared denominator and
one gcd per result row (`exactnum.merge_rows`, `carry_rows`), so the fold
makes no value object and no gcd per operation.  One pass over each matrix
(`exactnum.checked_rows`) makes its rows and their squared moduli and names
the rows that do not sum to exactly 1; floats enter only for those, which get
the float test as a fallback.  Any other network, one that mixes exact and
float entries included, is checked and propagated on complex rows: every entry
is converted once, and an exact entry past the float range becomes infinite,
so its row fails the float test.  A network is checked once, on first use, and
keeps the result (`_check`): every entry point called on it shares that check.

A network is its own start state, and every reduction maps networks to
networks: a superposed state at layer c is `ContextNetwork(layers[c:],
amplitudes, edges[c:])`, and observing value j of a decided first layer leaves
the later layers fed by row j of the first matrix (`reduce_by_observation`).
"""
from __future__ import annotations

import math

from . import Knowability  # re-exported: epiq.context.Knowability
from . import Record, _set
from .exactnum import (ONE_ROW, ExactAmplitude, carry_rows, checked_rows, merge_rows,
                       row_sum, scalars, squared_moduli)

NORM_TOL = 1e-12


class ContextError(ValueError):
    pass


class Layer(Record):
    __slots__ = ("property_id", "level", "labels")

    def __init__(self, property_id: str, level: Knowability, labels: tuple):
        _set(self, "property_id", property_id)
        _set(self, "level", Knowability(level))
        # distinct finite real value labels, one per alternative
        _set(self, "labels", tuple(float(x) for x in labels))

    @property
    def size(self) -> int:
        return len(self.labels)


class ContextNetwork(Record):
    """Layered network: initial amplitudes feed the first layer, one complex
    matrix links each consecutive pair (entry [j][k]: value j of the earlier
    layer to value k of the later).  Its first check (`_check`), rows and
    all, stays in a slot that equality, hash, repr, pickle and copy ignore:
    about 14 MB at the schema's cap of 63 exact 64x64 matrices."""

    __slots__ = ("layers", "initial", "edges", "_checks")
    _fields = ("layers", "initial", "edges")

    def __init__(self, layers: tuple, initial: tuple, edges: tuple):
        _set(self, "layers", tuple(layers))
        _set(self, "initial", tuple(initial))
        # of matrices, each a tuple of row tuples
        _set(self, "edges", tuple(tuple(tuple(row) for row in m) for m in edges))

    @property
    def final_layer(self) -> Layer:
        return self.layers[-1]

    def is_exact(self) -> bool:
        return all(isinstance(a, ExactAmplitude)
                   for m in ((self.initial,),) + self.edges for row in m for a in row)


def _normalized(total) -> bool:
    """Whether a sum of squared moduli is 1; written so that NaN fails.  An
    exact sum too large to convert to a float is not 1 either."""
    try:
        return abs(float(total) - 1.0) <= NORM_TOL
    except OverflowError:
        return False


def _squares(rows) -> list:
    """|a|^2 of every complex entry, row by row."""
    return [[a.real * a.real + a.imag * a.imag for a in row] for row in rows]


def validate_context(net: ContextNetwork) -> list:
    """All structural violations of a network, as a new list of messages."""
    return list(_check(net)[0])


def _checked(net: ContextNetwork) -> tuple:
    """`_check`'s (exact, rows, squares), or its messages as one ContextError."""
    errors, exact, rows, squares = _check(net)
    if errors:
        raise ContextError("; ".join(errors))
    return exact, rows, squares


def _check(net: ContextNetwork) -> tuple:
    """`_examine(net)`, made on first use and kept in the network's `_checks` slot."""
    if not hasattr(net, "_checks"):
        _set(net, "_checks", _examine(net))
    return net._checks


def _examine(net: ContextNetwork) -> tuple:
    """validate_context's messages for `net`, whether it is exact, and its
    rows: the initial vector as a one-row matrix, then each matrix, in the
    network's number field (amplitude rows when exact, else complex rows),
    with the squared moduli that the row checks sum."""
    exact = net.is_exact()
    errors, rows, squares = [], [], []
    if not net.layers:
        return ["network has no layers"], exact, rows, squares
    sizes = [len(layer.labels) for layer in net.layers]
    for layer, size in zip(net.layers, sizes):
        if size < 2:
            errors.append(f"layer {layer.property_id}: a complete set needs at least 2 alternatives")
        if len(set(layer.labels)) != size:
            errors.append(f"layer {layer.property_id}: value labels must be distinct")
        if not all(map(math.isfinite, layer.labels)):
            errors.append(f"layer {layer.property_id}: value labels must be finite")
    if net.final_layer.level is not Knowability.DECIDED:
        errors.append("final property must be decided")
    if len(net.edges) != len(net.layers) - 1:
        errors.append("need exactly one amplitude matrix per consecutive layer pair")
        return errors, exact, rows, squares
    # matrix -1 is the initial vector, one row high
    for i, m, height, width in zip(range(-1, len(sizes)), ((net.initial,),) + net.edges,
                                   [1] + sizes, sizes):
        if [*map(len, m)] != [width] * height:
            errors.append(f"matrix {i}: expected shape {height}x{width}" if i >= 0
                          else "initial amplitude vector does not match first layer")
            continue
        if exact:
            converted, squared, off = checked_rows(m)
            if off:  # a row that does not sum to exactly 1 gets the float test
                off = [j for j in off if not _normalized(row_sum(squared[j]))]
        else:
            converted = _complex_rows(m)
            squared = _squares(converted)
            off = [j for j, row in enumerate(squared) if not _normalized(sum(row))]
        rows.append(converted)
        squares.append(squared)
        if off:
            errors += [f"row not normalized: matrix {i} row {j}" if i >= 0
                       else "row not normalized: initial amplitudes" for j in off]
    for layer, size, following in zip(net.layers, sizes, sizes[1:]):
        if layer.level is Knowability.NEVER and following < size:
            errors.append(f"layer {layer.property_id}: requires virtual-value padding")
    return errors, exact, rows, squares


class Distribution(Record):
    __slots__ = ("labels", "probabilities", "exact", "rules")

    def __init__(self, labels: tuple, probabilities: tuple,
                 exact: tuple | None = None, rules: tuple = ()):
        _set(self, "labels", labels)
        _set(self, "probabilities", probabilities)  # floats
        _set(self, "exact", exact)  # Sqrt2Scalar values when propagated exactly
        _set(self, "rules", rules)  # per crossed layer: "classical" | "amplitude"

    def total_variation(self, other: "Distribution") -> float:
        if self.labels != other.labels:
            raise ValueError(f"total variation needs the same labels, not {self.labels} "
                             f"and {other.labels}")
        return 0.5 * sum(abs(p - q) for p, q in zip(self.probabilities, other.probabilities))


def propagate(net: ContextNetwork) -> Distribution:
    """Fold the network into the outcome distribution of its final property.

    The mixture is a list of classical weights, one per amplitude row.  A
    level-3 layer merges it into one weight per value, sum_b w_b |row_b[j]|^2,
    and continues with that layer's matrix rows; a level-1 layer carries every
    row's amplitudes linearly through the matrix.  An unpromoted level-2 layer
    is an error: consistency reduction must resolve it first.

    `_check` checks the network once, on first use, in its number field, and
    keeps every matrix's squared moduli, so a merge straight after a decided
    layer reads them instead of squaring the matrix rows again.  An exact
    network is folded on the integer rows `exactnum.checked_rows` made, with
    one gcd per result row; any other network on complex rows.
    """
    exact, rows, squares = _checked(net)
    if exact:
        squared, merge, carry, weights = squared_moduli, merge_rows, carry_rows, ONE_ROW
    else:
        squared, merge, carry, weights = _squares, _merge, _carry, [1]
    mixture, squared_rows, rules = rows[0], squares[0], []
    for i, layer in enumerate(net.layers[:-1], 1):
        if layer.level is Knowability.DECIDED:
            rules.append("classical")
            weights = merge(weights, squared_rows or squared(mixture))
            mixture, squared_rows = rows[i], squares[i]
        elif layer.level is Knowability.NEVER:
            rules.append("amplitude")
            mixture, squared_rows = carry(mixture, rows[i]), None
        else:
            raise ContextError("unresolved contingent knowability")

    totals = merge(weights, squared_rows or squared(mixture))
    if exact:
        totals = scalars(totals)
    probs = tuple(float(t) for t in totals)
    if not abs(sum(probs) - 1.0) <= NORM_TOL:
        if "amplitude" in rules:
            raise ContextError("amplitude matrix violates unitarity conditions")
        raise ContextError("distribution does not normalize")
    return Distribution(
        labels=net.final_layer.labels,
        # float rounding can land an ulp above 1; float() of an exact total cannot
        probabilities=tuple(min(p, 1.0) for p in probs),
        exact=totals if exact else None,
        rules=tuple(rules),
    )


def _complex_rows(matrix) -> list:
    """The matrix's entries as complex numbers (`_complex` after an overflow)."""
    try:
        return [tuple(map(complex, row)) for row in matrix]
    except OverflowError:
        return [tuple(map(_complex, row)) for row in matrix]


def _complex(a) -> complex:
    """complex(a), or infinity for an exact or int entry past the float range."""
    try:
        return complex(a)
    except OverflowError:
        return complex("inf")


def _merge(weights, squared) -> list:
    """One classical weight per value j: sum_b w_b |row_b[j]|^2, from the
    rows' squared moduli.  Each sum starts at 0 and adds the rows in order, as
    sum() would, so the floats are the same bit for bit."""
    t = [0] * len(squared[0])
    for w, row in zip(weights, squared):
        for j in range(len(t)):
            t[j] += w * row[j]
    return t


def _carry(rows, matrix) -> list:
    """Each row of amplitudes carried linearly through the matrix: a merge
    of the matrix rows weighted by the row's amplitudes."""
    return [_merge(row, matrix) for row in rows]


def reduce_by_observation(net: ContextNetwork, outcome: int) -> ContextNetwork:
    """Observe value `outcome` of the network's first, decided property.

    What is then known is again a context: the remaining layers, fed by the
    observed value's row of the first matrix.
    """
    exact, _, squares = _checked(net)
    layer = net.layers[0]
    if layer.level is not Knowability.DECIDED:
        raise ContextError("reduction forbidden at unknowable property")
    if len(net.layers) == 1:
        raise ContextError("nothing left to propagate")
    if type(outcome) is not int or not 0 <= outcome < layer.size:  # a bool is no index
        raise ContextError(f"no value index {outcome} at layer {layer.property_id}")
    # |a|^2 of the initial entries; an exact one's (p, q) has p = 0 only for a = 0
    square = squares[0][0]
    if (square[1][2 * outcome] if exact else square[outcome]) == 0:
        raise ContextError("impossible outcome")
    return ContextNetwork(net.layers[1:], net.edges[0][outcome], net.edges[1:])


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

