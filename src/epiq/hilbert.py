"""Contextual vector spaces, property operators, and commutation checks.

A two-property context gets a finite complex inner-product space with one
orthonormal family of value vectors (or subspaces) per observed property:

* interference type  -- first property never knowable: the amplitude matrix
  itself relates the two bases, so its rows must be orthonormal;
* joint type         -- both decided and simultaneously knowable: product
  space of dimension M*M' with complementary subspace families;
* sequential type    -- both decided but not simultaneously knowable: the
  first basis is rebuilt from the declared joint volume table, and the
  context must be neutral (amplitudes must match those volumes).

The inner product used throughout is linear in its first argument and
conjugate-linear in the second.

Everything is plain Python on tuples, built from the structure each kind
has: the last property's basis is always the standard basis, so its
operator is diagonal, and each kind differs only in the first property's
value vectors, ``u[k][j] = <first_j, second_k>`` in the last property's
coordinates, which one function per kind returns and the one constructor
``ContextSpace(network, joint_volumes=None, simultaneous=False)`` assembles
(`build_space` is the same class): a space is its context.  Joint
coordinate j*M' + k carries the values j and k, so both joint operators
are diagonal and commute exactly; and a commutator's spectral norm is read
off a Householder tridiagonal form by Sturm-sequence bisection.
"""
from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from operator import mul

from . import Knowability, Record, _set
from .context import ContextError, ContextNetwork, Layer, _checked, _complex, _complex_rows

ORTHO_TOL = 1e-12
NEUTRAL_TOL = 1e-9


class SpaceConstructionError(ValueError):
    pass


def inner(x: Sequence[complex], y: Sequence[complex]) -> complex:
    """<x, y> with conjugation on the second argument; vectors of unequal
    length raise ValueError."""
    return complex(sum(a * b.conjugate() for a, b in zip(x, y, strict=True)))


def _close(x: float, y: float) -> bool:
    """numpy.allclose's test of one pair at atol=1e-9 and its default rtol."""
    return abs(x - y) <= 1e-9 + 1e-05 * abs(y)


class JointVolumeTable(Record):
    """Relative volumes v[j][k] of the joint value regions of two properties."""

    __slots__ = ("v",)  # M x M' nonnegative reals, summing to 1

    def __init__(self, v):
        try:
            rows = tuple(tuple(float(x) for x in row) for row in v)
        except OverflowError:
            raise ValueError("joint volumes must be within the float range") from None
        _set(self, "v", rows)
        if len({len(row) for row in rows}) > 1:
            raise ValueError("joint volume rows must have equal length")
        flat = [x for row in rows for x in row]
        if not all(x >= 0 for x in flat):  # both checks are written so that NaN fails
            raise ValueError("joint volumes must be nonnegative")
        if not abs(sum(flat) - 1.0) <= 1e-9:
            raise ValueError("joint volumes must sum to one")

    @property
    def shape(self):
        return len(self.v), len(self.v[0])

    def symmetric_pair_conditions_hold(self) -> bool:
        """v[j][k] = v[k][j] and equal diagonal entries (square tables only)."""
        m, mp = self.shape
        if m != mp:
            return False
        v = self.v
        return (all(_close(v[j][k], v[k][j]) for j in range(m) for k in range(m))
                and all(_close(v[j][j], v[0][0]) for j in range(m)))


class ContextSpace(Record):
    """The space of a one- or two-property context; `build_space` is this
    class.  A network is checked once (not again after `propagate`), and one
    that `validate_context` refuses raises its messages as one ContextError.
    Only the sequential kind keeps ``joint_volumes`` (a JointVolumeTable or
    None) and only the joint kind ``simultaneous`` (a bool), so equal
    contexts give equal spaces; ``kind`` and ``bases`` derive from these.

    ``bases`` holds one orthonormal family per property, in the network's
    layer order: its rows, so that column k is vector k, or None for the
    standard basis, which the last property always has.  An earlier
    property's columns span only the part of the space where it has a value
    (fewer than the dimension when M < M'), and its operator is 0 on the
    rest.  Each value owns one column, except in the joint space of
    dimension M*M' (see `PropertyOperator.spectrum`).
    """

    __slots__ = ("network", "joint_volumes", "simultaneous", "kind", "bases")
    _fields = ("network", "joint_volumes", "simultaneous")

    def __init__(self, network: ContextNetwork, joint_volumes: JointVolumeTable | None = None,
                 simultaneous: bool = False):
        if not isinstance(joint_volumes, (JointVolumeTable, type(None))):
            raise ValueError(f"joint volumes must be a JointVolumeTable, not {joint_volumes!r}")
        if not isinstance(simultaneous, bool):
            raise ValueError(f"simultaneous must be a bool, not {simultaneous!r}")
        _checked(network)
        if len(network.layers) == 1:
            kind, u = "single", None
        elif len(network.layers) != 2:
            raise SpaceConstructionError("space construction covers one- and two-property contexts")
        elif network.layers[0].level is Knowability.NEVER:
            kind, u = "interference", _interference_basis(_complex_rows(network.edges[0]))
        elif network.layers[0].level is not Knowability.DECIDED:  # a contingent first property
            kind = "joint" if simultaneous else "sequential"
            raise SpaceConstructionError(f"{kind} space needs both properties decided")
        elif simultaneous:  # both properties keep the standard basis of the product space
            kind, u = "joint", None
        else:
            kind = "sequential"
            u = _sequential_basis(joint_volumes, _complex_rows(network.edges[0]))
        _set(self, "network", network)
        _set(self, "joint_volumes", joint_volumes if kind == "sequential" else None)
        _set(self, "simultaneous", kind == "joint")
        _set(self, "kind", kind)
        _set(self, "bases", (None,) if kind == "single" else (u, None))

    def __reduce__(self):
        return ContextSpace, (self.network, self.joint_volumes, self.simultaneous)

    @property
    def property_order(self) -> tuple:
        """The property ids, in the network's layer order."""
        return tuple(layer.property_id for layer in self.network.layers)

    @property
    def dimension(self) -> int:
        """M*M' for the joint kind, else the last layer's size."""
        sizes = [layer.size for layer in self.network.layers]
        return math.prod(sizes) if self.kind == "joint" else sizes[-1]

    def _property(self, property_id: str) -> tuple:
        """A property's basis rows and labels; an unknown id is refused."""
        ids = self.property_order
        if property_id not in ids:
            raise ValueError(f"space has no property {property_id!r}")
        i = ids.index(property_id)
        return self.bases[i], self.network.layers[i].labels

    def basis(self, property_id: str) -> tuple:
        """A property's value vectors as the columns of a tuple of rows: row i
        holds coordinate i of every value's vector (not in the joint space)."""
        rows, n = self._property(property_id)[0], self.dimension
        if self.kind == "joint":
            raise SpaceConstructionError(f"{property_id} is represented by subspaces, not vectors")
        return rows or tuple(tuple(complex(i == c) for c in range(n)) for i in range(n))

    def subspace_dimensions(self, property_id: str) -> tuple:
        size = len(self._property(property_id)[1])
        return (self.dimension // size if self.kind == "joint" else 1,) * size


build_space = ContextSpace


def _orthonormal(rows) -> bool:
    """Whether the rows' Gram matrix is within 1e-9 of the identity in every
    entry (NaN fails)."""
    conj = [[x.conjugate() for x in row] for row in rows]
    return all(abs(sum(map(mul, row, conj[l])) - (j == l)) <= 1e-9
               for j, row in enumerate(rows) for l in range(j, len(rows)))


def _interference_basis(a) -> tuple:
    # first-basis vector j has component a[j][k] on second-basis vector k,
    # so that <first_j, second_k> equals the amplitude a[j][k]
    if not _orthonormal(a):
        raise SpaceConstructionError("amplitude matrix rows are not orthonormal")
    return tuple(zip(*a))


def _sequential_basis(joint_volumes: JointVolumeTable | None, a) -> tuple:
    m, mp = len(a), len(a[0])
    if m != mp:
        raise SpaceConstructionError("no reciprocal basis: sequential space needs M = M'")
    if joint_volumes is None:
        raise SpaceConstructionError("sequential space needs a joint volume table")
    if joint_volumes.shape != (m, mp):
        raise SpaceConstructionError("joint volume table has the wrong shape")
    v = joint_volumes.v

    # network rows are unit vectors, i.e. conditional amplitudes; a neutral
    # apparatus means their squared moduli reproduce the joint volumes once
    # those are conditioned on the first observed value (a row of zero volume
    # has no conditional volumes, and NaN fails the check).
    for a_row, v_row in zip(a, v):
        total = sum(v_row)
        for amp, vol in zip(a_row, v_row):
            if not abs(abs(amp) ** 2 - (vol / total if total else math.nan)) <= NEUTRAL_TOL:
                raise SpaceConstructionError("context not neutral")

    if m == 2:
        if not joint_volumes.symmetric_pair_conditions_hold():
            raise SpaceConstructionError("no orthonormal second basis exists")
        # |<first_1, second_1>|^2 = 2*v11: a rotation by alpha with
        # cos(alpha)^2 = 2*v11 realizes every entry of the table.
        c = math.sqrt(min(1.0, 2.0 * v[0][0]))
        alpha = math.acos(c)
        cos, sin = complex(math.cos(alpha)), complex(math.sin(alpha))
        return ((cos, sin), (-sin, cos))
    if not all(_close(x, v[0][0]) for row in v for x in row):
        raise SpaceConstructionError("unsupported pair class")
    # independent pair: all joint volumes equal, realized by the unitary
    # Fourier matrix (every squared inner product equals 1/M).
    return tuple(tuple(cmath.exp(-2j * math.pi * j * k / m) / math.sqrt(m)
                       for k in range(m)) for j in range(m))


def reciprocal(net: ContextNetwork) -> ContextNetwork:
    """The same two properties observed in the reverse order.

    The reversed initial amplitudes re-express the evolved state in the
    second property's basis.  The matrix relating two orthonormal bases is
    unitary, so the reversed matrix is its adjoint.  Levels stay by position
    (a never/decided pair stays one).  The result is a float network, also
    of an exact one, so applying the construction twice gives the entries
    back only to within rounding.  `validate_context`'s refusals come first,
    then a network that is not square and two-layer, or whose matrix is not
    unitary (within 1e-9 in each entry of its Gram matrix).
    """
    _checked(net)
    if len(net.layers) != 2:
        raise ContextError("reciprocal context is defined for two-layer networks")
    first, second = net.layers
    if first.size != second.size:
        raise ContextError("reciprocal context exists if and only if M = M'")
    a = _complex_rows(net.edges[0])
    if not _orthonormal(a):
        raise ContextError("reciprocal undefined")
    init = tuple(map(_complex, net.initial))
    return ContextNetwork(
        layers=(Layer(second.property_id, first.level, second.labels),
                Layer(first.property_id, second.level, first.labels)),
        initial=tuple(sum(map(mul, init, col)) for col in zip(*a)),
        edges=(tuple(tuple(x.conjugate() for x in col) for col in zip(*a)),),
    )


class PropertyOperator(Record):
    """The self-adjoint operator sum_j eigenvalues[j] P_j of a property on
    ``space``, P_j the projector onto value j's subspace.  The labels
    default to the property's values, its layer's labels; given ones must be
    one per value, finite and distinct.  ``basis`` and ``spectrum`` read its
    eigendecomposition off the space."""

    __slots__ = ("space", "property_id", "eigenvalues")

    def __init__(self, space: ContextSpace, property_id: str,
                 labels: Sequence[float] | None = None):
        _, values = space._property(property_id)
        labels = values if labels is None else tuple(map(float, labels))
        if len(labels) != len(values):
            raise ValueError("one label per value required")
        if not all(map(math.isfinite, labels)):
            raise ValueError("property values must be finite")
        if len(set(labels)) != len(labels):
            raise ValueError("property values must be distinct")
        _set(self, "space", space)
        _set(self, "property_id", property_id)
        _set(self, "eigenvalues", labels)

    @property
    def basis(self):
        """The property's basis rows, None for the standard basis."""
        return self.space._property(self.property_id)[0]

    @property
    def spectrum(self) -> tuple:
        """The label of each basis column.  A value's subspace has n columns:
        the first property's value j owns n consecutive ones (joint coordinate
        j*M' + k), and the last's value k the columns k, k + M', ..."""
        e, space = self.eigenvalues, self.space
        n = space.subspace_dimensions(self.property_id)[0]
        if self.property_id == space.property_order[0]:
            return tuple(x for x in e for _ in range(n))
        return e * n


make_operator = PropertyOperator


def _recompose(v, spectrum) -> list:
    """V diag(spectrum) V^H for basis rows V, one label per column."""
    scaled = [[x * e for x, e in zip(row, spectrum, strict=True)] for row in v]
    conj = [[x.conjugate() for x in row] for row in v]
    return [[sum(map(mul, s, c)) for c in conj] for s in scaled]


class CommutatorResult(Record):
    """A commutator's spectral norm; the operators commute when it is under ORTHO_TOL."""

    __slots__ = ("norm",)
    commuting = property(lambda self: self.norm < ORTHO_TOL)

    def __init__(self, norm: float):
        _set(self, "norm", norm)


def commutator(a: PropertyOperator, b: PropertyOperator) -> CommutatorResult:
    """The spectral norm of [A, B], as a CommutatorResult.

    A space's last property has the standard basis, so of two operators of
    one space, one is diagonal; it is taken as A = diag(d), since [B, A] =
    -[A, B] has the same norm.  With B = W diag(e) W^H, W the other
    property's basis and e its spectrum, the commutator's entries are
    (d_j - d_l) B_jl.  Operators of unequal spaces are refused, and
    operators diagonal in one basis commute exactly.
    """
    if a.space != b.space:
        raise ValueError("operators act on different spaces")
    if a.basis == b.basis:
        return CommutatorResult(0.0)
    if a.basis is not None:
        a, b = b, a
    m = _recompose(b.basis, b.spectrum)
    d = a.spectrum
    # i [diag(d), M] is Hermitian, and its eigenvalues are i times those of
    # the commutator, so their largest modulus is the commutator's norm
    norm = spectral_norm([[1j * (dj - dl) * x for dl, x in zip(d, row)]
                          for dj, row in zip(d, m)])
    if not norm < math.inf:
        raise ValueError("commutator norm lies outside the float range")
    return CommutatorResult(norm)


def spectral_norm(h) -> float:
    """Spectral norm of a Hermitian matrix: its largest eigenvalue modulus.

    Householder reflections reduce ``h`` (its rows) to a Hermitian
    tridiagonal matrix, which has the eigenvalues of the real symmetric one
    with the moduli of its off-diagonal entries; bisection on Sturm-sequence
    counts then brackets the largest modulus to the last bit (Golub & Van
    Loan, Matrix Computations, 8.3-8.4).  The entries are first divided by
    the largest modulus, so nothing overflows or underflows on the way.  A
    non-finite entry gives NaN.
    """
    moduli = [abs(x) for row in h for x in row]
    if not all(map(math.isfinite, moduli)):
        return math.nan
    scale = max(moduli, default=0.0)
    if scale == 0:
        return 0.0
    diag, off = _tridiagonal([[x / scale for x in row] for row in h])
    return scale * _largest_modulus(diag, off)


def _reflector(x) -> tuple:
    """(v, beta, alpha): the Householder reflection I - beta v v^H maps x to
    a multiple of e_0 of modulus alpha = |x|.  v is None when the entries
    past the first have a norm under 1e-30: x is taken as that multiple."""
    x0 = abs(x[0])
    rest = math.sqrt(sum(abs(z) ** 2 for z in x[1:]))
    alpha = math.hypot(x0, rest)
    if rest <= 1e-30:
        return None, 0.0, alpha
    v = list(x)
    v[0] += (x[0] / x0 if x0 else 1.0) * alpha
    return v, 1.0 / (alpha * (alpha + x0)), alpha


def _tridiagonal(a) -> tuple:
    """Diagonal and off-diagonal moduli of a tridiagonal matrix unitarily
    similar to the Hermitian matrix ``a``, whose rows it overwrites.

    ``a``'s largest entry has modulus 1, so its norm is at least 1, and a
    column that ``_reflector`` leaves as it is (its part below the
    subdiagonal under 1e-30) moves no eigenvalue by more than 1e-30.
    """
    n = len(a)
    off = []
    for k in range(n - 1):
        v, beta, alpha = _reflector([a[i][k] for i in range(k + 1, n)])
        off.append(alpha)
        if v is None:
            continue
        vc = [z.conjugate() for z in v]
        tail = [row[k + 1:] for row in a[k + 1:]]
        # P A P = A - v w^H - w v^H, with p = beta A v and w = p - (beta/2)(v^H p) v
        p = [beta * sum(map(mul, row, v)) for row in tail]
        half = 0.5 * beta * sum(map(mul, vc, p)).real
        w = [pi - half * vi for pi, vi in zip(p, v)]
        wc = [z.conjugate() for z in w]
        for i, row in enumerate(tail):
            vi, wi = v[i], w[i]
            a[k + 1 + i][k + 1:] = [y - vi * wcj - wi * vcj for y, vcj, wcj in zip(row, vc, wc)]
    return [a[i][i].real for i in range(n)], off


def _largest_modulus(diag, off) -> float:
    """Largest eigenvalue modulus of the real symmetric tridiagonal matrix
    with this diagonal and these off-diagonal entries, by bisection."""
    n = len(diag)
    squares = [0.0] + [b * b for b in off]
    pivmin = 2.0 ** -1022 * max(1.0, *squares)  # a pivot never nearer to 0

    def below(x, sign):
        """Number of eigenvalues of sign * T under x: the negative pivots of
        sign * T - x I (a zero pivot counts, so an eigenvalue at x may too)."""
        count, q = 0, 1.0
        for d, s in zip(diag, squares):
            q = sign * d - x - s / q
            if abs(q) < pivmin:
                q = -pivmin
            count += q < 0
        return count

    # [0, twice Gershgorin's bound]: finite, as the entries are, so the
    # halving ends when no float lies between the ends
    lo = 0.0
    hi = 2.0 * max(abs(d) + s + t for d, s, t in zip(diag, [0.0, *off], [*off, 0.0]))
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        # every eigenvalue of T and of -T under mid?
        if below(mid, 1.0) == n and below(mid, -1.0) == n:
            hi = mid
        else:
            lo = mid


def principle4_probabilities(space: ContextSpace) -> tuple:
    """Final-property probabilities via squared inner products with the
    evolved contextual state of ``space.network``, each clipped at 1 as
    propagation clips them; must agree with network propagation.

    The last property's basis is the standard basis, so <first_j, second_k>
    is entry k of first-basis vector j, and row k of the first property's
    basis gives final value k.  The space holds a network already checked,
    so nothing is checked again; a joint space, whose first property is
    represented by subspaces, raises SpaceConstructionError naming that
    property.
    """
    net = space.network
    u = space.basis(space.property_order[0])
    init = tuple(map(_complex, net.initial))
    if net.layers[0].level == Knowability.DECIDED:
        # The first property is observed, so the contextual state reduces to
        # one first-basis vector per branch; the outcomes mix classically.
        return tuple(min(sum(abs(c) ** 2 * abs(x) ** 2 for c, x in zip(init, row)), 1.0)
                     for row in u)
    return tuple(min(abs(sum(map(mul, init, row))) ** 2, 1.0) for row in u)
