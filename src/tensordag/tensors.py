"""Dense tensors of arbitrary order with the n-ary Bhattacharya-Mesner product.

A :class:`Tensor` is an order-d array of :class:`~tensordag.scalars.PolyScalar`
cells stored row-major (last index varies fastest).  Indices and axis numbers
are 0-based throughout the Python API; the text formats in
:mod:`tensordag.netio` present them 1-based.

The module provides the operations the rest of the package is built from:

* :func:`bmp` - the generalized Bhattacharya-Mesner product of d tensors of
  order d, which degenerates to the ordinary matrix product at d = 2.
* :func:`summand_ordered_bmp` - the same product with the factors listed in
  "summand order", i.e. factor m carries the contracted index in slot m.
* :func:`identitary` - the 0/1 tensors that play the role of the identity
  matrix for the product.
* :func:`sigma_transpose` - axis relabeling by a permutation.
* :func:`blow` / :func:`forget` - the two order-raising expansions used to
  build order-d node tensors out of activation tensors.
* :func:`outer_product` - rank-1 tensor from a list of vectors.

All operations are pure; tensors are immutable after construction.
The expansions and :func:`bmp` gather cells by the unchecked offsets of
``_offsets``; the direct route reads only through the bounds-checked
``Tensor[...]``, so the two total routes share no index arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from .scalars import _ONE, _ZERO, PolyScalar, TensordagInputError, parse_expr

#: Tensor shape: one positive dimension per axis.
Shape = tuple[int, ...]


class OrderMismatch(TensordagInputError):
    """An argument tensor does not have the order the operation requires."""


class ShapeMismatch(TensordagInputError):
    """Dimensions are inconsistent with the operation's shape contract."""

    def __init__(self, message: str, *, arg: int | None = None, slot: int | None = None,
                 expected: int | None = None, got: int | None = None):
        self.arg = arg
        self.slot = slot
        self.expected = expected
        self.got = got
        super().__init__(message)


class SlotOutOfRange(TensordagInputError):
    """An identitary slot pair does not satisfy 0 <= j < k < order."""


class PositionOutOfRange(TensordagInputError):
    """A forget position falls outside the result's axis range."""


class CardinalityMismatch(TensordagInputError):
    """The number of inserted dimensions disagrees with the positions."""


def as_scalar(value: PolyScalar | int | Fraction | str) -> PolyScalar:
    """Coerce a cell value: ints/Fractions become constants, strings are parsed."""
    if isinstance(value, PolyScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return PolyScalar.constant(value)
    if isinstance(value, str):
        return parse_expr(value)
    raise TypeError(f"cannot use {type(value).__name__} as a tensor cell")


@dataclass(frozen=True)
class Permutation:
    """A bijection on axis numbers {0, ..., d-1}, given by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"{self.images!r} is not a permutation of 0..{len(self.images) - 1}")

    def __len__(self) -> int:
        return len(self.images)

    def __call__(self, k: int) -> int:
        return self.images[k]

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(tuple(range(d)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for k, image in enumerate(self.images):
            inv[image] = k
        return Permutation(tuple(inv))

    def is_involution(self) -> bool:
        return all(self.images[self.images[k]] == k for k in range(len(self.images)))


def _strides(shape: Shape) -> tuple[int, ...]:
    return tuple(accumulate(shape[:0:-1], mul, initial=1))[::-1]


def _offsets(shape: Shape, strides: Sequence[int]) -> Iterator[int]:
    """Lazily yield ``sum(x[a] * strides[a])`` for every index x of ``shape``, row-major.

    A stride of 0 ignores its axis; strides +1 and -1 on axes j and k give
    offset 0 exactly where ``x[j] == x[k]``.
    """
    return map(sum, product(*([i * s for i in range(dim)] for dim, s in zip(shape, strides))))


def _product(cells: Iterable[PolyScalar]) -> PolyScalar:
    """Multiply the cells in order, returning zero as soon as one of them is zero."""
    value = _ONE
    for cell in cells:
        if cell.is_zero():
            return _ZERO
        value = cell if value is _ONE else value * cell
    return value


class Tensor:
    """Immutable dense tensor over PolyScalar cells."""

    __slots__ = ("shape", "cells", "_strides")

    def __init__(self, shape: Iterable[int], cells: Iterable[PolyScalar | int | Fraction | str]):
        shape = tuple(shape)
        if not shape:
            raise ValueError("tensors have order >= 1")
        if any(dim < 1 for dim in shape):
            raise ValueError(f"all dimensions must be >= 1, got {shape}")
        cells = tuple(as_scalar(c) for c in cells)
        expected = math.prod(shape)
        if len(cells) != expected:
            raise ValueError(f"shape {shape} needs {expected} cells, got {len(cells)}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_strides", _strides(shape))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        return len(self.cells)

    @classmethod
    def from_function(cls, shape: Iterable[int],
                      fn: Callable[[tuple[int, ...]], PolyScalar | int | Fraction | str]) -> "Tensor":
        shape = tuple(shape)
        return cls(shape, [fn(idx) for idx in product(*(range(dim) for dim in shape))])

    @classmethod
    def vector(cls, values: Iterable[PolyScalar | int | Fraction | str]) -> "Tensor":
        values = list(values)
        return cls((len(values),), values)

    @classmethod
    def from_nested(cls, nested) -> "Tensor":
        """Build from nested sequences, e.g. ``[[1, 2], [3, 4]]`` for a matrix."""
        shape: list[int] = []
        level = nested
        while isinstance(level, (list, tuple)):
            shape.append(len(level))
            level = level[0]

        def flatten(node, depth: int):
            if depth == len(shape):
                yield node
                return
            if not isinstance(node, (list, tuple)) or len(node) != shape[depth]:
                raise ValueError("ragged nested structure")
            for child in node:
                yield from flatten(child, depth + 1)

        return cls(tuple(shape), list(flatten(nested, 0)))

    def indices(self) -> Iterator[tuple[int, ...]]:
        """All multi-indices in row-major order (last index fastest)."""
        return product(*(range(dim) for dim in self.shape))

    def offset(self, idx: tuple[int, ...]) -> int:
        if len(idx) != len(self.shape):
            raise IndexError(f"index {idx} has {len(idx)} axes, tensor has {len(self.shape)}")
        flat = 0
        for axis, (i, dim) in enumerate(zip(idx, self.shape)):
            if not 0 <= i < dim:
                raise IndexError(f"index {idx} out of range on axis {axis} (dim {dim})")
            flat += i * self._strides[axis]
        return flat

    def __getitem__(self, idx: tuple[int, ...]) -> PolyScalar:
        return self.cells[self.offset(idx)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.shape, self.cells))

    def __repr__(self) -> str:
        dims = " x ".join(str(d) for d in self.shape)
        return f"<Tensor {dims}, {sum(1 for c in self.cells if not c.is_zero())} nonzero cells>"


def bmp(factors: Sequence[Tensor]) -> Tensor:
    """Generalized Bhattacharya-Mesner product of d tensors of order d.

    For factors ``(T_0, ..., T_{d-1})`` the contracted axis of ``T_k`` is
    ``(k + 1) % d``: the first factor is contracted in axis 1, the second in
    axis 2, ..., and the last factor in axis 0.  The result has the shape
    assembled from the factors' non-contracted axes, and

        result[i] = sum over h of product over k of T_k[i with axis (k+1)%d set to h]

    At d = 2 this is exactly the matrix product ``factors[0] @ factors[1]``.
    A single-factor product is defined as the identity.

    Raises:
        OrderMismatch: some factor's order differs from the number of factors.
        ShapeMismatch: the contracted or shared dimensions are inconsistent.
    """
    factors = list(factors)
    d = len(factors)
    if d == 0:
        raise OrderMismatch("the product needs at least one factor")
    for k, t in enumerate(factors):
        if t.order != d:
            raise OrderMismatch(f"factor {k} has order {t.order}, expected {d}")
    if d == 1:
        return factors[0]

    contracted = [(k + 1) % d for k in range(d)]
    l = factors[0].shape[contracted[0]]
    for k, t in enumerate(factors):
        if t.shape[contracted[k]] != l:
            raise ShapeMismatch(
                f"factor {k} has dimension {t.shape[contracted[k]]} in its contracted "
                f"axis {contracted[k]}, expected {l}",
                arg=k, slot=contracted[k], expected=l, got=t.shape[contracted[k]])

    result_shape = [0] * d
    for axis in range(d):
        owner = (axis - 1) % d  # the single factor contracted in this axis
        others = [k for k in range(d) if k != owner]
        expected = factors[others[0]].shape[axis]
        for k in others[1:]:
            if factors[k].shape[axis] != expected:
                raise ShapeMismatch(
                    f"factor {k} has dimension {factors[k].shape[axis]} in axis {axis}, "
                    f"expected {expected}",
                    arg=k, slot=axis, expected=expected, got=factors[k].shape[axis])
        result_shape[axis] = expected

    # Per factor: offsets with the contracted coordinate at 0, and its stride.
    bases = [_offsets(result_shape, [0 if axis == contracted[k] else s
                                     for axis, s in enumerate(t._strides)])
             for k, t in enumerate(factors)]
    steps = [t._strides[contracted[k]] for k, t in enumerate(factors)]
    factor_cells = [t.cells for t in factors]
    cells = [sum((_product(c[b + h * s] for c, b, s in zip(factor_cells, base, steps))
                  for h in range(l)), _ZERO)
             for base in zip(*bases)]
    return Tensor(tuple(result_shape), cells)


def summand_ordered_bmp(factors: Sequence[Tensor]) -> Tensor:
    """Product with factors listed so that factor m is contracted in axis m.

    ``summand_ordered_bmp([U_0, ..., U_{d-1}])`` equals
    ``bmp([U_1, ..., U_{d-1}, U_0])``; the two listings differ by one cyclic
    rotation.  This is the natural order for reading off the summands

        result[i] = sum over h of U_0[h, i_1, ...] * U_1[i_0, h, ...] * ...

    and the one the network layer uses, with the sink tensor first.
    """
    factors = list(factors)
    return bmp(factors[1:] + factors[:1])


def identitary(order: int, dim: int, j: int, k: int) -> Tensor:
    """Cubical 0/1 tensor with 1 exactly where indices at axes j and k agree.

    These play the role of the identity matrix for the product: the
    summand-ordered product of a tensor A at position j with identitaries
    ``I(m, j)`` before it and ``I(j, m)`` after it returns A unchanged.
    At order 2 the only identitary is the identity matrix.

    Raises:
        SlotOutOfRange: unless 0 <= j < k < order.
    """
    if not (0 <= j < k < order):
        raise SlotOutOfRange(f"need 0 <= j < k < order, got j={j}, k={k}, order={order}")
    strides = [0] * order
    strides[j], strides[k] = 1, -1  # offset 0 exactly where idx[j] == idx[k]
    shape = (dim,) * order
    return Tensor(shape, [_ONE if tie == 0 else _ZERO for tie in _offsets(shape, strides)])


def sigma_transpose(t: Tensor, sigma: Permutation) -> Tensor:
    """Relabel axes by a permutation: ``result[x] = t[x[sigma(0)], ..., x[sigma(d-1)]]``.

    The result's dimension in axis k is ``t.shape[sigma.inverse()(k)]``.

    Raises:
        OrderMismatch: the permutation length differs from the tensor order.
    """
    if len(sigma) != t.order:
        raise OrderMismatch(f"permutation of length {len(sigma)} applied to order-{t.order} tensor")
    inverse = sigma.inverse()
    shape = tuple(t.shape[inverse(k)] for k in range(t.order))
    strides = [t._strides[inverse(k)] for k in range(t.order)]
    return Tensor(shape, map(t.cells.__getitem__, _offsets(shape, strides)))


def blow(t: Tensor) -> Tensor:
    """Order-raising expansion tying a new last axis to axis 0.

    The result has order d+1 with the new axis of dimension ``t.shape[0]``;
    cells with unequal first and last coordinates are zero, the rest copy the
    input.  The blow of a vector is the diagonal matrix carrying it.
    """
    shape = t.shape + (t.shape[0],)
    flats = _offsets(shape, t._strides + (0,))
    gaps = _offsets(shape, (1,) + (0,) * (t.order - 1) + (-1,))  # 0 where idx[0] == idx[-1]
    return Tensor(shape, [t.cells[flat] if gap == 0 else _ZERO for flat, gap in zip(flats, gaps)])


def forget(t: Tensor, positions: Iterable[int], new_dims: int | Sequence[int]) -> Tensor:
    """Order-raising expansion inserting axes the tensor does not depend on.

    ``positions`` are 0-based axis numbers *of the result*; the cell at a
    result index is the input cell at the index with those positions erased.
    ``new_dims`` gives the dimensions of the inserted axes, either one int
    for all of them or a sequence aligned with the sorted positions.
    With no positions the input is returned unchanged.

    Raises:
        PositionOutOfRange: a position is negative, repeated, or >= the
            result order.
        CardinalityMismatch: ``new_dims`` is a sequence whose length differs
            from the number of positions.
    """
    positions = sorted(positions)
    if not positions:
        return t
    result_order = t.order + len(positions)
    if len(set(positions)) != len(positions):
        raise PositionOutOfRange(f"positions must be distinct, got {positions}")
    if positions[0] < 0 or positions[-1] >= result_order:
        raise PositionOutOfRange(
            f"positions {positions} not within 0..{result_order - 1}")
    if isinstance(new_dims, int):
        inserted_dims = [new_dims] * len(positions)
    else:
        inserted_dims = list(new_dims)
        if len(inserted_dims) != len(positions):
            raise CardinalityMismatch(
                f"{len(positions)} positions but {len(inserted_dims)} inserted dimensions")
    if any(dim < 1 for dim in inserted_dims):
        raise ValueError(f"inserted dimensions must be >= 1, got {inserted_dims}")

    inserted = dict(zip(positions, inserted_dims))
    source = iter(zip(t.shape, t._strides))
    shape, strides = zip(*((inserted[axis], 0) if axis in inserted else next(source)
                           for axis in range(result_order)))
    return Tensor(shape, map(t.cells.__getitem__, _offsets(shape, strides)))


def outer_product(vectors: Sequence[Tensor]) -> Tensor:
    """Rank-1 tensor from order-1 factors: ``result[x] = prod_k v_k[x_k]``.

    Raises:
        OrderMismatch: some factor is not a vector.
    """
    vectors = list(vectors)
    if not vectors:
        raise OrderMismatch("outer product needs at least one vector")
    for k, v in enumerate(vectors):
        if v.order != 1:
            raise OrderMismatch(f"argument {k} has order {v.order}, expected 1")
    shape = tuple(v.shape[0] for v in vectors)
    return Tensor(shape, map(_product, product(*(v.cells for v in vectors))))
