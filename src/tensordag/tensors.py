"""Tensors of arbitrary order with the n-ary Bhattacharya-Mesner product.

A :class:`Tensor` is an order-d array of :class:`~tensordag.scalars.PolyScalar`
cells, held as a view: base cells, one stride per axis and a list of tied
axis pairs.  The cell at index x is ``base[sum(x[a] * strides[a])]`` where
every tied pair of coordinates agrees, and zero elsewhere; stride 0 marks an
axis the tensor ignores.  A dense tensor has row-major strides (last index
fastest) and no ties.  Indices and axis numbers are 0-based throughout the
Python API; the text formats in :mod:`tensordag.netio` present them 1-based.

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
:func:`forget`, :func:`blow`, :func:`sigma_transpose` and :func:`identitary`
are index maps: they return views over their input's base cells and copy no
cell, and a view builds its row-major ``cells`` only when first asked.
:func:`bmp` is one sweep over the result axes, level by level, that reads its
factors' strides and reads a tie only where it fixes the contracted index h, so
tied-off terms are never visited.  Level j is one row-major list of
products, one per index prefix of length j+1; each factor that does not read a
free h is multiplied into a level at the deepest result axis it reads, so a
product that many cells share is made once, and a zero prefix is never
multiplied.  A factor that reads a free h gives each cell its fiber along h,
sliced from the factor's base only when the cell is contracted.  ``_contract``
is the one sum of factor products over h: the sweep ends every nonzero cell
with it, and so does the network layer's lazy product cell.  The direct total
route lives in :mod:`tensordag.networks` and shares no index arithmetic with
the sweep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, chain, product, repeat
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence

from ._record import Record
from .scalars import _ONE, _ZERO, PolyScalar, TensordagInputError, count_text, parse_expr

#: Tensor shape: one positive dimension per axis.
Shape = tuple[int, ...]

#: Materializing a tensor with more cells than this is refused by default;
#: an order-d network costs n**d cells per node tensor.
DEFAULT_CELL_CAP = 2 ** 24


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
    if (scalar := PolyScalar._coerce(value)) is not None:
        return scalar
    if isinstance(value, str):
        return parse_expr(value)
    raise TypeError(f"cannot use {type(value).__name__} as a tensor cell")


class Permutation(Record):
    """A bijection on axis numbers {0, ..., d-1}, given by its images."""

    __slots__ = ("images",)
    _tuples = ("images",)
    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        super().__init__(images)
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


def _checked(shape: Iterable[int]) -> Shape:
    """``shape`` as a tuple, refused unless it has an axis and no dimension below 1."""
    shape = tuple(shape)
    if not shape:
        raise ValueError("tensors have order >= 1")
    if any(dim < 1 for dim in shape):
        raise ValueError(f"all dimensions must be >= 1, got {shape}")
    return shape


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


def _contract(fibers: Iterable[Sequence[PolyScalar]]) -> PolyScalar:
    """One product cell: the sum over h of the product of every fiber's cell h, where a
    fiber is the run of one factor's cells along its contracted axis through that cell.

    Each term multiplies its cells left to right, as in :func:`_product`, and stops
    with zero at its first zero cell; its last cell is tested first, so a term whose
    last cell is zero makes no multiply.
    """
    return sum((_product(cells) for cells in zip(*fibers) if not cells[-1].is_zero()), _ZERO)


class Tensor:
    """Immutable tensor over PolyScalar cells, held as a view of base cells.

    The cell at index x is ``base[sum(x[a] * strides[a])]`` where every tied
    pair of axes ``(j, k)`` has ``x[j] == x[k]``, and zero elsewhere.  A stride
    of 0 marks an axis the tensor ignores.  ``Tensor(shape, cells)`` is dense:
    row-major strides and no ties.
    """

    __slots__ = ("shape", "_base", "_strides", "_ties", "_cells")

    def __init__(self, shape: Iterable[int], cells: Iterable[PolyScalar | int | Fraction | str]):
        shape = _checked(shape)
        cells = tuple(map(as_scalar, cells))
        expected = math.prod(shape)
        if len(cells) != expected:
            raise ValueError(f"shape {shape} needs {expected} cells, got {len(cells)}")
        self._fill(shape, cells, None, ())

    @classmethod
    def _view(cls, shape: Shape, base: Iterable[PolyScalar], strides: Sequence[int] | None = None,
              ties: Iterable[tuple[int, int]] = ()) -> "Tensor":
        """A tensor over ``base`` taken as it is, unchecked: dense and row-major when
        ``strides`` is None, else the view described in the class docstring."""
        t = object.__new__(cls)
        t._fill(tuple(shape), tuple(base), strides, tuple(ties))
        return t

    def _fill(self, shape: Shape, base: tuple[PolyScalar, ...], strides: Sequence[int] | None,
              ties: tuple[tuple[int, int], ...]) -> None:
        dense = strides is None
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_base", base)
        object.__setattr__(self, "_strides", _strides(shape) if dense else tuple(strides))
        object.__setattr__(self, "_ties", ties)
        object.__setattr__(self, "_cells", base if dense else None)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __delattr__(self, name):
        raise AttributeError("Tensor is immutable")

    def __reduce__(self):
        return Tensor._view, (self.shape, self._base, self._strides, self._ties)

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        return math.prod(self.shape)

    @property
    def cells(self) -> tuple[PolyScalar, ...]:
        """Every cell in row-major order (last index fastest), built on first use."""
        cells = self._cells
        if cells is None:
            found = map(self._base.__getitem__, _offsets(self.shape, self._strides))
            if self._ties:
                gaps = zip(*(_offsets(self.shape, [(a == j) - (a == k) for a in range(self.order)])
                             for j, k in self._ties))
                cells = tuple(_ZERO if any(gap) else cell for cell, gap in zip(found, gaps))
            else:
                cells = tuple(found)
            object.__setattr__(self, "_cells", cells)
        return cells

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
        """Build from nested sequences, e.g. ``[[1, 2], [3, 4]]`` for a matrix, read
        level by level: each level's sequences must all be as long as its first."""
        shape: list[int] = []
        level = [nested]
        while level and isinstance(level[0], (list, tuple)):
            shape.append(len(level[0]))
            if any(not isinstance(node, (list, tuple)) or len(node) != shape[-1] for node in level):
                raise ValueError("ragged nested structure")
            level = [child for node in level for child in node]
        return cls(shape, level)

    def indices(self) -> Iterator[tuple[int, ...]]:
        """All multi-indices in row-major order (last index fastest)."""
        return product(*(range(dim) for dim in self.shape))

    def __getitem__(self, idx: tuple[int, ...]) -> PolyScalar:
        """The cell at ``idx``, bounds-checked."""
        if len(idx) != len(self.shape):
            raise IndexError(f"index {idx} has {len(idx)} axes, tensor has {len(self.shape)}")
        flat = 0
        for axis, (i, dim, stride) in enumerate(zip(idx, self.shape, self._strides)):
            if not 0 <= i < dim:
                raise IndexError(f"index {idx} out of range on axis {axis} (dim {dim})")
            flat += i * stride
        if self._ties and any(idx[j] != idx[k] for j, k in self._ties):
            return _ZERO
        return self._base[flat]

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
        TensordagInputError: the result would have more cells than both
            ``DEFAULT_CELL_CAP`` and its largest factor; checked before the sweep.
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

    result_shape = tuple(result_shape)
    cells, cap = math.prod(result_shape), max(DEFAULT_CELL_CAP, *(t.ncells for t in factors))
    if cells > cap:
        raise TensordagInputError(
            f"the product has {count_text(cells)} cells, above the cap of {cap}")
    return Tensor._view(result_shape, _walk(factors, contracted, result_shape, l))


def _walk(factors: list[Tensor], contracted: list[int], shape: Shape, l: int) -> list[PolyScalar]:
    """The product's cells in row-major order, from one sweep over the result axes
    that reads the factors' strides.

    A tie between a factor's contracted axis and result axis a zeroes every term
    but h = x[a].  If any factor has such a tie, h is fixed to the smallest such a:
    every factor's stride in its contracted axis moves to axis a, and a cell sums
    one term.  Otherwise h is free and a cell sums l terms.  A factor with any other
    tie is read through its :attr:`Tensor.cells`, zero wherever the tie zeroes it,
    and so at every other h if that tie fixed h; the sweep reads no other tie.

    Level j is one row-major list of values, one per index prefix ``x[:j+1]``: the
    product of the factors read down to axis j.  Each factor joins at the deepest
    result axis its strides read.  A factor that does not read h is multiplied into
    every prefix by one comprehension over the offsets its strides give, so a
    product that many cells share is made once; its first cell is taken as it is
    and a zero cell zeroes the prefix, as :func:`_product` does.  A zero prefix
    stays ``_ZERO`` and is never multiplied again.  A factor that reads a free h
    keeps only its strides: each cell's fiber of its l cells along h is sliced from
    its start offset when the cell is contracted.  Each nonzero cell of the deepest
    level read ends with :func:`_contract` over the product, once per term, and the
    fibers, and the axes below that level repeat the cell.
    """
    d = len(shape)
    fixed = min((b if a == c else a for t, c in zip(factors, contracted)
                 for a, b in t._ties if c in (a, b)), default=None)
    joins: list[list] = [[] for _ in range(d)]
    for t, c in zip(factors, contracted):
        if any({a, b} != {c, fixed} for a, b in t._ties):
            t = Tensor._view(t.shape, t.cells)
        strides = list(t._strides)
        step, strides[c] = strides[c], 0
        if fixed is not None:
            strides[fixed] += step
            step = 0
        depth = max((a for a, s in enumerate(strides) if s), default=0)
        joins[depth].append((t._base, strides, step))
    last = max(j for j, level in enumerate(joins) if level)

    values: Iterable[PolyScalar] = (_ONE,)  # the empty prefix
    for j, dim in enumerate(shape[:last + 1]):
        top = shape[:j + 1]
        values = chain.from_iterable(map(repeat, values, repeat(dim)))
        for base, strides, step in joins[j]:
            if not step:
                cells = map(base.__getitem__, _offsets(top, strides))
                values = [_ZERO if v is _ZERO or c.is_zero() else c if v is _ONE else v * c
                          for v, c in zip(values, cells)]

    free = [(base, strides, step) for level in joins for base, strides, step in level if step]
    if free:
        def terms(value: PolyScalar, starts: tuple[int, ...]) -> tuple[Sequence[PolyScalar], ...]:
            fibers = tuple(base[o:o + l * step:step] for (base, _, step), o in zip(free, starts))
            # A product still one would only lengthen every term: the fibers alone
            # make the same multiplies.
            return fibers if value is _ONE else ((value,) * l, *fibers)

        starts = zip(*(_offsets(shape[:last + 1], strides) for _, strides, _ in free))
        cells = [v if v is _ZERO else _contract(terms(v, s)) for v, s in zip(values, starts)]
    else:
        width = l if fixed is None else 1  # the terms a cell sums
        cells = [v if v is _ZERO else _contract(((v,) * width,)) for v in values]
    tail = math.prod(shape[last + 1:])
    return cells if tail == 1 else list(chain.from_iterable(map(repeat, cells, repeat(tail))))


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
        ValueError: ``dim`` is below 1.
    """
    if not (0 <= j < k < order):
        raise SlotOutOfRange(f"need 0 <= j < k < order, got j={j}, k={k}, order={order}")
    return Tensor._view(_checked((dim,) * order), (_ONE,), (0,) * order, [(j, k)])


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
    return Tensor._view(shape, t._base, strides, [(sigma(j), sigma(k)) for j, k in t._ties])


def blow(t: Tensor) -> Tensor:
    """Order-raising expansion tying a new last axis to axis 0.

    The result has order d+1 with the new axis of dimension ``t.shape[0]``;
    cells with unequal first and last coordinates are zero, the rest copy the
    input.  The blow of a vector is the diagonal matrix carrying it.  The
    result is a view over the input's base cells with one more tie.
    """
    return Tensor._view(t.shape + (t.shape[0],), t._base, t._strides + (0,),
                        t._ties + ((0, t.order),))


def forget(t: Tensor, positions: Iterable[int], new_dims: int | Sequence[int]) -> Tensor:
    """Order-raising expansion inserting axes the tensor does not depend on.

    ``positions`` are 0-based axis numbers *of the result*; the cell at a
    result index is the input cell at the index with those positions erased.
    ``new_dims`` gives the dimensions of the inserted axes, either one int
    for all of them or a sequence aligned with the sorted positions.
    With no positions the input is returned unchanged.  The result is a view
    over the input's base cells with stride 0 on the inserted axes.

    Raises:
        PositionOutOfRange: a position is negative, repeated, or >= the
            result order.
        CardinalityMismatch: ``new_dims`` is a sequence whose length differs
            from the number of positions.
        ValueError: an inserted dimension is below 1.
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
    inserted_dims = [new_dims] * len(positions) if isinstance(new_dims, int) else list(new_dims)
    if len(inserted_dims) != len(positions):
        raise CardinalityMismatch(
            f"{len(positions)} positions but {len(inserted_dims)} inserted dimensions")

    inserted = dict(zip(positions, inserted_dims))
    source = iter(zip(t.shape, t._strides))
    shape, strides = zip(*((inserted[axis], 0) if axis in inserted else next(source)
                           for axis in range(result_order)))
    kept = [axis for axis in range(result_order) if axis not in inserted]
    return Tensor._view(_checked(shape), t._base, strides, [(kept[j], kept[k]) for j, k in t._ties])


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
    return Tensor._view(shape, map(_product, product(*(v.cells for v in vectors))))
