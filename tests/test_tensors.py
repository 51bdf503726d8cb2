"""Tensor construction, the d-ary product, identitaries, transposes, blow/forget."""

import copy
import math
import pickle
import random
from itertools import combinations, permutations, product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tensordag import (CardinalityMismatch, OrderMismatch, Permutation, PolyScalar,
                       PositionOutOfRange, ShapeMismatch, SlotOutOfRange, Tensor,
                       TensordagInputError, blow, bmp, forget, identitary, outer_product,
                       parse_expr, sigma_transpose, summand_ordered_bmp, tensors)
from tensordag.scalars import _ONE, _ZERO
from tensordag.tensors import _contract
from golden import (ALPHA, BETA, CONFIRMED_PRODUCT_CELLS, COUNTING_CUBE_PRODUCT,
                    REJECTED_PRODUCT_CELLS, counting_cube, random_int_tensor)


def brute_force_triple_product(f0, f1, f2):
    """Independent reference for the 3-ary product: bare loops, no strides.

    Contraction axes: f0 in axis 1, f1 in axis 2, f2 in axis 0, so

        cell[i, j, k] = sum over h of f0[i, h, k] * f1[i, j, h] * f2[h, j, k]
    """
    shape = (f0.shape[0], f1.shape[1], f2.shape[2])
    l = f0.shape[1]
    cells = {}
    for i, j, k in product(*(range(dim) for dim in shape)):
        total = PolyScalar.zero()
        for h in range(l):
            total = total + f0[(i, h, k)] * f1[(i, j, h)] * f2[(h, j, k)]
        cells[(i, j, k)] = total
    return cells


def naive_matmul(a, b):
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = []
    for i in range(rows):
        for j in range(cols):
            acc = PolyScalar.zero()
            for k in range(inner):
                acc = acc + a[(i, k)] * b[(k, j)]
            out.append(acc)
    return Tensor((rows, cols), out)


class TestTensorBasics:
    def test_row_major_layout(self):
        t = Tensor((2, 3), [1, 2, 3, 4, 5, 6])
        assert t[(0, 0)] == 1 and t[(0, 2)] == 3 and t[(1, 0)] == 4
        assert list(t.indices())[:4] == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_from_nested(self):
        t = Tensor.from_nested([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])
        assert t.shape == (2, 2, 2)
        assert t[(1, 0, 1)] == 6

    @pytest.mark.parametrize("nested", [[], [[]], [[], []]])
    def test_from_nested_refuses_an_empty_level(self, nested):
        with pytest.raises(ValueError, match="all dimensions must be >= 1"):
            Tensor.from_nested(nested)

    @pytest.mark.parametrize("nested", [[[1, 2], [3]], [[1, 2], 3], ((1, 2), ()),
                                        [[[1], [2]], [[3], 4]]])
    def test_from_nested_refuses_ragged_input(self, nested):
        with pytest.raises(ValueError, match="ragged nested structure"):
            Tensor.from_nested(nested)

    def test_cells_accept_strings(self):
        t = Tensor.vector(["alpha", "2*beta"])
        assert t[(0,)] == ALPHA and t[(1,)] == 2 * BETA

    def test_cell_count_must_match_shape(self):
        with pytest.raises(ValueError):
            Tensor((2, 2), [1, 2, 3])

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            Tensor((), [1])

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            Tensor((2, 0), [])

    def test_index_bounds(self):
        t = Tensor((2, 2), [1, 2, 3, 4])
        with pytest.raises(IndexError):
            t[(2, 0)]
        with pytest.raises(IndexError):
            t[(0, 0, 0)]

    def test_equality_is_exact(self):
        assert Tensor.vector([ALPHA]) == Tensor.vector([parse_expr("alpha")])
        assert Tensor.vector([ALPHA]) != Tensor.vector([BETA])

    def test_immutability(self):
        t = Tensor((2,), [1, 2])
        with pytest.raises(AttributeError):
            t.shape = (3,)

    #: A dense tensor and a view with a forgotten axis and a blown tie.
    COPIED = {"dense": lambda: Tensor((2, 3), [ALPHA, 0, 2, BETA, "alpha*beta", 1]),
              "view": lambda: forget(blow(Tensor((2, 3), [ALPHA, 0, 2, BETA, 1, 3])), [1], 2)}

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                            lambda t: pickle.loads(pickle.dumps(t))],
                             ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("kind", sorted(COPIED))
    def test_a_copy_is_the_same_view(self, kind, round_trip):
        t = self.COPIED[kind]()
        copied = round_trip(t)
        assert copied._cells is None
        assert (copied._strides, copied._ties) == (t._strides, t._ties)
        assert copied == t

    @pytest.mark.parametrize("name", ["shape", "_base", "_strides", "_ties", "_cells"])
    @pytest.mark.parametrize("kind", sorted(COPIED))
    def test_no_field_can_be_deleted(self, kind, name):
        t = self.COPIED[kind]()
        with pytest.raises(AttributeError, match="Tensor is immutable"):
            delattr(t, name)
        assert t == self.COPIED[kind]()


class TestPermutation:
    def test_must_be_a_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))

    def test_inverse_composes_to_identity(self):
        sigma = Permutation((2, 0, 1))
        inv = sigma.inverse()
        assert all(inv(sigma(k)) == k for k in range(3))
        assert Permutation.identity(3).images == (0, 1, 2)

    def test_involution_detection(self):
        assert Permutation((1, 0, 2)).is_involution()
        assert not Permutation((1, 2, 0)).is_involution()

    def test_images_given_as_a_list_are_stored_as_a_tuple(self):
        sigma = Permutation([1, 0])
        assert sigma.images == (1, 0)
        assert sigma == Permutation((1, 0)) and hash(sigma) == hash(Permutation((1, 0)))


class TestProduct:
    def test_two_by_two_matrix_product(self):
        a = Tensor.from_nested([[1, 2], [3, 4]])
        b = Tensor.from_nested([[5, 6], [7, 8]])
        assert bmp([a, b]) == Tensor.from_nested([[19, 22], [43, 50]])

    def test_rectangular_matrix_product(self):
        rng = random.Random(11)
        for _ in range(20):
            rows, inner, cols = (rng.randint(1, 4) for _ in range(3))
            a = random_int_tensor(rng, (rows, inner))
            b = random_int_tensor(rng, (inner, cols))
            assert bmp([a, b]) == naive_matmul(a, b)

    def test_matrix_degeneration_on_random_square_pairs(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_int_tensor(rng, (n, n))
            b = random_int_tensor(rng, (n, n))
            assert bmp([a, b]) == naive_matmul(a, b)

    def test_counting_cubes_match_brute_force(self):
        factors = [counting_cube(9), counting_cube(17), counting_cube(1)]
        result = bmp(factors)
        oracle = brute_force_triple_product(*factors)
        for idx, value in oracle.items():
            assert result[idx] == value

    def test_counting_cubes_confirmed_cells(self):
        result = bmp([counting_cube(9), counting_cube(17), counting_cube(1)])
        for idx, value in CONFIRMED_PRODUCT_CELLS.items():
            assert result[idx] == value

    def test_counting_cubes_full_table(self):
        result = bmp([counting_cube(9), counting_cube(17), counting_cube(1)])
        for idx, value in COUNTING_CUBE_PRODUCT.items():
            assert result[idx] == value

    def test_rejected_renderings_are_not_reproduced(self):
        # These four values circulate for the same product but contradict the
        # definition on every cyclic slot assignment; make sure no code change
        # quietly starts producing them.
        result = bmp([counting_cube(9), counting_cube(17), counting_cube(1)])
        for idx, wrong in REJECTED_PRODUCT_CELLS.items():
            assert result[idx] != wrong

    def test_single_factor_is_identity(self):
        v = Tensor.vector([ALPHA, BETA])
        assert bmp([v]) == v
        assert summand_ordered_bmp([v]) == v

    def test_summand_order_is_a_rotation(self):
        rng = random.Random(5)
        us = [random_int_tensor(rng, (2, 2, 2)) for _ in range(3)]
        assert summand_ordered_bmp(us) == bmp([us[1], us[2], us[0]])

    def test_empty_argument_list_rejected(self):
        with pytest.raises(OrderMismatch):
            bmp([])

    def test_wrong_order_rejected(self):
        with pytest.raises(OrderMismatch):
            bmp([Tensor.vector([1, 2]), Tensor.from_nested([[1, 2], [3, 4]])])

    def test_contracted_dimension_mismatch(self):
        a = Tensor.from_nested([[1, 2, 3], [4, 5, 6]])  # 2 x 3
        b = Tensor.from_nested([[1, 2], [3, 4]])        # 2 x 2
        with pytest.raises(ShapeMismatch) as info:
            bmp([a, b])
        assert info.value.arg is not None

    def test_shared_dimension_mismatch(self):
        rng = random.Random(1)
        a = random_int_tensor(rng, (2, 2, 2))
        b = random_int_tensor(rng, (2, 2, 2))
        c = random_int_tensor(rng, (2, 2, 3))  # axis 2 disagrees where not contracted
        with pytest.raises(ShapeMismatch):
            bmp([a, c, b])

    def test_shared_dimension_mismatch_names_the_factor_and_axis(self):
        # Every contracted axis has dimension 2, but factors 0 and 1 disagree on axis 0,
        # which neither of them contracts.
        rng = random.Random(3)
        a, b, c = (random_int_tensor(rng, shape) for shape in ((2, 2, 2), (3, 2, 2), (2, 2, 2)))
        with pytest.raises(ShapeMismatch) as info:
            bmp([a, b, c])
        error = info.value
        assert (error.arg, error.slot, error.expected, error.got) == (1, 0, 2, 3)

    def test_a_product_above_the_cell_cap_is_refused_before_the_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the walk ran on a product above the cap")

        monkeypatch.setattr(tensors, "_walk", refuse)
        one = Tensor.vector([1])
        column, row = forget(one, [0], 65536), forget(one, [1], 65536)  # 65536 x 1, 1 x 65536
        with pytest.raises(TensordagInputError, match=f"4294967296 cells, above the cap of {2 ** 24}"):
            bmp([column, row])

    def test_the_cap_is_the_default_or_the_largest_factor(self, monkeypatch):
        monkeypatch.setattr(tensors, "DEFAULT_CELL_CAP", 4)
        rng = random.Random(5)
        square = random_int_tensor(rng, (2, 2))
        assert bmp([square, square]) == naive_matmul(square, square)  # 4 cells, at the default
        cube = random_int_tensor(rng, (3, 3, 3))
        assert bmp([cube] * 3).ncells == 27  # as many cells as the largest factor
        column, row = random_int_tensor(rng, (3, 1)), random_int_tensor(rng, (1, 3))
        with pytest.raises(TensordagInputError, match="9 cells, above the cap of 4"):
            bmp([column, row])
        assert bmp([row, column]).shape == (1, 1)

    def test_multilinearity_in_each_slot(self):
        rng = random.Random(17)
        for d in (2, 3):
            base = [random_int_tensor(rng, (2,) * d) for _ in range(d)]
            for slot in range(d):
                x = random_int_tensor(rng, (2,) * d)
                y = random_int_tensor(rng, (2,) * d)
                combined = Tensor(x.shape, [3 * a + b for a, b in zip(x.cells, y.cells)])
                with_x = bmp([combined if k == slot else t for k, t in enumerate(base)])
                fx = bmp([x if k == slot else t for k, t in enumerate(base)])
                fy = bmp([y if k == slot else t for k, t in enumerate(base)])
                expected = Tensor(fx.shape, [3 * a + b for a, b in zip(fx.cells, fy.cells)])
                assert with_x == expected

    def test_pinned_noncommutativity_counterexample(self):
        a = Tensor((2, 2, 2), [1, 1, 0, 1, 2, 1, 1, 1])
        b = Tensor((2, 2, 2), [1, 1, 2, 0, 2, 0, 1, 0])
        c = Tensor((2, 2, 2), [0, 2, 1, 2, 2, 2, 0, 1])
        left = bmp([a, b, c])
        right = bmp([b, a, c])
        assert left.cells[0] == 0 and right.cells[0] == 4
        assert left != right

    def test_pinned_nonassociativity_counterexample(self):
        a = Tensor((2, 2, 2), [1, 1, 0, 1, 2, 1, 1, 1])
        b = Tensor((2, 2, 2), [1, 1, 2, 0, 2, 0, 1, 0])
        c = Tensor((2, 2, 2), [0, 2, 1, 2, 2, 2, 0, 1])
        d = Tensor((2, 2, 2), [0, 2, 0, 2, 1, 1, 2, 0])
        e = Tensor((2, 2, 2), [1, 1, 1, 2, 2, 0, 2, 1])
        nested_left = bmp([bmp([a, b, c]), d, e])
        nested_right = bmp([a, b, bmp([c, d, e])])
        assert nested_left.cells[0] == 8 and nested_right.cells[0] == 4
        assert nested_left != nested_right


class TestIdentitary:
    def test_order_two_is_the_identity_matrix(self):
        assert identitary(2, 2, 0, 1) == Tensor.from_nested([[1, 0], [0, 1]])

    def test_order_three_pattern(self):
        t = identitary(3, 2, 0, 2)
        ones = {idx for idx in t.indices() if t[idx] == 1}
        assert ones == {(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)}

    def test_number_of_ones_by_enumeration(self):
        t = identitary(3, 3, 1, 2)
        expected = sum(1 for idx in product(range(3), repeat=3) if idx[1] == idx[2])
        assert expected == 9
        assert sum(1 for c in t.cells if c == 1) == expected

    @pytest.mark.parametrize("order, dim, j, k", [(2, 0, 0, 1), (3, -1, 0, 2)])
    def test_dimension_below_one_rejected(self, order, dim, j, k):
        with pytest.raises(ValueError, match="all dimensions must be >= 1"):
            identitary(order, dim, j, k)

    def test_slot_validation(self):
        with pytest.raises(SlotOutOfRange):
            identitary(3, 2, 2, 1)
        with pytest.raises(SlotOutOfRange):
            identitary(3, 2, 0, 3)
        with pytest.raises(SlotOutOfRange):
            identitary(2, 2, 1, 1)

    def test_sandwich_returns_the_tensor_unchanged(self):
        rng = random.Random(31)
        for d in (2, 3, 4):
            for n in (2, 3):
                for j in range(d):
                    a = random_int_tensor(rng, (n,) * d)
                    factors = [a if m == j else identitary(d, n, min(m, j), max(m, j))
                               for m in range(d)]
                    assert summand_ordered_bmp(factors) == a


class TestSigmaTranspose:
    def test_identity_permutation(self):
        rng = random.Random(3)
        t = random_int_tensor(rng, (2, 3, 2))
        assert sigma_transpose(t, Permutation.identity(3)) == t

    def test_matrix_transpose(self):
        t = Tensor.from_nested([[1, 2], [3, 4]])
        assert sigma_transpose(t, Permutation((1, 0))) == Tensor.from_nested([[1, 3], [2, 4]])

    def test_index_relabeling(self):
        cube = counting_cube(1)
        swapped = sigma_transpose(cube, Permutation((1, 0, 2)))
        # the cell at (1,0,0) picks up the source cell at (0,1,0)
        assert swapped[(1, 0, 0)] == cube[(0, 1, 0)] == 2
        for idx in swapped.indices():
            assert swapped[idx] == cube[(idx[1], idx[0], idx[2])]

    def test_rectangular_shape_follows_the_relabeling(self):
        t = Tensor.from_nested([[1, 2, 3], [4, 5, 6]])  # 2 x 3
        flipped = sigma_transpose(t, Permutation((1, 0)))
        assert flipped.shape == (3, 2)
        sigma = Permutation((1, 2, 0))
        rng = random.Random(9)
        s = random_int_tensor(rng, (2, 3, 4))
        moved = sigma_transpose(s, sigma)
        for idx in moved.indices():
            assert moved[idx] == s[tuple(idx[sigma(m)] for m in range(3))]

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            sigma_transpose(Tensor.vector([1, 2]), Permutation((1, 0)))

    def test_transposition_law_with_inverse_reindexing(self):
        # Transposing the product equals the product of the transposes taken
        # in sigma^{-1} order of the summand positions.
        rng = random.Random(41)
        for d in (2, 3):
            for images in permutations(range(d)):
                sigma = Permutation(images)
                inv = sigma.inverse()
                for n in (2, 3):
                    us = [random_int_tensor(rng, (n,) * d) for _ in range(d)]
                    lhs = sigma_transpose(summand_ordered_bmp(us), sigma)
                    rhs = summand_ordered_bmp(
                        [sigma_transpose(us[inv(k)], sigma) for k in range(d)])
                    assert lhs == rhs

    def test_transposition_law_plain_form_for_involutions(self):
        rng = random.Random(43)
        for d in (2, 3):
            for images in permutations(range(d)):
                sigma = Permutation(images)
                if not sigma.is_involution():
                    continue
                us = [random_int_tensor(rng, (3,) * d) for _ in range(d)]
                lhs = sigma_transpose(summand_ordered_bmp(us), sigma)
                rhs = summand_ordered_bmp(
                    [sigma_transpose(us[sigma(k)], sigma) for k in range(d)])
                assert lhs == rhs

    def test_plain_form_fails_for_some_non_involution(self):
        # keeps the necessity of the inverse reindexing honest
        rng = random.Random(47)
        sigma = Permutation((1, 2, 0))
        broken = 0
        for _ in range(10):
            us = [random_int_tensor(rng, (2, 2, 2)) for _ in range(3)]
            lhs = sigma_transpose(summand_ordered_bmp(us), sigma)
            rhs = summand_ordered_bmp([sigma_transpose(us[sigma(k)], sigma) for k in range(3)])
            broken += lhs != rhs
        assert broken > 0


class TestBlow:
    def test_matrix_blow(self):
        m = Tensor.from_nested([["a", "b"], ["c", "d"]])
        t = blow(m)
        assert t.shape == (2, 2, 2)
        nonzero = {idx: str(t[idx]) for idx in t.indices() if not t[idx].is_zero()}
        assert nonzero == {(0, 0, 0): "a", (0, 1, 0): "b", (1, 0, 1): "c", (1, 1, 1): "d"}

    def test_vector_blow_is_a_diagonal_matrix(self):
        assert blow(Tensor.vector([ALPHA, BETA])) == Tensor.from_nested(
            [[ALPHA, 0], [0, BETA]])

    def test_rank_one_blow_closed_form(self):
        rng = random.Random(53)
        for _ in range(10):
            v1 = random_int_tensor(rng, (3,))
            v2 = random_int_tensor(rng, (2,))
            blown = blow(outer_product([v1, v2]))
            # sum over i of v1[i] * (e_i (x) v2 (x) e_i)
            expected = Tensor.from_function(
                (3, 2, 3),
                lambda idx: v1[(idx[0],)] * v2[(idx[1],)] if idx[0] == idx[2]
                else PolyScalar.zero())
            assert blown == expected

    def test_marginalizing_the_new_axis_recovers_the_input(self):
        rng = random.Random(59)
        t = random_int_tensor(rng, (2, 3))
        b = blow(t)
        for idx in t.indices():
            total = PolyScalar.zero()
            for h in range(b.shape[-1]):
                total = total + b[idx + (h,)]
            assert total == t[idx]

    def test_off_diagonal_cells_vanish(self):
        rng = random.Random(61)
        b = blow(random_int_tensor(rng, (3, 2)))
        for idx in b.indices():
            if idx[0] != idx[-1]:
                assert b[idx].is_zero()


class TestForget:
    def test_no_positions_is_identity(self):
        t = Tensor.from_nested([[1, 2], [3, 4]])
        assert forget(t, [], 2) is t

    def test_insert_trailing_axis_copies_faces(self):
        m = Tensor.from_nested([["a", "b"], ["c", "d"]])
        t = forget(m, [2], 2)
        assert t.shape == (2, 2, 2)
        for idx in m.indices():
            assert t[idx + (0,)] == m[idx] and t[idx + (1,)] == m[idx]

    def test_insert_middle_axis(self):
        m = Tensor.from_nested([["a", "b"], ["c", "d"]])
        t = forget(m, [1], 3)
        assert t.shape == (2, 3, 2)
        for i, j, k in t.indices():
            assert t[(i, j, k)] == m[(i, k)]

    def test_rank_one_forget_inserts_ones_vectors(self):
        rng = random.Random(67)
        v1 = random_int_tensor(rng, (2,))
        v2 = random_int_tensor(rng, (3,))
        ones = Tensor.vector([1, 1])
        assert forget(outer_product([v1, v2]), [1], 2) == outer_product([v1, ones, v2])

    def test_multiple_positions_with_mixed_dims(self):
        v = Tensor.vector([ALPHA, BETA])
        t = forget(v, [0, 2], [3, 4])
        assert t.shape == (3, 2, 4)
        for idx in t.indices():
            assert t[idx] == v[(idx[1],)]

    def test_position_out_of_range(self):
        v = Tensor.vector([1, 2])
        with pytest.raises(PositionOutOfRange):
            forget(v, [3], 2)
        with pytest.raises(PositionOutOfRange):
            forget(v, [-1], 2)
        with pytest.raises(PositionOutOfRange):
            forget(v, [1, 1], 2)

    def test_cardinality_mismatch(self):
        with pytest.raises(CardinalityMismatch):
            forget(Tensor.vector([1, 2]), [0, 1], [2])

    def test_inserted_dimension_below_one_rejected(self):
        with pytest.raises(ValueError):
            forget(Tensor.vector([1, 2]), [1], 0)
        with pytest.raises(ValueError):
            forget(Tensor.vector([1, 2]), [0, 2], [3, 0])


class TestOuterProduct:
    def test_ones(self):
        assert outer_product([Tensor.vector([1]), Tensor.vector([1, 1])]) == Tensor(
            (1, 2), [1, 1])

    def test_two_parameter_square(self):
        v = Tensor.vector([ALPHA, BETA])
        expected = Tensor.from_nested([[ALPHA ** 2, ALPHA * BETA], [ALPHA * BETA, BETA ** 2]])
        assert outer_product([v, v]) == expected

    def test_triple_product_cell(self):
        v = Tensor.vector([ALPHA, BETA])
        cube = outer_product([v, v, v])
        assert cube[(0, 1, 1)] == ALPHA * BETA ** 2

    def test_requires_vectors(self):
        with pytest.raises(OrderMismatch):
            outer_product([Tensor.from_nested([[1, 2], [3, 4]])])


# Reference equivalence: each operation against the per-cell formula in its
# docstring, evaluated through the bounds-checked ``Tensor[...]``.

dims = st.integers(1, 3)
shapes = st.lists(dims, min_size=1, max_size=4).map(tuple)


@st.composite
def int_tensors(draw, shape=None):
    shape = draw(shapes) if shape is None else shape
    n = math.prod(shape)
    return Tensor(shape, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))


class TestReferenceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_forget(self, data):
        t = data.draw(int_tensors())
        count = data.draw(st.integers(1, 3))
        order = t.order + count
        positions = data.draw(st.lists(st.integers(0, order - 1), min_size=count,
                                       max_size=count, unique=True))
        new_dims = data.draw(st.lists(dims, min_size=count, max_size=count))
        inserted = dict(zip(sorted(positions), new_dims))
        kept = iter(t.shape)
        shape = tuple(inserted[a] if a in inserted else next(kept) for a in range(order))
        expected = Tensor.from_function(
            shape, lambda idx: t[tuple(i for a, i in enumerate(idx) if a not in inserted)])
        assert forget(t, positions, new_dims) == expected

    @settings(max_examples=150, deadline=None)
    @given(int_tensors())
    def test_blow(self, t):
        expected = Tensor.from_function(
            t.shape + (t.shape[0],), lambda idx: t[idx[:-1]] if idx[0] == idx[-1] else 0)
        assert blow(t) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sigma_transpose(self, data):
        t = data.draw(int_tensors())
        sigma = Permutation(tuple(data.draw(st.permutations(range(t.order)))))
        shape = tuple(t.shape[sigma.inverse()(k)] for k in range(t.order))
        expected = Tensor.from_function(
            shape, lambda x: t[tuple(x[sigma(m)] for m in range(t.order))])
        assert sigma_transpose(t, sigma) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), dims)
    def test_identitary(self, order, dim):
        for j, k in combinations(range(order), 2):
            expected = Tensor.from_function(
                (dim,) * order, lambda idx: 1 if idx[j] == idx[k] else 0)
            assert identitary(order, dim, j, k) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bmp(self, data):
        d = data.draw(st.integers(2, 4))
        shape = data.draw(st.lists(dims, min_size=d, max_size=d))
        l = data.draw(dims)
        factors = []
        for k in range(d):
            factor_shape = list(shape)
            factor_shape[(k + 1) % d] = l
            factors.append(data.draw(int_tensors(tuple(factor_shape))))

        def cell(i):
            total = PolyScalar.zero()
            for h in range(l):
                term = PolyScalar.constant(1)
                for k, t in enumerate(factors):
                    at = list(i)
                    at[(k + 1) % d] = h
                    term = term * t[tuple(at)]
                total = total + term
            return total

        assert bmp(factors) == Tensor.from_function(shape, cell)


@st.composite
def view_operands(draw):
    """A dense tensor seen through one or two views: a blow (a tie from axis 0 to
    a new last axis), a forget (stride-0 axes) or a sigma transpose, so that
    the operation under test meets inputs that already carry ties."""
    t = draw(int_tensors(draw(st.lists(dims, min_size=1, max_size=3).map(tuple))))
    for kind in draw(st.lists(st.sampled_from(["blow", "forget", "transpose"]),
                              min_size=1, max_size=2)):
        if kind == "blow":
            t = blow(t)
        elif kind == "forget":
            t = forget(t, [draw(st.integers(0, t.order))], draw(dims))
        else:
            t = sigma_transpose(t, Permutation(tuple(draw(st.permutations(range(t.order))))))
    return t


class TestReferenceEquivalenceOfViews:
    """The per-cell formulas of ``forget``, ``blow`` and ``sigma_transpose`` on
    views, each read through the input's bounds-checked ``Tensor[...]``."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_forget(self, data):
        t = data.draw(view_operands())
        count = data.draw(st.integers(1, 2))
        order = t.order + count
        positions = data.draw(st.lists(st.integers(0, order - 1), min_size=count,
                                       max_size=count, unique=True))
        new_dims = data.draw(st.lists(dims, min_size=count, max_size=count))
        inserted = dict(zip(sorted(positions), new_dims))
        kept = iter(t.shape)
        shape = tuple(inserted[a] if a in inserted else next(kept) for a in range(order))
        expected = Tensor.from_function(
            shape, lambda idx: t[tuple(i for a, i in enumerate(idx) if a not in inserted)])
        assert forget(t, positions, new_dims) == expected

    @settings(max_examples=150, deadline=None)
    @given(view_operands())
    def test_blow(self, t):
        expected = Tensor.from_function(
            t.shape + (t.shape[0],), lambda idx: t[idx[:-1]] if idx[0] == idx[-1] else 0)
        assert blow(t) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sigma_transpose(self, data):
        t = data.draw(view_operands())
        sigma = Permutation(tuple(data.draw(st.permutations(range(t.order)))))
        shape = tuple(t.shape[sigma.inverse()(k)] for k in range(t.order))
        expected = Tensor.from_function(
            shape, lambda x: t[tuple(x[sigma(m)] for m in range(t.order))])
        assert sigma_transpose(t, sigma) == expected

    def test_forget_moves_a_blown_tie_with_its_axes(self):
        v = Tensor.vector([ALPHA, BETA])
        widened = forget(blow(v), [0], 2)
        assert widened == Tensor.from_function(
            (2, 2, 2), lambda idx: v[(idx[1],)] if idx[1] == idx[2] else 0)


#: Cells shared by every factor, so that many terms repeat a (left, right) pair.
SHARED_CELLS = (_ZERO, _ONE, ALPHA, parse_expr("-2"), parse_expr("1/2*beta + alpha"),
                parse_expr("alpha^2*beta"))


def plain_bmp_cell(factors, i, l):
    """``sum over h of prod_k T_k[i with axis (k+1)%d set to h]``, with fresh multiplies."""
    d = len(factors)
    total = PolyScalar.zero()
    for h in range(l):
        term = PolyScalar.constant(1)
        for k, t in enumerate(factors):
            term = term * t[i[:(k + 1) % d] + (h,) + i[(k + 1) % d + 1:]]
        total = total + term
    return total


class TestContractionOfSharedCells:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bmp_of_shared_cells(self, data):
        d = data.draw(st.integers(2, 4))
        shape = data.draw(st.lists(dims, min_size=d, max_size=d))
        l = data.draw(dims)
        cell = st.sampled_from(SHARED_CELLS)
        factors = []
        for k in range(d):
            factor_shape = list(shape)
            factor_shape[(k + 1) % d] = l
            n = math.prod(factor_shape)
            factors.append(Tensor(factor_shape, data.draw(st.lists(cell, min_size=n,
                                                                   max_size=n))))
        assert bmp(factors) == Tensor.from_function(
            shape, lambda i: plain_bmp_cell(factors, i, l))

    def test_a_term_with_a_zero_last_cell_makes_no_multiply(self, monkeypatch):
        _, _, a, m, p, _ = SHARED_CELLS
        expected = m * a * p
        calls = []
        multiply = PolyScalar.__mul__
        monkeypatch.setattr(PolyScalar, "__mul__",
                            lambda self, other: calls.append(1) or multiply(self, other))
        assert _contract([[a, m], [m, a], [_ZERO, p]]) == expected
        assert len(calls) == 2  # both in term 1; term 0 ends in a zero

    @pytest.mark.parametrize("d, multiplies", [(2, 27), (3, 162), (4, 729)])
    def test_dense_factors_multiply_each_term_once(self, monkeypatch, d, multiplies):
        # No tie fixes h, so each of the 3^d cells sums 3 terms of d cells, with no
        # zero cell to stop a term early: (d - 1) * 3 multiplies per cell.
        rng = random.Random(d)
        factors = [Tensor((3,) * d, [rng.choice([-3, -2, -1, 2, 3]) for _ in range(3 ** d)])
                   for _ in range(d)]
        calls = []
        multiply = PolyScalar.__mul__
        monkeypatch.setattr(PolyScalar, "__mul__",
                            lambda self, other: calls.append(1) or multiply(self, other))
        bmp(factors)
        assert len(calls) == multiplies == (d - 1) * 3 * 3 ** d


@st.composite
def plain_tensors(draw, shape):
    """A dense tensor of ``shape`` over SHARED_CELLS, or a forget view of one."""
    cell = st.sampled_from(SHARED_CELLS)
    positions = []
    if len(shape) > 1:
        positions = draw(st.lists(st.integers(0, len(shape) - 1), max_size=len(shape) - 1,
                                  unique=True))
    kept = [dim for a, dim in enumerate(shape) if a not in positions]
    n = math.prod(kept)
    dense = Tensor(kept, draw(st.lists(cell, min_size=n, max_size=n)))
    return forget(dense, positions, [shape[a] for a in sorted(positions)])


def tied_view(inner, a, b):
    """The blow of ``inner`` transposed so that the blown tie joins axes a and b."""
    d = inner.order + 1
    images = (a, *(axis for axis in range(d) if axis not in (a, b)), b)
    return sigma_transpose(blow(inner), Permutation(images))


def tie_pairs(shape):
    """The axis pairs (a, b) of ``shape`` that a tied view can join."""
    return [(a, b) for a, b in permutations(range(len(shape)), 2) if shape[a] == shape[b]]


def untied_shape(shape, a, b):
    """The shape of the tensor whose ``tied_view`` joining axes a and b has ``shape``."""
    return [shape[a]] + [shape[axis] for axis in range(len(shape)) if axis not in (a, b)]


@st.composite
def view_tensors(draw, shape):
    """A tensor of ``shape``: dense, forgotten, transposed, tied once or twice, or
    identitary."""
    d = len(shape)
    pairs = tie_pairs(shape)
    twice = [(a, b) for a, b in pairs if tie_pairs(untied_shape(shape, a, b))]
    kinds = ["plain", "transposed"] + ["tied"] * bool(pairs) + ["twice tied"] * bool(twice)
    if len(set(shape)) == 1 and d > 1:
        kinds.append("identitary")
    kind = draw(st.sampled_from(kinds))
    if kind == "plain":
        return draw(plain_tensors(shape))
    if kind == "transposed":
        sigma = Permutation(tuple(draw(st.permutations(range(d)))))
        return sigma_transpose(draw(plain_tensors([shape[sigma(k)] for k in range(d)])), sigma)
    if kind == "identitary":
        j, k = sorted(draw(st.sampled_from(pairs)))
        return identitary(d, shape[0], j, k)
    if kind == "tied":
        a, b = draw(st.sampled_from(pairs))
        return tied_view(draw(plain_tensors(untied_shape(shape, a, b))), a, b)
    a, b = draw(st.sampled_from(twice))
    inner = untied_shape(shape, a, b)
    p, q = draw(st.sampled_from(tie_pairs(inner)))
    return tied_view(tied_view(draw(plain_tensors(untied_shape(inner, p, q))), p, q), a, b)


class TestProductOfViews:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bmp_of_views_matches_the_plain_cells(self, data):
        d = data.draw(st.integers(2, 4))
        if data.draw(st.booleans()):
            shape = [data.draw(dims)] * d
            l = shape[0]
        else:
            shape = data.draw(st.lists(dims, min_size=d, max_size=d))
            l = data.draw(dims)
        factors = [data.draw(view_tensors([l if axis == (k + 1) % d else dim
                                           for axis, dim in enumerate(shape)]))
                   for k in range(d)]
        assert bmp(factors) == Tensor.from_function(
            shape, lambda i: plain_bmp_cell(factors, i, l))

    @staticmethod
    def _tensor(rng, shape):
        return random_int_tensor(rng, tuple(shape), -2, 2)

    # In a product of three factors, factor k is contracted in axis (k+1) % 3.
    CASES = {
        # no tie on a contracted axis: every h is summed
        "free h": lambda t: [forget(t((3, 3)), [0], 3), t((3, 3, 3)),
                             sigma_transpose(t((3, 3, 3)), Permutation((2, 0, 1)))],
        # factor 0 ties its contracted axis 1 to axis 0, so h = x[0]
        "h fixed by a tie": lambda t: [tied_view(t((3, 3)), 1, 0), t((3, 3, 3)), t((3, 3, 3))],
        # factor 0 ties axes 0 and 2 and factor 2 axes 1 and 2, none of them contracted:
        # zero guards on a free h
        "tie between two other axes": lambda t: [tied_view(t((3, 3)), 0, 2), t((3, 3, 3)),
                                                 identitary(3, 3, 1, 2)],
        # factor 0 fixes h to axis 0 and factor 1 to axis 1
        "two ties fix h to different axes": lambda t: [tied_view(t((3, 3)), 1, 0),
                                                       tied_view(t((3, 3)), 2, 1), t((3, 3, 3))],
        # factor 0 ties its contracted axis 1 to axis 0, which fixes h, and also ties
        # axes 0 and 2
        "h fixed by a factor with a second tie": lambda t: [
            tied_view(tied_view(t((3,)), 0, 1), 0, 1), t((3, 3, 3)), t((3, 3, 3))],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_kind_of_tie(self, case):
        rng = random.Random(case)
        for _ in range(5):
            factors = self.CASES[case](lambda shape: self._tensor(rng, shape))
            assert bmp(factors) == Tensor.from_function(
                (3, 3, 3), lambda i: plain_bmp_cell(factors, i, 3))

    def test_a_view_copies_no_cell(self):
        t = Tensor((2, 3), range(6))
        for view in (forget(t, [0, 2], 4), blow(t), sigma_transpose(t, Permutation((1, 0))),
                     tied_view(t, 2, 0)):
            assert view._base is t._base
            assert view._cells is None
        assert blow(t).ncells == 12 and blow(t)._cells is None
