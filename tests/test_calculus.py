import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from oscbasis import (
    Frequency,
    StabilityWarning,
    build_basis,
    build_tables,
    derivative_matrix_legtrig,
    to_orthogonal_basis,
)
from oscbasis.basis import (
    OscBasis,
    _member_order,
    member_values,
    representation_matrix,
)
from oscbasis.calculus import PANEL, _class_blocks, _solve_upper, _times_d
from oscbasis.documents import from_doc, to_doc
from oscbasis.frequency import TWO_PI
from oscbasis.legendre import legtrig_values


def test_smallest_operator_is_pure_rotation(freq20):
    op = derivative_matrix_legtrig(freq20, 0)
    w = freq20.omega
    assert np.array_equal(op.d_legtrig, np.array([[0.0, w], [-w, 0.0]]))
    # d/dx cos(wx) = -w sin(wx)
    assert np.array_equal(op.d_legtrig @ np.array([1.0, 0.0]), np.array([0.0, -w]))


def test_rejects_negative_size(freq20):
    with pytest.raises(ValueError):
        derivative_matrix_legtrig(freq20, -1)


def test_columns_encode_symbolic_derivatives(freq20):
    n_max = 7
    op = derivative_matrix_legtrig(freq20, n_max)
    D = op.d_legtrig
    for j in range(n_max + 1):
        col = D[:, 2 * j].copy()
        assert col[2 * j + 1] == -freq20.omega
        col[2 * j + 1] = 0.0
        expected = np.zeros_like(col)
        # P_j' = sum (2m+1) P_m over m = j-1, j-3, ...
        for m in range(j - 1, -1, -2):
            expected[2 * m] = 2 * m + 1
        assert np.array_equal(col, expected)


def test_block_structure(freq20):
    D = derivative_matrix_legtrig(freq20, 5).d_legtrig
    for j in range(6):
        for m in range(6):
            block = D[2 * m : 2 * m + 2, 2 * j : 2 * j + 2]
            if m == j:
                continue
            if m > j or (j - m) % 2 == 0:
                assert np.all(block == 0.0)
            else:
                assert block[0, 0] == block[1, 1] == 2.0 * m + 1.0
                assert block[0, 1] == block[1, 0] == 0.0


def test_matrix_action_matches_finite_differences(freq20):
    n_max = 8
    op = derivative_matrix_legtrig(freq20, n_max)
    rng = np.random.default_rng(2)
    x = np.linspace(-0.85, 0.85, 11)
    h = 1e-6
    for _ in range(5):
        vec = rng.uniform(-1.0, 1.0, 2 * (n_max + 1))
        img = op.d_legtrig @ vec

        def f(x):
            return legtrig_values(vec[0::2], vec[1::2], freq20.omega, x)

        fd = (8.0 * (f(x + h) - f(x - h)) - (f(x + 2 * h) - f(x - 2 * h))) / (12.0 * h)
        exact = legtrig_values(img[0::2], img[1::2], freq20.omega, x)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact - fd)) <= 1e-5 * scale


def test_similarity_transform_small_residual(freq20, basis20):
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq20, 12), basis20)
    assert op.similarity_residual is not None
    assert op.similarity_residual <= 1e-9
    assert op.d_orth.shape == (26, 26)


def class_rows(n_max):
    """[c, k]: the member row of class c's member of pair k, 2k (p_k) or
    2k + 1 (q_k); the fancy-index form of the strided maps in the package."""
    k = np.arange(n_max + 1)
    return 2 * k + (k + np.arange(2)[:, None]) % 2


def _blocks(M, index, from_class):
    """The class blocks of an interleaved matrix M: block c has rows in
    class from_class[c] and columns in class c, and index = class_rows(N)
    gives each class's positions in M."""
    return M[index[from_class][:, :, None], index[:, None, :]]


def _padded(basis):
    """The padded class blocks of the transform, with the class size."""
    n = basis.n_max + 1
    return _class_blocks(basis, -(-n // PANEL) * PANEL), n


@pytest.mark.parametrize("n_max", [0, 1, 2, 7, 14, 15, 16, 30, 31, 32, 47, 48, 62, 63,
                                   64, 127, 128, 200])
def test_panel_solve_matches_dense_solve(n_max):
    # class sizes N + 1 = 1 ... 3 and 8 take one 16-row panel that is mostly
    # padding; 15 ... 17, 31 ... 33, 48, 49, 63 ... 65, 128 and 129 sit on
    # both sides of the edges of the 16-row panels.  2pi*0 is no frequency,
    # so N = 0 takes 2pi*5
    freq = Frequency.exact(2 * n_max or 5)
    basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    B, n = _padded(basis)
    index = class_rows(n_max)
    DB = derivative_matrix_legtrig(freq, n_max).d_legtrig @ representation_matrix(basis).T
    # Y[c] = D B_{1-c}, the right-hand side of B_c
    Y = np.zeros(B.shape)
    Y[:, :n, :n] = _blocks(DB, index, [1, 0])[::-1]
    X, residual = _solve_upper(B, Y)
    assert np.all(np.tril(X, -1) == 0.0)
    assert np.all(X[:, :, n:] == 0.0)
    assert np.max(np.abs(B @ X - Y)) <= 1e-12 * np.max(np.abs(Y))
    # the residual formed panel by panel is the one of the whole product
    assert abs(residual - np.max(np.abs(B @ X - Y))) <= 1e-15 * np.max(np.abs(Y))
    dense = np.linalg.solve(B[:, :n, :n], Y[:, :n, :n])
    assert np.max(np.abs(X[:, :n, :n] - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("n_max", [0, 1, 2, 15, 16, 31, 32, 47, 48, 62, 63, 64, 127,
                                   128, 200])
def test_structured_transform_matches_dense_products(n_max):
    # the smallest suffix sums, and class sizes N + 1 on both sides of the
    # edges of the 8-row blocks, where the sums carry in from the next block,
    # and of the padding
    freq = Frequency.exact(2 * n_max + 1)
    basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    op = derivative_matrix_legtrig(freq, n_max)
    B = representation_matrix(basis).T
    index = class_rows(n_max)
    Bc, n = _padded(basis)
    assert np.array_equal(Bc[:, :n, :n], _blocks(B, index, [0, 1]))
    # the padding is zero but for unit pivots
    pad = Bc.copy()
    pad[:, :n, :n] = 0.0
    assert np.array_equal(pad, [np.diag(np.arange(Bc.shape[1]) >= n) * 1.0] * 2)
    dense = op.d_legtrig @ B
    scale = np.max(np.abs(dense))
    # D maps class c to class 1 - c, so the class blocks hold all of D B
    assert np.count_nonzero(dense) == np.count_nonzero(_blocks(dense, index, [1, 0]))
    # the solve and the residual share Y, so a wrong Y would not show in
    # the residual; each of the two products is within about 1e-15 * scale
    # of the exact one, so they differ by up to twice that
    Y = _times_d(freq.omega, Bc)
    assert np.max(np.abs(Y[:, :n, :n] - _blocks(dense, index, [1, 0]))) <= 2e-15 * scale
    assert np.all(Y[:, n:, :n] == 0.0)
    if np.finfo(np.longdouble).eps < np.finfo(float).eps:
        exact = op.d_legtrig.astype(np.longdouble) @ B.astype(np.longdouble)
        assert float(np.max(np.abs(Y[:, :n, :n] - _blocks(exact, index, [1, 0])))) \
            <= 1e-15 * scale
    result = to_orthogonal_basis(op, basis)
    Y[:, :, n:] = 0.0
    assert np.array_equal(_blocks(result.d_orth, index, [1, 0]),
                          _solve_upper(Bc, Y[::-1])[0][::-1, :n, :n])
    residual = np.max(np.abs(B @ result.d_orth - dense))
    assert abs(result.similarity_residual - residual) <= 1e-12 * scale
    blocks = np.arange(B.shape[0]) // 2
    assert np.all(result.d_orth[blocks[:, None] > blocks[None, :]] == 0.0)


@pytest.mark.parametrize("k, n_max", [(218, 200), (304, 200), (325, 200), (330, 200),
                                      (660, 300)])
def test_transform_matches_dense_solve_on_hard_cells(k, n_max):
    # the N = 200 cells from far past the stable regime (k = 218) to the
    # knife edge (k = 325) and inside it (k = 330), and 2pi*660 at N = 300:
    # against a dense solve of the same class blocks and D B
    freq = Frequency.exact(k)
    basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq, n_max), basis)
    Bc, n = _padded(basis)
    # Y[c] = D B_{1-c}, the right-hand side of B_c
    Y = _times_d(freq.omega, Bc)[::-1, :n, :n]
    Bc = Bc[:, :n, :n]
    dense = np.linalg.solve(Bc, Y)
    X = _blocks(op.d_orth, class_rows(n_max), [1, 0])[::-1]
    assert np.max(np.abs(X - dense)) <= 1e-10 * np.max(np.abs(dense))
    scale = np.max(np.abs(Y))
    assert op.similarity_residual / scale <= 2.0 * np.max(np.abs(Bc @ dense - Y)) / scale
    i = np.arange(2 * n)
    pair, member_class = i // 2, (i // 2 + i % 2) % 2
    structural = (member_class[:, None] == member_class) | (pair[:, None] > pair)
    assert np.all(op.d_orth[structural] == 0.0)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 40, 41])
def test_strided_maps_match_fancy_indexing(n_max):
    # the class order <-> member order maps, as the fancy-index scatters and
    # gathers over class_rows that they replace
    n, member = n_max + 1, class_rows(n_max)
    i = np.arange(2 * n)
    sine = ((i // 2 + i % 2) % 2 == 1)[:, None] ^ (np.arange(n) % 2 == 1)
    rng = np.random.default_rng(n_max)
    rows, norms = np.tril(rng.uniform(1.0, 2.0, (2, n, n))), rng.uniform(1.0, 2.0, (2, n))
    full, flat = np.empty((2 * n, n)), np.empty(2 * n)
    full[member], flat[member] = rows, norms
    a_b, got = _member_order(rows, norms)
    assert np.array_equal(a_b, [np.where(sine, 0.0, full), np.where(sine, full, 0.0)])
    assert np.array_equal(got, flat)
    freq = Frequency.exact(2 * n_max + 1)
    basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    B, _ = _padded(basis)
    assert np.array_equal(B[:, :n, :n],
                          np.where(sine, basis.b, basis.a)[member].transpose(0, 2, 1))
    Y = _times_d(freq.omega, B)
    Y[:, :, n:] = 0.0
    d_orth = np.zeros((2 * n, 2 * n))
    X, _ = _solve_upper(B, Y[::-1])
    d_orth[member[:, :, None], member[::-1, None]] = X[:, :n, :n]
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq, n_max), basis)
    assert np.array_equal(op.d_orth, d_orth)


PARITY_CELLS = [(Frequency.exact(50), n) for n in (0, 1, 2, 63, 64)] + [
    (Frequency.from_omega(200.3), n) for n in (0, 1, 2, 63, 64)] + [
    # both frequencies above are refused at N = 200 (the basis collapses
    # at member 225, q_112, and 179, q_89), so N = 200 takes 2pi*330 and
    # an off-grid neighbour
    (Frequency.exact(330), 200), (Frequency.from_omega(TWO_PI * 330 + 0.3), 200)]


@pytest.mark.parametrize("freq, n_max", PARITY_CELLS)
def test_derivative_couples_only_opposite_classes(freq, n_max):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    d_orth = to_orthogonal_basis(derivative_matrix_legtrig(freq, n_max), basis).d_orth
    i = np.arange(2 * (n_max + 1))
    pair, member_class = i // 2, (i // 2 + i % 2) % 2
    same_class = member_class[:, None] == member_class[None, :]
    below = pair[:, None] > pair[None, :]
    assert np.all(d_orth[same_class | below] == 0.0)


@pytest.mark.parametrize("row, degree, n_max", [(0, 0, 70), (140, 70, 70), (40, 20, 20)],
                         ids=["0-0", "140-70", "40-20"])
def test_similarity_residual_propagates_nan(row, degree, n_max):
    # N = 70 gives five 16-row panels per class; the NaN sits on the pivot
    # of p_0 in the first or of p_70 in the last one.  At N = 20 it sits on
    # the pivot of p_20, in the second of two panels, above its padding.
    # OscBasis refuses it, so the transform is handed the arrays unchecked
    freq = Frequency.exact(2 * n_max + 7)
    basis = build_basis(freq, n_max, build_tables(freq, n_max + 1))
    a = basis.a.copy()
    a[row, degree] = np.nan
    with pytest.raises(ValueError, match="coefficients must be finite"):
        OscBasis(freq=freq, n_max=n_max, a=a, b=basis.b, norms=basis.norms,
                 rec=basis.rec)
    broken = SimpleNamespace(freq=freq, n_max=n_max, a=a, b=basis.b)
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq, n_max), broken)
    assert np.isnan(op.similarity_residual)


@pytest.mark.parametrize("part, row, degree, value, message", [
    ("a", 81, 40, np.nan, r"member 81 \(q_40\) has cosine coefficient nan at degree 40"),
    ("b", 80, 38, 1e-300, r"member 80 \(p_40\) has sine coefficient 1e-300 at degree 38"),
], ids=["nan", "finite"])
def test_transform_refuses_wrong_parity_coefficient(part, row, degree, value, message):
    # the class blocks have no place for such a coefficient, so the basis
    # refuses it when it is constructed, before any transform sees it
    freq = Frequency.exact(84)
    basis = build_basis(freq, 40, build_tables(freq, 41))
    arrays = {"a": basis.a.copy(), "b": basis.b.copy()}
    arrays[part][row, degree] = value
    with pytest.raises(ValueError, match=message + ", where its parity requires 0"):
        OscBasis(freq=freq, n_max=40, norms=basis.norms, rec=basis.rec, **arrays)


def test_transform_on_seed_pair_is_exact(freq20, tables20):
    basis0 = build_basis(freq20, 0, tables20)
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq20, 0), basis0)
    w = freq20.omega
    assert np.allclose(op.d_orth, [[0.0, w], [-w, 0.0]], atol=1e-12)
    # applying twice gives -w^2 times the identity on the seed pair
    twice = op.d_orth @ op.d_orth @ np.array([0.0, 1.0])
    assert twice == pytest.approx([0.0, -(w**2)], rel=1e-12)


def test_orthonormal_derivative_matches_member_differentiation(freq20, basis20):
    op = to_orthogonal_basis(derivative_matrix_legtrig(freq20, 12), basis20)
    e = np.zeros(26)
    e[2] = 1.0
    d_exp = op.d_orth @ e
    # keep omega * x0 away from multiples of pi so the derivative is O(omega)
    x0 = 0.31
    h = 1e-6
    fd = (member_values(basis20, x0 + h)[2, 0]
          - member_values(basis20, x0 - h)[2, 0]) / (2.0 * h)
    val = d_exp @ member_values(basis20, x0)[:, 0]
    assert val == pytest.approx(fd, rel=1e-6)


def test_transform_rejects_mismatched_inputs(freq20, tables20, basis20):
    op12 = derivative_matrix_legtrig(freq20, 12)
    other = build_basis(freq20, 3, tables20)
    with pytest.raises(ValueError, match="size mismatch"):
        to_orthogonal_basis(op12, other)
    op_wrong = derivative_matrix_legtrig(Frequency.exact(21), 12)
    with pytest.raises(ValueError, match="frequency mismatch"):
        to_orthogonal_basis(op_wrong, basis20)


def test_singular_class_block_is_refused():
    # zero the leading coefficient of p_2: its class block loses its pivot
    freq = Frequency.exact(20)
    doc = to_doc(build_basis(freq, 6, build_tables(freq, 7)))
    doc["rows"][4]["a"][2] = 0.0
    basis = from_doc(doc)
    with pytest.raises(ValueError, match=r"representation matrix is singular \(zero pivot"):
        to_orthogonal_basis(derivative_matrix_legtrig(basis.freq, basis.n_max), basis)


def test_singular_class_block_is_refused_past_one_panel():
    # at N = 60 the class blocks take four 16-row panels; a zero pivot in a
    # middle one is refused the same way
    freq = Frequency.exact(120)
    doc = to_doc(build_basis(freq, 60, build_tables(freq, 61)))
    doc["rows"][60]["a"][30] = 0.0
    basis = from_doc(doc)
    with pytest.raises(ValueError, match=r"representation matrix is singular \(zero pivot"):
        to_orthogonal_basis(derivative_matrix_legtrig(basis.freq, basis.n_max), basis)
