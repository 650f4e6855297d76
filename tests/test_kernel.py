"""Compiled evaluation tables, the fold-prefix pass and the batched
kernel, exact and float."""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest

from protract.cli import load_geometry_spec
from protract.expr import (EvalDomainError, ExactModeError, Pow, _walk_unique,
                           add, const, cos, diff, evaluate, exp, mul, neg,
                           parse, sin, var)
from protract.geometry import GeometryError, verify_bianchi
from protract.tensor import TensorField, max_residuals
from protract import kernel, program
from protract.kernel import eval_table
from protract.program import (OP_ADD, OP_CONST, OP_MUL, OP_VAR, compile_table,
                              share_fold_prefixes)
from protract.transport import (BUNDLES, _shared_table, cotractor_bundle,
                                s2_tractor_bundle, tractor_bundle)

from gen import float_points, poly, rational_points, rng_for
from test_expr import _random_rational_expr, _random_smooth_expr


def _bitwise_equal(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(
        (np.isnan(a) & np.isnan(b)) | (a.view(np.uint64) == b.view(np.uint64))))


def test_table_matches_tree_evaluation():
    rng = rng_for("kernel-parity")
    for _ in range(40):
        dim = rng.randint(1, 4)
        exprs = [_random_smooth_expr(rng, dim, depth=3) for _ in range(rng.randint(1, 6))]
        table = compile_table(exprs)
        points = [[rng.uniform(-0.6, 0.6) for _ in range(dim)]
                  for _ in range(rng.randint(2, 9))]
        got = eval_table(table, points)
        assert got.shape == (len(points), len(exprs))
        for row, x in zip(got, points):
            want = [evaluate(e, tuple(x)) for e in exprs]
            assert np.allclose(row, want, rtol=1e-12, atol=1e-12)

    # a rational batch runs exact: every row equals the tree walker
    rng = rng_for("kernel-parity-exact")
    for _ in range(40):
        dim = rng.randint(1, 3)
        base = [_random_rational_expr(rng, dim, depth=3) for _ in range(3)]
        exprs = base + [add(base[0], base[1]), mul(base[1], base[2], base[0])]
        points = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(dim)] for _ in range(rng.randint(1, 6))]
        for e in exprs[:]:
            if all(evaluate(e, tuple(x)) != 0 for x in points):
                exprs.append(Pow(e, -rng.randint(1, 3)))
        got = eval_table(compile_table(exprs), points)
        assert got.shape == (len(points), len(exprs))
        for row, x in zip(got, points):
            assert all(isinstance(v, Fraction) for v in row)
            assert row.tolist() == [evaluate(e, tuple(x)) for e in exprs]


def test_batch_rows_equal_single_point_calls_bitwise():
    rng = rng_for("kernel-batch")
    specials = (0.0, math.nan, math.inf, -math.inf, 1e300, -1e300)
    for _ in range(30):
        dim = rng.randint(1, 3)
        exprs = [_random_smooth_expr(rng, dim, depth=4) for _ in range(4)]
        exprs.append(Pow(exprs[0], -rng.randint(1, 3)))
        table = compile_table(exprs)
        points = [[rng.uniform(-0.5, 0.5) for _ in range(dim)] for _ in range(6)]
        points += [[rng.choice(specials) for _ in range(dim)] for _ in range(4)]
        batch = eval_table(table, points)
        for row, x in zip(batch, points):
            assert _bitwise_equal(row, eval_table(table, [x])[0])


def test_result_is_c_contiguous_float64():
    table = compile_table([parse("x0", 1), parse("x0^2", 1), parse("2", 1)])
    out = eval_table(table, [[3.0], [-1.0]])
    assert out.dtype == np.float64 and out.flags.c_contiguous
    assert out.tolist() == [[3.0, 9.0, 2.0], [-1.0, 1.0, 2.0]]


def test_empty_batch():
    table = compile_table([parse("x0 + 1", 1)])
    assert eval_table(table, np.empty((0, 1))).shape == (0, 1)


def test_zero_to_negative_power_is_nan():
    table = compile_table([Pow(parse("x0", 1), -2), Pow(parse("x0", 1), -1)])
    out = eval_table(table, [[0.0], [-0.0], [2.0]])
    assert np.isnan(out[:2]).all()
    assert out[2].tolist() == [0.25, 0.5]


def test_exp_overflow_saturates_to_inf():
    table = compile_table([parse("exp(x0)", 1)])
    out = eval_table(table, [[1000.0], [-1000.0], [1.0]])
    assert out[:, 0].tolist() == [math.inf, 0.0, math.exp(1.0)]


def test_constant_beyond_float_range_saturates_to_inf():
    # the exact constants are kept; only their float image saturates,
    # with the sign of the Fraction
    x = parse("x0", 1)
    table = compile_table([mul(const(10 ** 400), x),
                           mul(const(-10 ** 400), x),
                           mul(const(Fraction(1, 10 ** 400)), x)])
    out = eval_table(table, [[1.0], [-2.0]])
    assert out.tolist() == [[math.inf, -math.inf, 0.0],
                            [-math.inf, math.inf, -0.0]]
    assert eval_table(table, [[Fraction(1)]])[0, 0] == Fraction(10) ** 400


def test_nan_propagates():
    table = compile_table([parse("x0 * x1 + 1", 2), parse("x1", 2)])
    out = eval_table(table, [[math.nan, 2.0], [1.0, 2.0]])
    assert math.isnan(out[0, 0]) and out[0, 1] == 2.0
    assert out[1].tolist() == [3.0, 2.0]


def test_sin_and_cos_of_infinity_are_nan():
    table = compile_table([parse("sin(x0)", 1), parse("cos(x0)", 1)])
    out = eval_table(table, [[math.inf], [-math.inf], [0.5]])
    assert np.isnan(out[:2]).all()
    assert out[2].tolist() == [math.sin(0.5), math.cos(0.5)]


def _operands(table, i):
    return list(table.operands[table.starts[i]:table.starts[i + 1]])


def _assert_register_tape(table, exprs):
    """One instruction per distinct node, operands before their reader,
    last_read at each register's last reader and past the tape for an
    output, n_slots the non-leaf registers read twice or more."""
    assert len(table) == len(list(_walk_unique(exprs)))
    reads = [0] * len(table)
    last = [None] * len(table)
    assert len(table.starts) == len(table) + 1
    for i in range(len(table)):
        for r in _operands(table, i):
            assert 0 <= r < i
            reads[r] += 1
            last[r] = i
    for r in table.outputs:
        reads[r] += 1
        last[r] = len(table)
    assert list(table.last_read) == last
    assert table.n_slots == sum(
        1 for op, n in zip(table.ops, reads)
        if n > 1 and op not in (OP_CONST, OP_VAR))


def test_shared_subtrees_go_through_slots():
    shared = parse("sin(x0) * x1 + x0^3", 2)
    exprs = [shared, shared * parse("x1", 2), shared + parse("2", 2),
             parse("x0 - x1", 2) * shared]
    table = compile_table(exprs)
    _assert_register_tape(table, exprs)
    # the shared subtree is one instruction, read by the two products
    # and kept to the end as the first entry
    reg = table.outputs[0]
    readers = [i for i in range(len(table)) if reg in _operands(table, i)]
    assert readers == sorted(table.outputs[k] for k in (1, 3))
    assert table.last_read[reg] == len(table)
    assert table.n_slots >= 2
    points = [[0.3, -0.7], [1.2, 0.5], [-2.0, 0.25]]
    for row, x in zip(eval_table(table, points), points):
        assert np.allclose(row, [evaluate(e, tuple(x)) for e in exprs],
                           rtol=1e-14, atol=0)


def test_subtree_parsed_twice_gets_one_slot():
    exprs = [parse("sin(x0)*x1 + 1", 2), parse("x0 - sin(x0)*x1", 2)]
    table = compile_table(exprs)
    _assert_register_tape(table, exprs)
    assert table.n_slots == 1
    prods = [i for i, op in enumerate(table.ops) if op == OP_MUL]
    assert len(prods) == 1
    # the product is read twice; its last_read is the later reader
    readers = [i for i in range(len(table))
               if prods[0] in _operands(table, i)]
    assert len(readers) == 2 and table.last_read[prods[0]] == readers[-1]
    assert eval_table(table, [[0.5, 2.0]]).tolist() == [
        [math.sin(0.5) * 2.0 + 1.0, 0.5 - math.sin(0.5) * 2.0]]


def test_max_var_tracked():
    table = compile_table([parse("x2 + 1", 5)])
    assert table.max_var == 2
    assert table.n_out == 1


def test_derivative_tables():
    # Tables built from differentiated trees evaluate consistently too.
    e = parse("sin(x0^2) * exp(x1/4)", 2)
    table = compile_table([diff(e, 0), diff(e, 1)])
    points = [[0.4, -0.3], [-0.2, 0.7]]
    got = eval_table(table, points)
    for row, x in zip(got, points):
        want = [evaluate(diff(e, i), tuple(x)) for i in range(2)]
        assert np.allclose(row, want, rtol=1e-13)


def test_point_shorter_than_max_var_rejected():
    table = compile_table([parse("x3", 4)])
    with pytest.raises(ValueError):
        eval_table(table, [[1.0, 2.0]])


def test_points_must_be_two_dimensional():
    table = compile_table([parse("x0", 1)])
    with pytest.raises(ValueError):
        eval_table(table, [1.0])


def test_integer_coordinates_run_exact():
    table = compile_table([parse("x0/3 + x1^2", 2), parse("1/2", 2)])
    out = eval_table(table, [[1, 2], [Fraction(3, 2), -1]])
    assert out.tolist() == [[Fraction(13, 3), Fraction(1, 2)],
                            [Fraction(3, 2), Fraction(1, 2)]]
    assert all(isinstance(v, Fraction) for v in out.ravel())


def test_exact_zero_to_negative_power_raises():
    table = compile_table([Pow(parse("x0 - 1", 1), -2)])
    assert eval_table(table, [[Fraction(3)]]).tolist() == [[Fraction(1, 4)]]
    with pytest.raises(EvalDomainError):
        eval_table(table, [[Fraction(3)], [Fraction(1)]])


@pytest.mark.parametrize("text", ["sin(x0)", "cos(x0)", "exp(x0)",
                                  "x0 + exp(x0 - x0^2)"])
def test_exact_batch_rejects_calls(text):
    table = compile_table([parse(text, 1)])
    with pytest.raises(ExactModeError):
        eval_table(table, [[Fraction(1, 2)]])
    assert math.isfinite(eval_table(table, [[0.5]])[0, 0])


def _assert_exact_rows(exprs, points):
    """eval_table equals expr.evaluate at every point, and every value
    is a Fraction in lowest terms with a positive denominator; so is
    every (numerator, denominator) pair the tape walk leaves in an
    entry's register, before it becomes a Fraction."""
    table = compile_table(exprs)
    got = eval_table(table, points)
    assert got.dtype == object and got.shape == (len(points), len(exprs))
    for row, x in zip(got, points):
        want = [evaluate(e, tuple(x)) for e in exprs]
        for v in row:
            assert type(v) is Fraction
            assert v.denominator > 0
            assert math.gcd(v.numerator, v.denominator) == 1
        assert row.tolist() == want
        coords = [(Fraction(c).numerator, Fraction(c).denominator) for c in x]
        for (n, d), w in zip(kernel._walk(table, coords.__getitem__,
                                          kernel._PAIRS), want):
            assert type(n) is int and type(d) is int
            assert (n, d) == (w.numerator, w.denominator)
    return got


def test_exact_negative_bases_under_negative_exponents():
    x0, x1 = parse("x0", 2), parse("x1", 2)
    base = parse("x0 - x1", 2)
    exprs = [Pow(base, k) for k in (-1, -2, -3, -4, -5)]
    exprs += [Pow(neg(x0), -3), Pow(neg(x0), -2), mul(Pow(x1, -1), x0),
              Pow(const(Fraction(-2, 3)), -3), Pow(const(Fraction(-2, 3)), -2)]
    points = [[Fraction(1, 3), Fraction(5, 6)], [Fraction(-7, 4), 3],
              [-2, Fraction(-1, 9)]]
    got = _assert_exact_rows(exprs, points)
    # (1/3 - 5/6)^-3 = (-1/2)^-3 = -8, and ^-2 = 4
    assert got[0, 2] == -8 and got[0, 1] == 4


def test_exact_zero_intermediates_with_non_unit_denominators():
    # x0 - x1 is 0 at (2/3, 2/3): the sum of -2/3 and 2/3 over the
    # denominator 3, which must come out as 0/1 wherever it is read
    x0, x1 = parse("x0", 2), parse("x1", 2)
    zero = parse("x0 - x1", 2)
    exprs = [zero, add(zero, x0), add(x0, zero, x1), add(zero, const(Fraction(1, 5))),
             mul(zero, x1), mul(x1, zero, x0), mul(zero, Pow(x0, -1)),
             Pow(zero, 2), Pow(zero, 3), Pow(add(zero, x1), -2),
             add(mul(zero, x0), Pow(zero, 2), neg(zero), const(Fraction(3, 7))),
             neg(zero)]
    got = _assert_exact_rows(exprs, [[Fraction(2, 3), Fraction(2, 3)],
                                     [Fraction(5, 12), Fraction(5, 12)],
                                     [Fraction(1, 2), Fraction(1, 3)]])
    assert got[0].tolist() == [0, Fraction(2, 3), Fraction(4, 3), Fraction(1, 5),
                               0, 0, 0, 0, 0, Fraction(9, 4), Fraction(3, 7), 0]


def test_exact_values_of_hundreds_of_bits():
    rng = rng_for("kernel-exact-big")
    big = Fraction(2 ** 251 + 3, 3 ** 163)
    exprs = [Pow(parse("x0 + 1/7", 2), 9), parse("x0^3 * x1 - x1^2/5", 2),
             Pow(parse("x0 * x1 - 1", 2), -4)]
    exprs += [_random_rational_expr(rng, 2, depth=4) for _ in range(8)]
    got = _assert_exact_rows(exprs, [[big, Fraction(-(5 ** 97), 7 ** 90)],
                                     [Fraction(3 ** 130, 2 ** 200), 11]])
    assert got[0, 0].numerator.bit_length() >= 2000
    assert got[1, 2].denominator.bit_length() >= 200


def test_exact_mixed_int_and_fraction_coordinates():
    rng = rng_for("kernel-exact-mixed")
    exprs = [_random_rational_expr(rng, 3, depth=4) for _ in range(12)]
    exprs.append(Pow(parse("x0 + x1 + x2 + 1/2", 3), -3))
    _assert_exact_rows(exprs, [[1, Fraction(2, 3), -4],
                               [Fraction(-5, 7), -2, Fraction(9, 4)],
                               [0, Fraction(0), Fraction(1, 2)]])


def test_exact_second_row_domain_error():
    table = compile_table([parse("x0 + x1", 2), Pow(parse("x0 - x1", 2), -3)])
    first = [Fraction(1, 2), Fraction(1, 3)]
    assert eval_table(table, [first]).tolist() == [[Fraction(5, 6), 216]]
    with pytest.raises(EvalDomainError):
        eval_table(table, [first, [Fraction(2, 3), Fraction(4, 6)]])


def test_exact_empty_batch():
    table = compile_table([parse("x0 + x1/3", 2), parse("x1^-2", 2)])
    out = eval_table(table, np.empty((0, 2), dtype=object))
    assert out.dtype == object and out.shape == (0, 2)
    # the exact mode refuses sin, cos and exp whatever the rows
    with pytest.raises(ExactModeError):
        eval_table(compile_table([parse("x0 + sin(x1)", 2)]),
                   np.empty((0, 2), dtype=object))


# ---------------------------------------------------------------------------
# share_fold_prefixes: each sum and product prefix computed once

def _fold_prefixes(table) -> set:
    """The distinct (op, leading operands) runs of two operands or more
    that the table's sums and products fold through."""
    out = set()
    for i, op in enumerate(table.ops):
        if op in (OP_ADD, OP_MUL):
            xs = tuple(_operands(table, i))
            out.update((op,) + xs[:k] for k in range(2, len(xs) + 1))
    return out


def _binary_fold_ops(table) -> int:
    return sum(len(_operands(table, i)) - 1
               for i, op in enumerate(table.ops) if op in (OP_ADD, OP_MUL))


def _assert_shares_fold_prefixes(table, shared):
    """Operands before their reader, last_read and n_slots by the rules
    _assert_register_tape states, no sum or product computed twice, and
    one binary operation per distinct fold prefix of the original."""
    reads = [0] * len(shared)
    last = [None] * len(shared)
    assert len(shared.starts) == len(shared) + 1
    for i in range(len(shared)):
        for r in _operands(shared, i):
            assert 0 <= r < i
            reads[r] += 1
            last[r] = i
    for r in shared.outputs:
        reads[r] += 1
        last[r] = len(shared)
    assert list(shared.last_read) == last
    assert shared.n_slots == sum(
        1 for op, n in zip(shared.ops, reads)
        if n > 1 and op not in (OP_CONST, OP_VAR))
    folds = [(op, tuple(_operands(shared, i)))
             for i, op in enumerate(shared.ops) if op in (OP_ADD, OP_MUL)]
    assert len(set(folds)) == len(folds)
    assert _binary_fold_ops(shared) == len(_fold_prefixes(table))
    assert (shared.n_out, shared.max_var) == (table.n_out, table.max_var)


def _assert_same_values(table, shared, points):
    """Bitwise-equal floats, or equal Fractions, or the same error."""
    try:
        want = eval_table(table, points)
    except (EvalDomainError, ExactModeError) as e:
        with pytest.raises(type(e)):
            eval_table(shared, points)
        return
    got = eval_table(shared, points)
    assert got.dtype == want.dtype and got.shape == want.shape
    if want.dtype == object:
        assert all(type(v) is Fraction for v in got.flat)
        assert got.tolist() == want.tolist()
    else:
        assert got.tobytes() == want.tobytes()


def _prefix_family(rng, dim, smooth):
    """Sums and products whose operand lists start with a few shared
    runs of random polynomials, coordinates, constants beyond the float
    range and negative powers, with sin, cos and exp when smooth."""
    pool = [poly(rng, dim) for _ in range(5)]
    pool += [var(k) for k in range(dim)]
    pool += [const(10 ** 400), const(Fraction(-3, 7)),
             Pow(var(0), -2), Pow(add(var(dim - 1), const(1)), -1)]
    if smooth:
        pool += [_random_smooth_expr(rng, dim, depth=3) for _ in range(3)]
    else:
        pool += [_random_rational_expr(rng, dim, depth=3) for _ in range(3)]
    stems = [[rng.choice(pool) for _ in range(rng.randint(2, 4))]
             for _ in range(4)]
    exprs = []
    for _ in range(12):
        fold = rng.choice((add, mul))
        items = rng.choice(stems) + [rng.choice(pool)
                                     for _ in range(rng.randint(0, 3))]
        e = fold(*items)
        exprs.append(e)
        pool.append(e)   # later folds may read earlier ones
    exprs.append(neg(exprs[0]))
    return exprs


def _assert_program_is_the_walk(shared, points):
    """The shared table's float program gives bitwise the entries that
    the walk of the same table gives."""
    assert shared.program is not None
    walked = copy.copy(shared)
    walked.program = None
    got, want = eval_table(shared, points), eval_table(walked, points)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


_SPECIALS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e300)


def test_shared_fold_prefixes_on_random_dags():
    rng = rng_for("fold-prefixes")
    for trial in range(30):
        dim = rng.randint(1, 3)
        smooth = trial % 2 == 0
        table = compile_table(_prefix_family(rng, dim, smooth))
        shared = share_fold_prefixes(table)
        _assert_shares_fold_prefixes(table, shared)
        points = float_points(rng, dim, 5)
        points += [[rng.choice(_SPECIALS) for _ in range(dim)]
                   for _ in range(5)]
        _assert_same_values(table, shared, points)
        _assert_program_is_the_walk(shared, points)
        # rational rows: equal Fractions, or the same error (0^-k raises
        # EvalDomainError, sin, cos or exp ExactModeError)
        _assert_same_values(table, shared, rational_points(rng, dim, 3))
        _assert_same_values(table, shared, [[0] * dim])


def test_shared_fold_prefixes_raise_as_the_table_does():
    x0 = parse("x0", 1)
    table = compile_table([mul(x0, x0, Pow(x0, -1)), mul(x0, x0, const(3)),
                           add(sin(x0), x0, x0)])
    shared = share_fold_prefixes(table)
    _assert_shares_fold_prefixes(table, shared)
    with pytest.raises(ExactModeError):
        eval_table(shared, [[Fraction(1, 2)]])
    table = compile_table([mul(x0, x0, Pow(x0, -1)), mul(x0, x0, const(3))])
    shared = share_fold_prefixes(table)
    assert eval_table(shared, [[Fraction(1, 2)]]).tolist() == [
        [Fraction(1, 2), Fraction(3, 4)]]
    with pytest.raises(EvalDomainError):
        eval_table(shared, [[Fraction(1, 2)], [0]])
    _assert_same_values(table, shared, [[0.0], [-0.0], [math.inf]])


@pytest.mark.parametrize("name", ["flat2", "flat3", "sphere2", "sphere3",
                                  "nonEinstein2", "nonEinstein3"])
def test_shared_fold_prefixes_on_bundle_coefficients(name):
    # every bundle's coefficient table, where the bundle builds: the
    # skew bundle needs a flat chart of dimension 3 or more
    spec = load_geometry_spec(name)
    rng = rng_for("fold-prefixes-" + name)
    points = float_points(rng, spec.dim, 4)
    points += [[math.nan] + [0.25] * (spec.dim - 1),
               [math.inf, -math.inf] + [0.0] * (spec.dim - 2)]
    built = []
    for bundle_name, make in BUNDLES.items():
        try:
            entries = make(spec.geom).coefficient_entries()
        except GeometryError:
            assert bundle_name == "skew" and name != "flat3"
            continue
        built.append(bundle_name)
        table = compile_table(entries)
        shared = share_fold_prefixes(table)
        _assert_shares_fold_prefixes(table, shared)
        _assert_same_values(table, shared, points)
        _assert_program_is_the_walk(shared, points)
        _assert_same_values(table, shared, rational_points(rng, spec.dim, 1))
    assert len(built) == (6 if name == "flat3" else 5)
    # and the one table of all of them that holonomy walks
    bundles = [make(spec.geom) for make in (cotractor_bundle, tractor_bundle,
                                            s2_tractor_bundle)]
    _assert_program_is_the_walk(_shared_table(bundles), points)


def test_bianchi_table_reads_nabla_r_once_per_orbit(monkeypatch):
    # the sphere3 bianchi suite's one table: 4,941 instructions and
    # 47,740 operand reads while the second Bianchi field read the whole
    # nabla R, 4,596 and 43,247 with its mirror in ab a Neg of its
    # partner, and 2,835 and 22,849 with each identity field built once
    # per orbit of its own skew slots
    geom = load_geometry_spec("sphere3").geom
    pack, conn = geom.pack(), geom.connection()
    built = []

    def recording(exprs):
        built.append(compile_table(exprs))
        return built[-1]
    monkeypatch.setattr(program, "compile_table", recording)
    res = verify_bianchi(pack, conn,
                         [[Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]])
    assert res["first"] == res["second"] == 0
    assert [(len(t), len(t.operands)) for t in built] == [(2835, 22849)]


def test_holonomy_tape_folds_each_prefix_once():
    # the sphere2 holonomy suite's one coefficient tape: 1,929 binary
    # sums and products per batch without the pass, 1,117 with it
    geom = load_geometry_spec("sphere2").geom
    bundles = [make(geom) for make in (cotractor_bundle, tractor_bundle,
                                       s2_tractor_bundle)]
    table = compile_table([e for b in bundles
                           for e in b.coefficient_entries()])
    shared = _shared_table(bundles)
    assert _binary_fold_ops(table) == 1929
    assert _binary_fold_ops(shared) == 1117
    _assert_shares_fold_prefixes(table, shared)
    # a table with no shared prefix is its own result
    plain = compile_table([parse("x0 * x1 + 2", 2), parse("x0 - x1", 2)])
    again = share_fold_prefixes(plain)
    assert (again.ops, list(again.operands), list(again.starts)) == (
        plain.ops, list(plain.operands), list(plain.starts))


# ---------------------------------------------------------------------------
# the float program of a shared table: bitwise the walk, exact batches
# walked, and no program on any other table

def _scalar_lead_family(rng, dim):
    """Sums and products that fold registers reading no coordinate, such
    as sin, cos and exp of constants, 0 to a negative power (nan) and its
    Neg (-nan), before, between and after coordinate terms; with powers
    of a coordinate, x**1 and x**-1 among them."""
    x = [var(k) for k in range(dim)]
    scalars = [sin(const(Fraction(rng.randint(-9, 9), 7))),
               cos(const(10 ** 400)), exp(const(1000)),
               exp(const(Fraction(-1, 3))), Pow(const(0), -3),
               neg(Pow(const(0), -1)), Pow(sin(const(2)), -2)]
    arrays = x + [poly(rng, dim), Pow(x[0], -1), Pow(x[-1], 1),
                  Pow(add(x[0], const(1)), 5), Pow(x[0], -4),
                  exp(x[-1]), neg(x[0])]
    exprs = []
    for _ in range(14):
        items = rng.sample(scalars, rng.randint(0, 3)) + [rng.choice(arrays)]
        items += rng.sample(scalars + arrays, rng.randint(0, 3))
        exprs.append(rng.choice((add, mul))(*items))
    return exprs + scalars[:2]


def test_program_is_the_walk_on_scalar_leads():
    rng = rng_for("float-program")
    for _ in range(30):
        dim = rng.randint(1, 3)
        shared = share_fold_prefixes(compile_table(
            _scalar_lead_family(rng, dim)))
        points = float_points(rng, dim, 4)
        points += [[rng.choice(_SPECIALS) for _ in range(dim)]
                   for _ in range(8)]
        _assert_program_is_the_walk(shared, points)
        _assert_program_is_the_walk(shared, points[-1:])
        _assert_program_is_the_walk(shared, np.empty((0, dim)))


def test_exact_batches_walk_a_shared_table(monkeypatch):
    # equal Fractions or the same error as the table's own walk, and the
    # program never runs on them
    rng = rng_for("float-program-exact")
    runs = []
    inner = kernel._run

    def running(prog, cols):
        runs.append(prog)
        return inner(prog, cols)

    monkeypatch.setattr(kernel, "_run", running)
    for _ in range(10):
        dim = rng.randint(1, 3)
        table = compile_table(_prefix_family(rng, dim, smooth=False))
        shared = share_fold_prefixes(table)
        for points in (rational_points(rng, dim, 3), [[0] * dim]):
            _assert_same_values(table, shared, points)
        assert runs == []
        eval_table(shared, float_points(rng, dim, 2))
        assert runs == [shared.program]
        runs.clear()


def test_only_shared_tables_carry_a_program(monkeypatch):
    lowered, built = [], []
    inner_lower, inner_compile = kernel._lower, program.compile_table

    def lowering(table):
        lowered.append(table)
        return inner_lower(table)

    def compiling(exprs):
        built.append(inner_compile(exprs))
        return built[-1]

    monkeypatch.setattr(kernel, "_lower", lowering)
    monkeypatch.setattr(program, "compile_table", compiling)
    rng = rng_for("float-program-tables")
    fields = [TensorField(2, 0, 1, [poly(rng, 2), sin(var(0))])
              for _ in range(3)]
    max_residuals([fields[:2], fields[2:]], float_points(rng, 2, 3))
    table = compile_table(_prefix_family(rng, 2, smooth=True))
    assert built and lowered == []
    assert all(t.program is None for t in built + [table])
    shared = share_fold_prefixes(table)
    assert lowered == [shared] and shared.program is not None

