"""Sparse exact elimination: solving, ranks, and quotient representatives."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intforms.linalg import LinearSystem
from intforms.matrixcalc import I_UNIT, gaussian
from intforms.scalars import ScalarContext


def test_solve_over_rational_functions():
    ctx = ScalarContext(("q",))
    q = ctx.parameter("q")
    sys = LinearSystem()
    # x0 + q*x1 = q^2 ; q*x0 - x1 = 0
    sys.add({0: ctx.one, 1: q}, {"t": q * q})
    sys.add({0: q, 1: -ctx.one}, {"t": ctx.zero})
    sol = sys.solve("t")
    assert sol is not None
    x0 = sol.get(0, ctx.zero)
    x1 = sol.get(1, ctx.zero)
    assert x0 + q * x1 == q * q
    assert q * x0 - x1 == ctx.zero
    assert x1 == q * x0


def test_multiple_right_hand_sides_share_elimination():
    ctx = ScalarContext(())
    one = ctx.one
    sys = LinearSystem()
    sys.add({"a": one, "b": one}, {0: one})
    sys.add({"a": one, "b": -one}, {1: one})
    sol0, sol1 = sys.solve(0), sys.solve(1)
    assert sol0["a"] + sol0["b"] == one and sol0["a"] - sol0.get("b", ctx.zero) == ctx.zero
    assert sol1["a"] - sol1["b"] == one


def test_inconsistent_system_reports_none():
    ctx = ScalarContext(())
    one = ctx.one
    sys = LinearSystem()
    sys.add({"a": one}, {"t": one})
    sys.add({"a": one}, {"t": one + one})
    assert not sys.consistent("t")
    assert sys.solve("t") is None
    assert sys.rank() == 1


def test_rank_and_pivots():
    ctx = ScalarContext(("q",))
    q = ctx.parameter("q")
    sys = LinearSystem()
    sys.add({0: ctx.one, 1: q})
    sys.add({0: q, 1: q * q})  # q times the first row
    assert sys.rank() == 1
    sys.add({1: ctx.one, 2: ctx.one})
    assert sys.rank() == 2
    assert sys.pivot_columns() == [0, 1]


def test_reduce_mod_gives_canonical_representatives():
    ctx = ScalarContext(())
    one = ctx.one
    sys = LinearSystem()
    sys.add({"a": one, "b": one})
    # a + b is in the row space; a - b is not
    assert not sys.reduce_mod({"a": one, "b": one})
    rep = sys.reduce_mod({"a": one, "b": -one})
    assert rep and "a" not in rep
    again = sys.reduce_mod(rep)
    assert again == rep
    # congruent vectors share a representative: a+b ~ 0 makes 2a ~ -2b
    other = sys.reduce_mod({"b": -(one + one)})
    shifted = sys.reduce_mod({"a": one + one})
    assert shifted == other


def test_gaussian_rational_entries():
    i = I_UNIT
    one = gaussian(1)
    sys = LinearSystem()
    sys.add({0: one, 1: i}, {"t": gaussian(2)})
    sys.add({0: i, 1: one}, {"t": gaussian(0)})
    sol = sys.solve("t")
    assert sol[0] + i * sol[1] == gaussian(2)
    assert i * sol[0] + sol[1] == gaussian(0)
    assert sol[0] == gaussian(1) and sol[1] == -i
    assert sol[0] * sol[0] + sol[1] * sol[1] == gaussian(0)
    assert sys.rank() == 2
    assert gaussian(Fraction(1, 2)) + gaussian(Fraction(1, 2)) == one


def _dense_rank(rows):
    """Rank by plain Gaussian elimination on lists of Fractions."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _vector(size):
    return st.lists(st.integers(-3, 3).map(Fraction), min_size=size, max_size=size)


@given(data=st.data(), ncols=st.integers(1, 4), nrows=st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_linear_system_properties(data, ncols, nrows):
    """Solutions substitute back, consistency matches a dense rank test, and
    reduce_mod is idempotent with no pivot column left."""
    matrix = data.draw(st.lists(_vector(ncols), min_size=nrows, max_size=nrows))
    known = data.draw(_vector(ncols))
    free = data.draw(_vector(nrows))
    made = [sum(a * x for a, x in zip(row, known)) for row in matrix]
    system = LinearSystem()
    for row, m, f in zip(matrix, made, free):
        system.add(dict(enumerate(row)), {"made": m, "free": f})

    def substitutes_back(solution, rhs):
        return all(
            sum(a * solution.get(c, 0) for c, a in enumerate(row)) == b
            for row, b in zip(matrix, rhs)
        )

    assert system.rank() == _dense_rank(matrix)
    assert system.consistent("made")
    assert substitutes_back(system.solve("made"), made)
    augmented = [row + [f] for row, f in zip(matrix, free)]
    solvable = _dense_rank(augmented) == _dense_rank(matrix)
    assert system.consistent("free") == solvable
    solution = system.solve("free")
    assert (solution is not None) == solvable
    if solution is not None:
        assert substitutes_back(solution, free)

    vec = dict(enumerate(data.draw(_vector(ncols))))
    rep = system.reduce_mod(vec)
    assert system.reduce_mod(rep) == rep
    assert not set(rep) & set(system.pivot_columns())


def _dense_elimination(rows, ncols, key):
    """Incremental reduced echelon form on dense lists of Fractions.

    Each row (coefficients, then right-hand sides) is reduced by every
    pivot row so far, pivots on its key-minimal nonzero column, and clears
    that column from every earlier pivot row.  Returns the pivot rows by
    column and the right-hand sides of the rows that reduced to zero.
    """
    pivots, obstructions = {}, []
    for row in rows:
        for col, prow in pivots.items():
            if row[col]:
                row = [a - row[col] * b for a, b in zip(row, prow)]
        support = [c for c in range(ncols) if row[c]]
        if not support:
            if any(row[ncols:]):
                obstructions.append(row[ncols:])
            continue
        lead = min(support, key=key)
        row = [a / row[lead] for a in row]
        for col, prow in pivots.items():
            if prow[lead]:
                pivots[col] = [a - prow[lead] * b for a, b in zip(prow, row)]
        pivots[lead] = row
    return pivots, obstructions


@given(
    data=st.data(),
    ncols=st.integers(1, 7),
    nrows=st.integers(1, 9),
    reverse=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_elimination_matches_a_dense_reference(data, ncols, nrows, reverse):
    """Sparse rows share a few columns and arrive in a random order; after
    every add no pivot row holds another pivot's column, and ranks, pivots,
    solutions and representatives match the dense elimination."""
    key = (lambda c: -c) if reverse else None
    tags = ("s", "t")
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -3)).map(Fraction)
    row = st.lists(entries, min_size=ncols + len(tags), max_size=ncols + len(tags))
    rows = data.draw(st.permutations(data.draw(st.lists(row, min_size=nrows, max_size=nrows))))
    system = LinearSystem(key=key)
    for row in rows:
        system.add(dict(enumerate(row[:ncols])), dict(zip(tags, row[ncols:])))
        pivots = set(system.pivot_columns())
        for col, (coeffs, _) in system._pivots.items():
            assert not pivots & set(coeffs), col

    dense, obstructions = _dense_elimination(rows, ncols, key or (lambda c: c))
    assert system.rank() == len(dense) == _dense_rank([r[:ncols] for r in rows])
    assert system.pivot_columns() == sorted(dense, key=key)
    for k, tag in enumerate(tags):
        solvable = not any(obs[k] for obs in obstructions)
        assert system.consistent(tag) == solvable
        want = {c: r[ncols + k] for c, r in dense.items() if r[ncols + k]}
        assert system.solve(tag) == (want if solvable else None)
    vec = reduced = data.draw(_vector(ncols))
    for col, prow in dense.items():
        if reduced[col]:
            reduced = [a - reduced[col] * b for a, b in zip(reduced, prow)]
    assert system.reduce_mod(dict(enumerate(vec))) == {
        c: v for c, v in enumerate(reduced) if v
    }
