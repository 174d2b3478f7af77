"""Derivation-based calculus on a matrix algebra, at desk scale.

Forms are antisymmetric multilinear maps on the commutator derivations
attached to a traceless matrix basis, so the whole complex is finite
dimensional over exact Gaussian rationals: the Koszul differential, the
hom-connection with its trace integral, the curvature formula, and the
chain maps identifying the de Rham complex with the complex of integral
forms.  Matrices are sparse vectors holding only their nonzero entries,
which are `gaussians.Gaussian` values, and every scalar factor is applied
on the right of a matrix.  Entries and factors must be ints, Fractions or
Gaussians; anything else raises TypeError.  The two-by-two case is the
certified preset; nothing below assumes it except the tests.
"""

from __future__ import annotations

from itertools import combinations

from .dga import DegreeOverflow
from .gaussians import I as I_UNIT
from .gaussians import Gaussian, gaussian
from .linalg import LinearSystem
from .report import CheckReport
from .sparse import SparseVector, add_scaled

__all__ = [
    "DerBasis",
    "MatElement",
    "MatHomForm",
    "MatForm",
    "NotClosed",
    "commutator",
    "curvature_mn",
    "gaussian",
    "koszul_d",
    "nabla_chain",
    "nabla_hom",
    "nabla_mn",
    "phi",
    "phi_inv",
    "phi_ladder",
    "structure_constants",
    "trace_integral",
]

ZERO, ONE = Gaussian(0), Gaussian(1)


class NotClosed(ValueError):
    pass


class MatElement(SparseVector):
    """Square matrix with exact Gaussian-rational entries.

    `terms` maps (row, column) to each nonzero entry.  Scalars are applied
    on the right, `m * c`; `c * m` gives the same, as scalars commute.
    """

    __slots__ = ("n",)

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix entries must be square")
        self.n = len(rows)
        # convert before testing, so that a float zero is refused too
        self.terms = {
            (r, s): v
            for r, row in enumerate(rows)
            for s, v in enumerate(map(gaussian, row))
            if v
        }

    @classmethod
    def _sparse(cls, n, terms):
        m = cls.__new__(cls)
        m.n = n
        m.terms = terms
        return m

    @classmethod
    def zero(cls, n):
        return cls._sparse(n, {})

    @classmethod
    def identity(cls, n):
        return cls._sparse(n, {(r, r): ONE for r in range(n)})

    @classmethod
    def unit(cls, n, r, s):
        return cls._sparse(n, {(r, s): ONE})

    def entry(self, r, s):
        return self.terms.get((r, s), ZERO)

    def trace(self):
        total = ZERO
        for r in range(self.n):
            total = total + self.entry(r, r)
        return total

    def _mate(self, other):
        if not isinstance(other, MatElement):
            return None
        if other.n != self.n:
            raise ValueError(f"a {self.n}x{self.n} and a {other.n}x{other.n} matrix")
        return other

    def _like(self, terms):
        return self._sparse(self.n, terms)

    def __mul__(self, other):
        if isinstance(other, SparseVector):
            other = self._mate(other)
            if other is None:
                return NotImplemented
            rows = {}
            for (k, s), b in other.terms.items():
                rows.setdefault(k, {})[s] = b
            out = {}
            for (r, k), a in self.terms.items():
                if k in rows:
                    add_scaled(out.setdefault(r, {}), rows[k], a)
            return self._like(
                {(r, s): v for r, row in out.items() for s, v in row.items()}
            )
        return self._scaled(gaussian(other))

    def __rmul__(self, other):
        return self._scaled(gaussian(other))

    def __str__(self):
        rows = (
            "[" + ", ".join(str(self.entry(r, s)) for s in range(self.n)) + "]"
            for r in range(self.n)
        )
        return "[" + ", ".join(rows) + "]"

    def __repr__(self):
        return f"<MatElement {self}>"


def commutator(a, b):
    return a * b - b * a


class DerBasis:
    """Commutator derivations a -> i[E_l, a] for a traceless matrix basis."""

    def __init__(self, matrices):
        matrices = tuple(matrices)
        if not matrices:
            raise ValueError("a derivation basis needs at least one matrix")
        n = matrices[0].n
        for m in matrices:
            if m.n != n:
                raise ValueError("basis matrices must share one size")
            if m.trace():
                raise ValueError(f"basis matrices must be traceless, got {m}")
        self.matrices = matrices
        self.n = n
        self.N = len(matrices)
        self._constants = None

    @classmethod
    def pauli(cls):
        return cls(
            (
                MatElement([[0, 1], [1, 0]]),
                MatElement([[0, -I_UNIT], [I_UNIT, 0]]),
                MatElement([[1, 0], [0, -1]]),
            )
        )

    def derive(self, l, a):
        return commutator(self.matrices[l], a) * I_UNIT

    def constants(self):
        if self._constants is None:
            self._constants = structure_constants(self)
        return self._constants

    def words(self, degree):
        return list(combinations(range(self.N), degree))

    def one_form(self, l, coefficient=None):
        coeff = MatElement.identity(self.n) if coefficient is None else coefficient
        return MatForm(self, 1, {(l,): coeff})

    def top_word(self):
        return tuple(range(self.N))


def structure_constants(basis):
    """Exact expansion of every derivation bracket in the basis.

    Solves [X_i, X_j] = sum_l c_ijl X_l entrywise and verifies that c is
    totally antisymmetric; a bracket outside the span, or a basis without
    the antisymmetry, raises NotClosed.
    """
    n, N = basis.n, basis.N
    system = LinearSystem()
    targets = {}
    for i in range(N):
        for j in range(N):
            # i[E, -] brackets compose to the commutator with i[E_i, E_j]
            targets[(i, j)] = commutator(basis.matrices[i], basis.matrices[j]) * I_UNIT
    for r in range(n):
        for s in range(n):
            coeffs = {l: basis.matrices[l].entry(r, s) for l in range(N)}
            rhs = {key: m.entry(r, s) for key, m in targets.items()}
            system.add(coeffs, rhs)
    if system.rank() != N:
        raise NotClosed("basis matrices are linearly dependent")
    c = [[[ZERO] * N for _ in range(N)] for _ in range(N)]
    for (i, j), target in targets.items():
        solution = system.solve((i, j))
        if solution is None:
            raise NotClosed(f"bracket of derivations {i}, {j} leaves the span: {target}")
        for l, value in solution.items():
            c[i][j][l] = value
    for i in range(N):
        for j in range(N):
            for l in range(N):
                if c[i][j][l] != -c[j][i][l] or c[i][j][l] != -c[i][l][j]:
                    raise NotClosed(
                        f"structure constants are not totally antisymmetric at {(i, j, l)}"
                    )
    return tuple(tuple(tuple(row) for row in plane) for plane in c)


def _sort_word(word):
    """Sorted word and the sign of the sorting permutation; None on repeats."""
    if len(set(word)) != len(word):
        return None, 0
    work = list(word)
    sign = 1
    for pos, target in enumerate(sorted(work)):
        at = work.index(target, pos)
        if at != pos:
            work.insert(pos, work.pop(at))
            if (at - pos) % 2:
                sign = -sign
    return tuple(work), sign


class MatForm(SparseVector):
    """Exterior form with matrix coefficients on ordered index words.

    The generating one-forms are central and pairwise anticommute, so a
    form is a coefficient per strictly increasing word; evaluation against
    basis derivation tuples and the wedge product both come down to
    permutation signs.
    """

    __slots__ = ("basis", "degree")

    def __init__(self, basis, degree, terms):
        if not 0 <= degree <= basis.N:
            raise DegreeOverflow(f"no {degree}-forms on {basis.N} derivations")
        clean = {}
        for word, value in terms.items():
            word = tuple(word)
            if len(word) != degree or list(word) != sorted(set(word)):
                raise ValueError(f"expected a strictly increasing word of length {degree}")
            if value:
                clean[word] = value
        self.basis = basis
        self.degree = degree
        self.terms = clean

    def at(self, *indices):
        """Evaluation against the tuple of basis derivations."""
        if len(indices) != self.degree:
            raise DegreeOverflow(
                f"a {self.degree}-form takes {self.degree} derivations"
            )
        word, sign = _sort_word(indices)
        if word is None:
            return MatElement.zero(self.basis.n)
        value = self.terms.get(word)
        if value is None:
            return MatElement.zero(self.basis.n)
        return value if sign > 0 else -value

    def _mate(self, other):
        if not isinstance(other, MatForm):
            return None
        if other.basis is not self.basis or other.degree != self.degree:
            raise DegreeOverflow("forms live in different components")
        return other

    def _like(self, terms):
        return MatForm(self.basis, self.degree, terms)

    def __mul__(self, other):
        if isinstance(other, MatForm):
            if other.basis is not self.basis:
                raise DegreeOverflow("forms live on different bases")
            degree = self.degree + other.degree
            if degree > self.basis.N:
                raise DegreeOverflow(
                    f"degree {degree} exceeds the top degree {self.basis.N}"
                )
            coords = {}
            for left, a in self.terms.items():
                for right, b in other.terms.items():
                    word, sign = _sort_word(left + right)
                    if word is not None:
                        add_scaled(coords, {word: a * b if sign > 0 else -(a * b)})
            return MatForm(self.basis, degree, coords)
        if not isinstance(other, MatElement):
            other = gaussian(other)
        return self._like({w: v * other for w, v in self.terms.items()})

    def __rmul__(self, other):
        if not isinstance(other, MatElement):
            return self * other  # scalars commute, and act on the right
        return self._like({w: other * v for w, v in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms):
            label = ".".join(f"w{l + 1}" for l in word) or "1"
            parts.append(f"{self.terms[word]} {label}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<MatForm degree {self.degree}: {self}>"


def koszul_d(basis, x):
    """Koszul differential on a matrix (degree 0) or a MatForm.

    Degree zero is da(X) = X(a); higher degrees alternate derivations of
    punctured evaluations with bracket insertions, the brackets expanded
    through the structure constants.
    """
    if isinstance(x, MatElement):
        return MatForm(
            basis, 1, {(l,): basis.derive(l, x) for l in range(basis.N)}
        )
    if not isinstance(x, MatForm) or x.basis is not basis:
        raise ValueError("expected a matrix or a form on this basis")
    if x.degree >= basis.N:
        raise DegreeOverflow(f"no forms above degree {basis.N}")
    c = basis.constants()
    coords = {}
    for word in combinations(range(basis.N), x.degree + 1):
        total = MatElement.zero(basis.n)
        for pos, l in enumerate(word):
            rest = word[:pos] + word[pos + 1 :]
            term = basis.derive(l, x.at(*rest))
            total = total + (term if pos % 2 == 0 else -term)
        for pi, pj in combinations(range(len(word)), 2):
            rest = tuple(
                word[k] for k in range(len(word)) if k not in (pi, pj)
            )
            sign = (-1) ** (pi + pj)
            for l in range(basis.N):
                coeff = c[word[pi]][word[pj]][l]
                if not coeff:
                    continue
                term = x.at(l, *rest) * coeff
                total = total + (term if sign > 0 else -term)
        if total:
            coords[word] = total
    return MatForm(basis, x.degree + 1, coords)


class MatHomForm(SparseVector):
    """Right-linear functional on k-forms, stored by values on basis words."""

    __slots__ = ("basis", "degree")

    def __init__(self, basis, degree, terms):
        if not 1 <= degree <= basis.N:
            raise DegreeOverflow(f"no form functionals in degree {degree}")
        clean = {}
        for word, value in terms.items():
            word = tuple(word)
            if len(word) != degree or list(word) != sorted(set(word)):
                raise ValueError(f"expected a strictly increasing word of length {degree}")
            if value:
                clean[word] = value
        self.basis = basis
        self.degree = degree
        self.terms = clean

    def value(self, word):
        return self.terms.get(tuple(word), MatElement.zero(self.basis.n))

    def __call__(self, omega):
        if not isinstance(omega, MatForm) or omega.basis is not self.basis:
            raise ValueError("expected a form on the same basis")
        if omega.degree != self.degree:
            raise DegreeOverflow(
                f"a degree-{self.degree} functional cannot eat a {omega.degree}-form"
            )
        total = MatElement.zero(self.basis.n)
        for word, coeff in omega.terms.items():
            # coefficients slide through the central generators, so
            # right-linearity pins the value
            total = total + self.value(word) * coeff
        return total

    def _mate(self, other):
        if not isinstance(other, MatHomForm):
            return None
        if other.basis is not self.basis or other.degree != self.degree:
            raise DegreeOverflow("functionals live in different components")
        return other

    def _like(self, terms):
        return MatHomForm(self.basis, self.degree, terms)

    def __mul__(self, other):
        if isinstance(other, MatForm):
            # contraction (f*w)(w') = f(w w')
            if other.basis is not self.basis or other.degree >= self.degree:
                raise DegreeOverflow("contraction must drop the degree")
            left = self.degree - other.degree
            values = {
                word: self(other * MatForm(self.basis, left, {word: MatElement.identity(self.basis.n)}))
                for word in combinations(range(self.basis.N), left)
            }
            return MatHomForm(self.basis, left, values)
        if not isinstance(other, MatElement):
            other = gaussian(other)
        return self._like({w: v * other for w, v in self.terms.items()})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms):
            label = ".".join(f"w{l + 1}" for l in word)
            parts.append(f"{label} := {self.terms[word]}")
        return ", ".join(parts)

    def __repr__(self):
        return f"<MatHomForm degree {self.degree}: {self}>"


def nabla_mn(basis, coords):
    """Connection value on a sum of derivation-matrix pairs (l, a_l)."""
    total = MatElement.zero(basis.n)
    for l, a in coords:
        total = total + basis.derive(l, a)
    return total


def nabla_hom(basis, f):
    """Connection on a one-form functional: sum of X_l(f(w_l))."""
    if not isinstance(f, MatHomForm) or f.degree != 1:
        raise DegreeOverflow("the connection starts at one-form functionals")
    return nabla_mn(basis, [(l, f.value((l,))) for l in range(basis.N)])


def nabla_chain(basis, m, f):
    """Chain-level connection sending (m+1)-form functionals down to m.

    For m = 0 this is the plain connection; otherwise the value on a basis
    m-form is nabla(f*w) plus (-1)^(m+1) f(dw), and dw vanishes here only
    when the structure constants say so.
    """
    if not isinstance(f, MatHomForm) or f.degree != m + 1:
        raise DegreeOverflow(f"expected an ({m + 1})-form functional")
    if m == 0:
        return nabla_hom(basis, f)
    one = MatElement.identity(basis.n)
    sign = 1 if (m + 1) % 2 == 0 else -1
    values = {}
    for word in combinations(range(basis.N), m):
        w = MatForm(basis, m, {word: one})
        value = nabla_hom(basis, f * w) + sign * f(koszul_d(basis, w))
        values[word] = value
    return MatHomForm(basis, m, values)


def trace_integral(a):
    """Normalised trace; the integral associated with the connection."""
    return a.trace() / a.n


def curvature_mn(basis, f):
    """Curvature through the displayed double-sum formula.

    The structure constants are scalars here, so every derivation of them
    vanishes and the sum collapses; the formula is still evaluated in full
    so a hypothetical central coefficient would show up.
    """
    if not isinstance(f, MatHomForm) or f.degree != 2:
        raise DegreeOverflow("curvature eats two-form functionals")
    c = basis.constants()
    half = Gaussian(1, 0, 2)
    total = MatElement.zero(basis.n)
    scalar_one = MatElement.identity(basis.n)
    for i in range(basis.N):
        for j in range(basis.N):
            for l in range(basis.N):
                if not c[i][j][l]:
                    continue
                coeff = basis.derive(l, scalar_one * c[i][j][l])
                if not coeff:
                    continue
                omega = basis.one_form(i, coeff) * basis.one_form(j)
                total = total + f(omega)
    return total * -half


def phi(basis, x):
    """Vertical map of the chain ladder.

    A k-form becomes the functional pairing it into the top degree, with
    the sign (-1)^((N-1)k); the top form itself goes to its coefficient.
    """
    top = basis.top_word()
    if isinstance(x, MatElement):
        x = MatForm(basis, 0, {(): x})
    if not isinstance(x, MatForm) or x.basis is not basis:
        raise ValueError("expected a matrix or a form on this basis")
    if x.degree == basis.N:
        return x.terms.get(top, MatElement.zero(basis.n))
    sign = -1 if ((basis.N - 1) * x.degree) % 2 else 1
    one = MatElement.identity(basis.n)
    values = {}
    for word in combinations(range(basis.N), basis.N - x.degree):
        paired = x * MatForm(basis, basis.N - x.degree, {word: one})
        value = paired.terms.get(top, MatElement.zero(basis.n))
        values[word] = value if sign > 0 else -value
    return MatHomForm(basis, basis.N - x.degree, values)


def phi_inv(basis, k, f):
    """Inverse vertical map: rebuild the k-form from its pairings."""
    if k == basis.N:
        if not isinstance(f, MatElement):
            raise ValueError("the top level inverts from a matrix")
        return MatForm(basis, basis.N, {basis.top_word(): f})
    if not isinstance(f, MatHomForm) or f.degree != basis.N - k:
        raise DegreeOverflow(f"expected an ({basis.N - k})-form functional")
    sign_k = -1 if ((basis.N - 1) * k) % 2 else 1
    one = MatElement.identity(basis.n)
    coords = {}
    for word in combinations(range(basis.N), k):
        complement = tuple(l for l in range(basis.N) if l not in word)
        wedge = MatForm(basis, k, {word: one}) * MatForm(
            basis, basis.N - k, {complement: one}
        )
        pair_sign = 1 if wedge.terms.get(basis.top_word()) == one else -1
        value = f.value(complement)
        coords[word] = value if sign_k * pair_sign > 0 else -value
    return MatForm(basis, k, coords)


def phi_ladder(basis):
    """Check every square of the chain ladder and invert every vertical.

    Each degree contributes one square per basis word and matrix unit; the
    verticals are certified bijective by exact round trips, and the
    cokernel of the connection is pinned to the line of the identity.
    """
    n, N = basis.n, basis.N
    report = CheckReport()
    units = [
        MatElement.unit(n, r, s) for r in range(n) for s in range(n)
    ]
    for k in range(N):
        bad = None
        count = 0
        for word in combinations(range(N), k):
            for unit in units:
                omega = (
                    unit
                    if k == 0
                    else MatForm(basis, k, {word: unit})
                )
                upper = phi(basis, koszul_d(basis, omega))
                lowered = nabla_chain(basis, N - k - 1, phi(basis, omega))
                count += 1
                if upper != lowered:
                    bad = f"word {word}, unit {unit}: {upper} versus {lowered}"
                    break
            if bad:
                break
        report.add(f"square from degree {k} commutes ({count} cases)", bad is None, bad)
    for k in range(N + 1):
        bad = None
        for word in combinations(range(N), k):
            for unit in units:
                omega = MatForm(basis, k, {word: unit})
                if phi_inv(basis, k, phi(basis, omega)) != omega:
                    bad = f"word {word}, unit {unit}"
                    break
            if bad:
                break
        report.add(f"vertical map at degree {k} inverts exactly", bad is None, bad)
    system = LinearSystem()
    bad = None
    for l in range(N):
        for unit in units:
            image = nabla_mn(basis, [(l, unit)])
            if trace_integral(image):
                bad = f"derivation {l}, unit {unit}"
            system.add(image.terms)
    report.add("trace integral kills the image of the connection", bad is None, bad)
    rank = system.rank()
    ok = rank == n * n - 1
    report.add(
        "image of the connection is the traceless matrices",
        ok,
        None if ok else f"rank {rank}",
    )
    leftover = system.reduce_mod(MatElement.identity(n).terms)
    ok = bool(leftover)
    report.add(
        "class of the identity spans the cokernel",
        ok,
        None if ok else "identity lies in the image",
    )
    return report
