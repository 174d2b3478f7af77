"""Correctness checks on one benchmark pass, made apart from the program.

Expected values come from closed forms in the paper or from plain integer
and Fraction arithmetic here; nothing is imported from `intforms`.  Each
check returns a list of problems, empty when the pass is correct.
"""

import json
import re
from fractions import Fraction


def check_pass(workload, record):
    """Problems in the operations of one pass that did not fail."""
    problems = []
    for op in record["ops"]:
        if "error" in op:
            continue
        if op["op"] == "cli":
            problems += _check_cli(workload, op)
        else:
            problems += _check_power(op)
    return problems


def _check_cli(workload, op):
    if op["status"] != 0:
        return [f"CLI exited with status {op['status']}"]
    report = json.loads(op["stdout"])
    problems = []
    rows = report["checks"]
    if not rows:
        problems.append("the report holds no checks")
    for row in rows:
        if row["status"] != "pass":
            problems.append(f"check {row['name']!r} reports {row['status']}")
        elif row["name"].startswith("negative control") and not row.get(
            "witness", ""
        ).startswith(("fails as expected", "rejected at build time")):
            problems.append(f"{row['name']!r} does not report its expected failure")
    extra = {"sl2-window": _check_sl2, "qplane-window": _check_qplane}.get(workload)
    if extra is not None:
        problems += extra(report)
    return problems


def _witness(report, prefix):
    for row in report["checks"]:
        if row["name"].startswith(prefix):
            return row.get("witness", "")
    return ""


def _squares(report):
    match = re.fullmatch(r"(\d+) squares", _witness(report, "chain ladder commutes"))
    return int(match.group(1)) if match else None


def _check_sl2(report):
    problems = []
    top = report["max_len"]
    # (n+1)^2 PBW words of each length n, times 7 forms on levels 0..2
    want = 7 * (top + 1) * (top + 2) * (2 * top + 3) // 6
    if _squares(report) != want:
        problems.append(f"ladder checked {_squares(report)} squares, want {want}")
    printed = {}
    for part in _witness(report, "cokernel classes").split("; "):
        match = re.fullmatch(r"Lambda\((.+?)\) = (.+)", part)
        if match:
            level = 1 if match.group(1) == "beta*gamma" else int(match.group(1)[-1])
            printed[level] = match.group(2)
    if sorted(printed) != [1, 2]:
        return problems + ["Lambda of (beta*gamma)^l is not printed for l = 1, 2"]
    for level, text in printed.items():
        for q in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 7)):
            want = (-1) ** level * (q - 1 / q) / (q ** (level + 1) - q ** -(level + 1))
            got = evaluate(text, {"q": q})
            if got != want:
                problems.append(
                    f"Lambda((beta*gamma)^{level}) = {text} is {got} at q = {q}, want {want}"
                )
    return problems


def _check_qplane(report):
    top = report["max_len"]
    # (n+1) words of each length n, times 3 forms on levels 0..1
    want = 3 * (top + 1) * (top + 2) // 2
    if _squares(report) != want:
        return [f"ladder checked {_squares(report)} squares, want {want}"]
    return []


def _check_power(op):
    # y^k x^k = q^(-k^2) x^k y^k, evaluated at q = 2, p = 3
    k = op["k"]
    want = [[["x"] * k + ["y"] * k, str(Fraction(1, 2 ** (k * k)))]]
    if op["terms"] != want:
        return [f"{op['op']} normalises to {op['terms']!r}"]
    return []


def check_structure_constants(constants):
    """The program's c_ijl against -2 epsilon_ijl from the Pauli matrices."""
    # Gaussian integers as (re, im); the derivations are a -> i [E_l, a]
    pauli = (
        (((0, 0), (1, 0)), ((1, 0), (0, 0))),
        (((0, 0), (0, -1)), ((0, 1), (0, 0))),
        (((1, 0), (0, 0)), ((0, 0), (-1, 0))),
    )
    problems = []
    for i in range(3):
        for j in range(3):
            bracket = _msub(_mmul(pauli[i], pauli[j]), _mmul(pauli[j], pauli[i]))
            for l in range(3):
                # [E_i, E_j] = sum_l m_l E_l with m_l = tr(E_l [E_i, E_j]) / 2,
                # and [i ad E_i, i ad E_j] = i ad(i [E_i, E_j]), so c = i m
                re, im = _trace(_mmul(pauli[l], bracket))
                c = (Fraction(-im, 2), Fraction(re, 2))
                if c != (-2 * _epsilon(i, j, l), 0):
                    problems.append(f"Pauli bracket gives c_{i}{j}{l} = {c}")
                n_re, d_re, n_im, d_im = constants[i][j][l]
                if (Fraction(n_re, d_re), Fraction(n_im, d_im)) != c:
                    problems.append(
                        f"structure constant c_{i}{j}{l} is {constants[i][j][l]}, want {c}"
                    )
    return problems


def _epsilon(i, j, l):
    return (i - j) * (j - l) * (l - i) // 2


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _mmul(a, b):
    return tuple(
        tuple(
            (sum(_cmul(a[r][t], b[t][s])[0] for t in range(2)),
             sum(_cmul(a[r][t], b[t][s])[1] for t in range(2)))
            for s in range(2)
        )
        for r in range(2)
    )


def _msub(a, b):
    return tuple(
        tuple((a[r][s][0] - b[r][s][0], a[r][s][1] - b[r][s][1]) for s in range(2))
        for r in range(2)
    )


def _trace(a):
    return (a[0][0][0] + a[1][1][0], a[0][0][1] + a[1][1][1])


def evaluate(text, values):
    """Value of a printed scalar such as `-q/(q^2 + 1)` at Fraction values."""
    tokens = re.findall(r"\d+|[A-Za-z_]\w*|[-+*/^()]", text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"unexpected characters in {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        value = term()
        while peek() in ("+", "-"):
            value = value + term() if take() == "+" else value - term()
        return value

    def term():
        value = unary()
        while peek() in ("*", "/"):
            value = value * unary() if take() == "*" else value / unary()
        return value

    def unary():
        if peek() == "-":
            take()
            return -unary()
        value = atom()
        if peek() == "^":
            take()
            value = value ** int(unary())
        return value

    def atom():
        tok = take()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return value
        if tok.isdigit():
            return Fraction(int(tok))
        return values[tok]

    value = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return value
