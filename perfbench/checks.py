"""Output checks, independent of the engine's arithmetic.

Expected invariants come from closed forms evaluated with this file's
own Fraction determinant:

* circle map z -> n-th roots of z^d: R = |n - d|, infinite when d = n;
* linear map of T^q: R = N = n |det(E - A/n)|, infinite when that is 0;
* split map with branches A_i: R = sum |det(E - A_i)|;
* the worked 3-valued torus example: R = N = 6.

Every finite report must also list exactly R fixed point classes with
pairwise distinct points and N <= R.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction


def frac_det(mat):
    """Determinant over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in row] for row in mat]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return det


def expected_invariants(meta):
    """(R, N) predicted by the closed forms; R is "infinite" or an int,
    N is None where the closed form does not fix it."""
    family = meta[0]
    if family == "circle":
        _, n, d = meta
        return ("infinite" if n == d else abs(n - d)), None
    if family == "linear":
        _, n, a = meta
        q = len(a)
        value = n * abs(frac_det([[Fraction(int(r == c)) - Fraction(a[r][c], n)
                                   for c in range(q)] for r in range(q)]))
        if value.denominator != 1:
            raise ArithmeticError(f"n |det(E - A/n)| = {value} is not an integer")
        return ("infinite" if value == 0 else int(value)), (None if value == 0 else int(value))
    if family == "split":
        total = 0
        for a, _ in meta[1]:
            q = len(a)
            total += abs(frac_det([[int(r == c) - a[r][c] for c in range(q)] for r in range(q)]))
        return int(total), None
    if family == "torus3":
        return 6, 6
    raise ValueError(f"no closed form for {family!r}")


def check_report(meta, doc):
    """Problems with one structured analysis report."""
    problems = []
    r_expected, n_expected = expected_invariants(meta)
    r = doc.get("reidemeister")
    if r != r_expected:
        problems.append(f"R = {r!r}, expected {r_expected!r}")
    if r == "infinite":
        return problems
    classes = doc.get("fixed_point_classes")
    if classes is None or len(classes) != r:
        problems.append(f"{None if classes is None else len(classes)} fixed point classes for R = {r}")
        return problems
    points = [tuple(c["point"]) for c in classes if c["point"] is not None]
    if len(set(points)) != len(points):
        problems.append("fixed point classes share a point")
    nielsen = doc.get("nielsen")
    if nielsen is not None and not 0 <= nielsen <= r:
        problems.append(f"N = {nielsen} outside [0, R = {r}]")
    if n_expected is not None and nielsen != n_expected:
        problems.append(f"N = {nielsen!r}, expected {n_expected}")
    return problems


def check_analysis(meta, code, text):
    """Check one ``analyze`` item: exit code 0 and a correct report."""
    if code != 0:
        return [f"exit code {code}"]
    return check_report(meta, json.loads(text))


def check_oracle(meta, code, text, brute_points):
    """Check one ``oracle-check`` item and its brute-force point set."""
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(text)
    problems = check_report(meta, doc)
    if not doc.get("oracle", {}).get("verdict"):
        problems.append("oracle verdict is not 'agree'")
    reported = sorted(
        tuple(Fraction(x) for x in c["point"]) for c in doc.get("fixed_point_classes", ())
    )
    if sorted(brute_points) != reported:
        problems.append("brute-force fixed points differ from the reported points")
    return problems


def check_plan(meta, code, text, replay):
    """Check one ``plan`` item: the moves, replayed by ``replay``, reach
    the goal.  ``replay(moves)`` returns the final placement or raises."""
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(text)
    goals = meta[1]
    try:
        final = replay(doc["moves"])
    except ValueError as exc:
        return [f"replay failed: {exc}"]
    if final != goals:
        return ["replayed schedule does not end at the goal"]
    if doc.get("length") != len(doc["moves"]):
        return ["reported length differs from the move count"]
    return []
