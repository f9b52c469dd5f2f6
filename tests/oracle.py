"""Independent reference implementations used to check the fast paths.

Everything here is deliberately naive and shares no code with the library's
sign computation: signs come from literally simulating adjacent
transpositions, and contractions from the double sum over grade projections.
"""

from __future__ import annotations

from cliffcalc import Multivector, Signature, UNBOUNDED, geometric_product, zero


def count_inversions(seq) -> int:
    """Quadratic inversion count: pairs (i < j) with seq[i] > seq[j]."""
    seq = list(seq)
    total = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                total += 1
    return total


def bubble_sort_parity(seq) -> int:
    """Sign from literally bubble-sorting the sequence, swap by swap."""
    seq = list(seq)
    sign = 1
    swapped = True
    while swapped:
        swapped = False
        for k in range(len(seq) - 1):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
                swapped = True
    return sign


def generator_sign(sig: Signature, i: int) -> int:
    # independent restatement of the three-region metric
    if sig.p is UNBOUNDED:
        return 1
    if i <= sig.p:
        return 1
    if sig.q is UNBOUNDED:
        return -1
    if i <= sig.p + sig.q:
        return -1
    return 0


def rewrite_blade_product(a, b, sig: Signature):
    """Blade product by one-rewrite-at-a-time reduction to normal form.

    Scans the concatenated index sequence and applies a single defining
    relation per pass: swap an adjacent descending pair (factor -1) or
    delete an adjacent equal pair (factor sigma(i)), until the sequence is
    strictly increasing.
    """
    seq = list(a) + list(b)
    sign = 1
    changed = True
    while changed:
        changed = False
        for k in range(len(seq) - 1):
            if seq[k] > seq[k + 1]:
                seq[k], seq[k + 1] = seq[k + 1], seq[k]
                sign = -sign
                changed = True
                break
            if seq[k] == seq[k + 1]:
                factor = generator_sign(sig, seq[k])
                if factor == 0:
                    return 0, ()
                sign *= factor
                del seq[k:k + 2]
                changed = True
                break
    return sign, tuple(seq)


def product_by_rewriting(a: Multivector, b: Multivector, sig: Signature, grade=None) -> Multivector:
    """Multivector geometric product built on the rewriting oracle.

    With ``grade``, a function of the two blades, only pairs whose product
    has that grade are summed; coefficients are summed in pair order.
    """
    acc = {}
    for blade_a, ca in a.terms():
        for blade_b, cb in b.terms():
            sign, blade = rewrite_blade_product(blade_a, blade_b, sig)
            if sign == 0 or grade is not None and len(blade) != grade(blade_a, blade_b):
                continue
            acc[blade] = acc.get(blade, 0.0) + ca * cb * sign
    return Multivector({blade: c for blade, c in acc.items() if c != 0.0})


def contraction_by_rewriting(a: Multivector, b: Multivector, sig: Signature, side: str) -> Multivector:
    """Contraction as the rewriting product's pairs of grade |b| - |a| (left)
    or |a| - |b| (right), summed in pair order (no grade projections)."""
    if side == "left":
        return product_by_rewriting(a, b, sig, lambda x, y: len(y) - len(x))
    return product_by_rewriting(a, b, sig, lambda x, y: len(x) - len(y))


def contraction_by_definition(a: Multivector, b: Multivector, sig: Signature, side: str) -> Multivector:
    """Contraction as the literal double sum of grade projections."""
    total = zero()
    for r in set(a.grades()):
        for s in set(b.grades()):
            part = geometric_product(a.grade_part(r), b.grade_part(s), sig)
            k = s - r if side == "left" else r - s
            if k >= 0:
                total = total + part.grade_part(k)
    return total
