"""The 2h-fold tables the decomposition audit reads, built for tests."""

from bhbasis.counting import repr_multiset, repr_strict


def audit_tables(b, c_set, h, max_n):
    """(multiset of B, multiset of B minus c_set, strict of B), 2h-fold over [0, max_n]."""
    a = [x for x in b if x not in set(c_set)]
    return repr_multiset(b, 2 * h, max_n), repr_multiset(a, 2 * h, max_n), repr_strict(b, 2 * h, max_n)
