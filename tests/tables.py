"""The 2h-fold tables the decomposition audit reads, built for tests."""

from bhbasis.collisions import deletion_set
from bhbasis.counting import repr_multiset, repr_strict


def audit_tables(b, records, h, max_n):
    """(multiset of B, multiset of B minus the deletion set of `records`,
    strict of B), 2h-fold over [0, max_n]."""
    c = deletion_set(records)
    a = [x for x in b if x not in c]
    return repr_multiset(b, 2 * h, max_n), repr_multiset(a, 2 * h, max_n), repr_strict(b, 2 * h, max_n)
