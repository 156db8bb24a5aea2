"""Reading ratio curves at a grid point, for tests."""


def ratio_at(curve, m: int) -> float:
    """The curve's ratio at M = m, which must lie on its grid exactly once."""
    (ratio,) = curve.ratio[curve.m == m]
    return float(ratio)
