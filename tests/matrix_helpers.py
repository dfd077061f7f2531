"""Dense-matrix helpers that only the tests' oracles use."""

from springerfiber.exactlin import Matrix, unit_vector


def identity(n: int) -> Matrix:
    return Matrix(unit_vector(n, i + 1) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    return Matrix(zip(*m.rows))


def is_zero(m: Matrix) -> bool:
    return all(x == 0 for row in m.rows for x in row)
