"""Structured exceptions for validators and searches.

Every axiom failure carries the witnessing elements, so a failed
construction can be reported without re-deriving the counterexample.
"""

from __future__ import annotations


class CechmodError(Exception):
    """Base class for all structured errors raised by this package.

    Every error is raised and caught in the process that made it, so none
    needs to survive pickling; a subclass whose only argument is its message
    inherits `Exception.__init__`.
    """


# -- finite group validation -------------------------------------------------

class NotAssociative(CechmodError):
    def __init__(self, a: int, b: int, c: int):
        self.witness = (a, b, c)
        super().__init__(f"multiplication is not associative at triple ({a}, {b}, {c})")


class NoIdentity(CechmodError):
    def __init__(self):
        super().__init__("no two-sided identity element exists")


class NoInverse(CechmodError):
    def __init__(self, a: int):
        self.witness = a
        super().__init__(f"element {a} has no two-sided inverse")


class TooLarge(CechmodError):
    def __init__(self, order: int, bound: int):
        self.order, self.bound = order, bound
        super().__init__(f"group order {order} exceeds the exhaustive-search bound {bound}")


# -- crossed module validation ----------------------------------------------

class EquivarianceFailure(CechmodError):
    def __init__(self, g: int, h: int):
        self.witness = (g, h)
        super().__init__(f"beta(alpha(g).h) != g*beta(h)*g^-1 at (g={g}, h={h})")


class PeifferFailure(CechmodError):
    def __init__(self, h: int, h2: int):
        self.witness = (h, h2)
        super().__init__(f"alpha(beta(h)).h' != h*h'*h^-1 at (h={h}, h'={h2})")


class BetaNotSurjective(CechmodError):
    def __init__(self):
        super().__init__("beta is not surjective")


# -- simplicial complexes -----------------------------------------------------

class EmptyInput(CechmodError):
    def __init__(self, msg: str = "no simplices given"):
        super().__init__(msg)


class IndexOutOfRange(CechmodError):
    def __init__(self, index: int, bound: int):
        self.index, self.bound = index, bound
        super().__init__(f"vertex index {index} out of range [0, {bound})")


class VertexOutOfRange(CechmodError):
    def __init__(self, vertex: int, count: int):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} not in complex with {count} vertices")


# -- cocycles and coboundaries -------------------------------------------------

class MissingEntry(CechmodError):
    def __init__(self, tup: tuple):
        self.witness = tup
        super().__init__(f"no value assigned on valid tuple {tup}")


class NormalizationFailure(CechmodError):
    def __init__(self, tup: tuple):
        self.witness = tup
        super().__init__(f"normalization violated at tuple {tup}")


class Cocyc1Failure(CechmodError):
    def __init__(self, i: int, j: int, k: int):
        self.witness = (i, j, k)
        super().__init__(f"pair/triple compatibility fails on triple ({i}, {j}, {k})")


class Cocyc2Failure(CechmodError):
    def __init__(self, i: int, j: int, k: int, l: int):
        self.witness = (i, j, k, l)
        super().__init__(f"quadruple compatibility fails on ({i}, {j}, {k}, {l})")


class ResultNotCocycle(CechmodError):
    def __init__(self, cause: CechmodError):
        self.cause = cause
        super().__init__(f"coboundary action produced invalid data: {cause}")


class SearchSpaceTooLarge(CechmodError):
    """A search ran out of its node `budget`.  Besides that limit it holds
    where the search stood: its `phase`, and the variable `depth` (1-based)
    of its `total` it was assigning."""

    def __init__(self, budget: int, phase: str, depth: int, total: int):
        self.budget, self.phase, self.depth, self.total = budget, phase, depth, total
        super().__init__(
            f"visited nodes exceed budget {budget} in {phase} at depth {depth} of {total}")


class StrategyMismatch(CechmodError):
    pass


# -- bundle groupoids ----------------------------------------------------------

class ActionNotFreeTransitive(CechmodError):
    pass


class TrivializationInvalid(CechmodError):
    pass


class NotA1Cocycle(CechmodError):
    def __init__(self, tup: tuple):
        self.witness = tup
        super().__init__(f"transition data violates the 1-cocycle identity at {tup}")


# -- gauge ---------------------------------------------------------------------

class ConventionMismatch(CechmodError):
    pass


# -- parsing -------------------------------------------------------------------

# C0 control characters and DEL, printed as \xNN so a report stays one plain line
_ESCAPES = {c: f"\\x{c:02x}" for c in [*range(32), 127]}


class ParseError(CechmodError):
    def __init__(self, path: str, line: int, msg: str):
        self.path, self.line = path, line
        super().__init__(f"{path}:{line}: {msg}".translate(_ESCAPES))


class SemanticError(CechmodError, ValueError):
    """Well-formed input that violates a definition (a table entry out of
    range, a value on a tuple that is not a simplex, a non-homomorphism)."""
