"""The exceptions the command line maps to exit codes, in one small module
so that catching them loads none of the modules that raise them.
racah.analyzer and racah.rewriter re-export them."""


class ConsistencyError(AssertionError):
    """A closed-form criterion disagreed with its structural oracle."""


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class RewriteLimitError(RuntimeError):
    pass
