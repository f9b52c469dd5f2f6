"""cliffcalc: sparse Clifford algebra kernel and expression calculator.

Usage sketch::

    from cliffcalc import from_terms, geometric_product, euclidean, render

    x = from_terms([[], [1], [2], [2, 3]], [1, 2, 3, 4])
    print(render(geometric_product(x, x, euclidean())))
    # - 2 + 4e_1 + 6e_2 + 8e_23 + 16e_123

The metric is never stored inside a value: every metric-dependent product
takes a :class:`Signature` argument.  The ``cliffcalc`` console script runs
the interactive calculator; its module, :mod:`cliffcalc.repl`, loads on first
use of :class:`Session`, :func:`eval_expr` or :func:`run_command`.
"""

__version__ = "0.1.0"

from .blade import (  # noqa: F401
    MAX_INDEX,
    Blade,
    SignedBlade,
    blade_key,
    blade_product,
    blade_wedge,
    canonicalize,
    grade,
)
from .metric import (  # noqa: F401
    UNBOUNDED,
    Signature,
    euclidean,
    generator_square,
    grassmann,
)
from .multivector import (  # noqa: F401
    Multivector,
    as_1vector,
    basis,
    from_scalar,
    from_terms,
    zero,
)
from .products import (  # noqa: F401
    geometric_product,
    left_contraction,
    power,
    right_contraction,
    wedge,
)
from .rand import RandomSpec, SplitMix64, random_multivector  # noqa: F401
from .textio import (  # noqa: F401
    PrintOptions,
    MultivectorFileError,
    MultivectorParseError,
    load,
    parse_multivector,
    render,
    save,
)
from .exprparse import ExpressionSyntaxError, parse_expr  # noqa: F401


def __getattr__(name: str):
    # the calculator, cliffcalc.repl, loads (and with it argparse and shlex)
    # when it or one of its names here is first read, so that
    # ``import cliffcalc`` does not pay for it
    if name in ("repl", "Session", "eval_expr", "run_command"):
        # importing the submodule binds it here as ``repl`` too
        from .repl import Session, eval_expr, run_command

        globals().update(Session=Session, eval_expr=eval_expr, run_command=run_command)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
