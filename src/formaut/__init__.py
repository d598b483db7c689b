"""formaut: exact machinery for automorphism groups of smooth forms.

Subpackages and modules:

* cyclotomic  -- exact arithmetic in Q(zeta_N) and the text syntax of scalars and forms
* forms       -- homogeneous polynomials, matrices and the substitution action
* smoothness  -- Groebner-based smooth/singular certification
* matgroups   -- finite matrix-group closure, orders, invariant dimensions
* diaglattice -- block-scalar and semi-permutation stabilizers via Smith
                 normal form
* sequences   -- subdegree sequences, the JC table, Fermat-test ratios and
                 the finite classification searches
* structure   -- decomposition certificates and the associated exact
                 sequences, with a compositional tier for very large groups
* catalog     -- the classification table entries and their verification
                 pipeline
* cli         -- the `formaut` command

Everything is exact: rationals, cyclotomic integers and integer lattices;
no floating point enters any verdict.
"""

__version__ = "0.1.0"

from .cyclotomic import CycNum, parse_scalar, root_of_unity, scalar_to_str
from .forms import ExactMatrix, Form, act, parse, partials, serialize
from .sequences import SubdegreeSequence, jc, ratio

__all__ = [
    "CycNum", "ExactMatrix", "Form", "SubdegreeSequence",
    "act", "jc", "parse", "parse_scalar", "partials", "ratio", "root_of_unity",
    "scalar_to_str", "serialize",
]
