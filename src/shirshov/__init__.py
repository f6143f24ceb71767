"""Identity-product interval decompositions, graded word factorizations,
and Shirshov base verification for finitely presented algebras.

Each module's ``__all__`` is the one list of its public names.
"""

from .groups import *
from .intervals import *
from .rewriting import *
from .spanning import *
from .words import *

__version__ = "0.1.0"
