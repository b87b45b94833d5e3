"""Cubic class sieve: experiments on 3-divisibility of real quadratic
class numbers.

The modules are the API: the witness sieve (honda), exact form-class
oracles (classnum), exact integer kernels (intmath), count-series
machinery (counting), and a batch CLI (cli).  Import each name from its
module; the package itself exposes only __version__.
"""

__version__ = "0.1.0"
