"""Entry tuples and element codes for the tests, by arithmetic of their own.

`SubgroupModN` stores each element (a, b, c, d) mod n as the code
((a*n + b)*n + c)*n + d.  The tests compare element sets as entry tuples,
decoded here rather than through `modmatrix._decode`.
"""


def encode(g, n):
    a, b, c, d = g
    return ((a * n + b) * n + c) * n + d


def decode(code, n):
    code, d = divmod(code, n)
    code, c = divmod(code, n)
    a, b = divmod(code, n)
    return a, b, c, d


def entries(G):
    """The element set of a `SubgroupModN` as entry tuples."""
    return frozenset(decode(code, G.n) for code in G.codes)
