"""Exact univariate polynomial helpers over integers / rationals.

Polynomials are sequences of coefficients in descending powers,
``p[0]`` the leading coefficient.
"""

from __future__ import annotations

import numbers

import numpy as np


def poly_eval(coeffs, x):
    """Horner evaluation; exact for int/Fraction inputs."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def poly_trim(coeffs):
    i = 0
    while i < len(coeffs) - 1 and coeffs[i] == 0:
        i += 1
    return list(coeffs[i:])


def poly_degree(coeffs):
    t = poly_trim(coeffs)
    if len(t) == 1 and t[0] == 0:
        return -1
    return len(t) - 1


# The largest primes below 2**61, as literals so that import computes nothing.
_PRIMES = (
    2305843009213693951, 2305843009213693921, 2305843009213693907,
    2305843009213693723, 2305843009213693693, 2305843009213693669,
    2305843009213693613, 2305843009213693561, 2305843009213693549,
    2305843009213693487, 2305843009213693421, 2305843009213693373,
    2305843009213693277, 2305843009213693193, 2305843009213693153,
    2305843009213693133,
)

# The largest primes below 2**31, for residue arithmetic in floats and int64.
_PRIMES31 = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249,
)

# Miller-Rabin with these bases is deterministic below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes(table=_PRIMES):
    """The literal primes of ``table``, then the primes below them in
    descending order."""
    yield from table
    c = table[-1] - 2
    while c > 1:
        if _is_prime(c):
            yield c
        c -= 2


def _divmod_monic(num, den, p=0):
    """Quotient and remainder of a polynomial by a monic ``den``: exact over
    the integers, or over GF(p) when ``p`` is given."""
    k = len(num) - len(den) + 1
    if k <= 0:
        return [0], list(num)
    r = list(num)
    tail = den[1:]
    for i in range(k):
        c = r[i]
        if c:
            seg = zip(r[i + 1:i + len(den)], tail)
            r[i + 1:i + len(den)] = ([(x - c * y) % p for x, y in seg] if p
                                     else [x - c * y for x, y in seg])
    return r[:k], poly_trim(r[k:] or [0])


def poly_divides(den, num):
    """True iff the monic ``den`` divides ``num``, both integer polynomials."""
    return _divmod_monic(num, den)[1] == [0]


def _gcd_mod(a, b, p):
    """Monic gcd over GF(p) of two polynomials, not both zero."""
    a, b = poly_trim([c % p for c in a]), poly_trim([c % p for c in b])
    while b != [0]:
        inv = pow(b[0], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _divmod_monic(a, b, p)[1]
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in a]


def _integer_poly(coeffs):
    out = poly_trim(list(coeffs) or [0])
    # the type test is a fast path: the ABC check is slow on plain ints
    if not all(type(c) is int or isinstance(c, numbers.Integral) for c in out):
        raise ValueError("integer coefficients needed")
    return [int(c) for c in out]


def poly_gcd(p, q):
    """Monic gcd of integer polynomials, at least one of them monic.

    The gcd is taken modulo 61-bit primes.  Primes whose gcd has the smallest
    degree seen are combined by the Chinese remainder theorem into a monic
    integer candidate H with coefficients in the symmetric residue range, and
    H is accepted only when it divides both inputs exactly over the integers.
    That is a proof: H then divides the true gcd h (monic, since it divides a
    monic input), while deg H >= deg h because h mod p divides every modular
    gcd; so H = h.  Any other input raises ValueError.
    """
    a, b = _integer_poly(p), _integer_poly(q)
    if a[0] != 1 and b[0] != 1:
        raise ValueError("poly_gcd needs at least one monic polynomial")
    if a == [0] or b == [0]:
        return b if a == [0] else a
    deg, modulus, residues = None, 1, None
    for prime in _primes():
        g = _gcd_mod(a, b, prime)
        if len(g) == 1:
            return [1]
        if deg is not None and len(g) - 1 > deg:
            continue  # unlucky prime: h mod p is a proper divisor of g
        if deg is None or len(g) - 1 < deg:
            deg, modulus, residues = len(g) - 1, prime, g
        else:
            # Garner step: residues mod modulus and g mod prime -> mod modulus*prime
            inv = pow(modulus, -1, prime)
            residues = [x + modulus * ((y - x) * inv % prime)
                        for x, y in zip(residues, g)]
            modulus *= prime
        half = modulus // 2
        cand = [x - modulus if x > half else x for x in residues]
        if poly_divides(cand, a) and poly_divides(cand, b):
            return cand


# The Euclidean remainder sequences of ``poly_coprime`` run modulo this prime:
# products of two residues stay below 2**62, inside int64.
_EUCLID_PRIME = _PRIMES31[0]


def _coprime_mod(a, b, prime):
    """The indices i of the rows of two int64 residue arrays whose Euclidean
    remainder sequence of (a_i, b_i) modulo ``prime`` ends in a nonzero
    constant, every divisor's leading coefficient being nonzero.

    All rows run in lockstep: each divisor b is one coefficient longer than
    the remainder it leaves, by pseudo-division (a scaled by b's leading
    coefficient, a unit mod ``prime``, which leaves the gcd unchanged).  A
    row whose next divisor has leading coefficient 0 mod ``prime``, a zero
    remainder included, leaves the run undecided.
    """
    live = np.arange(len(b))
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    while len(live):
        nonzero = b[:, 0] != 0
        if not nonzero.all():
            a, b, live = a[nonzero], b[nonzero], live[nonzero]
        if b.shape[1] == 1:
            break
        width = b.shape[1]
        lead = b[:, :1]
        for i in range(a.shape[1] - width + 1):
            c = a[:, i:i + 1].copy()
            a[:, i:] *= lead
            a[:, i:i + width] -= c * b
            a[:, i:] %= prime
        a, b = b, a[:, a.shape[1] - width + 1:]
    return live


def poly_coprime(p, q):
    """True iff the integer polynomials ``p`` and ``q``, at least one of them
    monic, are coprime.  ``q`` may also be a sequence of polynomials, each
    of that kind, and ``p`` then one polynomial or one for each; the
    verdicts come as one bool array.

    The rows first run one vectorised Euclid modulo ``_EUCLID_PRIME``
    (``_coprime_mod``).  A remainder sequence that ends in a nonzero constant
    proves coprimality over Q: a common factor over Q is, by Gauss's lemma,
    an integer polynomial dividing the monic input, so its leading
    coefficient is a unit and it keeps its degree mod p.  The other rows,
    those whose sequence degenerates or ends non-trivially, go to the
    certified ``poly_gcd``.
    """
    single = not len(q) or np.ndim(q[0]) == 0
    rows = [_integer_poly(r) for r in ([q] if single else q)]
    heads = [tuple(a) for a in p] if len(p) and np.ndim(p[0]) else [tuple(p)] * len(rows)
    known = {a: _integer_poly(a) for a in dict.fromkeys(heads)}  # each converted once
    heads = [known[a] for a in heads]
    if any(a[0] != 1 and r[0] != 1 for a, r in zip(heads, rows)):
        raise ValueError("poly_coprime needs at least one monic polynomial")
    a, b = (np.array([[0] * (max(map(len, side)) - len(r)) + [c % _EUCLID_PRIME for c in r]
                      for r in side], dtype=np.int64) for side in (heads, rows))
    verdicts = np.zeros(len(rows), dtype=bool)
    verdicts[_coprime_mod(a, b, _EUCLID_PRIME)] = True
    for i in np.flatnonzero(~verdicts):
        verdicts[i] = poly_degree(poly_gcd(heads[i], rows[i])) == 0
    return bool(verdicts[0]) if single else verdicts


def poly_derivative(coeffs):
    d = len(coeffs) - 1
    return [c * (d - i) for i, c in enumerate(coeffs[:-1])] or [0]


def poly_squarefree(coeffs):
    """p / gcd(p, p') for a monic integer polynomial p: monic, integral, with
    the roots of p each once."""
    p = _integer_poly(coeffs)
    return _divmod_monic(p, poly_gcd(p, poly_derivative(p)))[0]
