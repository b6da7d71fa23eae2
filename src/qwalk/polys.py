"""Exact univariate polynomial helpers over integers / rationals.

Polynomials are sequences of coefficients in descending powers,
``p[0]`` the leading coefficient.
"""

from __future__ import annotations

import itertools
import math
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


def _primes():
    """The literal primes of ``_PRIMES31``, then the primes below them in
    descending order: the one prime sequence of every residue computation."""
    table = _PRIMES31
    yield from table
    c = table[-1] - 2
    while c > 1:
        if _is_prime(c):
            yield c
        c -= 2


def _primes_above(bound, more=0):
    """The shortest prefix of ``_primes()`` whose product exceeds ``bound``,
    then the ``more`` primes that follow it."""
    primes, product, rest = [], 1, _primes()
    while product <= bound:
        primes.append(next(rest))
        product *= primes[-1]
    return tuple(primes) + tuple(itertools.islice(rest, more))


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

    The gcd is taken modulo the primes of ``_primes()`` in turn, with its own
    Garner lift, independent of ``_crt``.  Primes whose gcd has the smallest
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


def _crt(residues, primes):
    """Integers in the symmetric range from their residues modulo ``primes``,
    one row each: Garner's mixed-radix digits in int64, each pair joined
    into one limb d_i + p_i d_(i+1) < 2**62, then one object dot with the
    limbs' radices.  One limb, over one or two primes, stays int64."""
    digits = residues.copy()
    for i, p in enumerate(primes):
        for j in range(i):
            digits[:, i] = (digits[:, i] - digits[:, j]) % p * pow(primes[j], -1, p) % p
    limbs = digits[:, ::2].copy()
    limbs[:, :len(primes) // 2] += digits[:, 1::2] * np.array(primes[:-1:2], dtype=np.int64)
    modulus = math.prod(primes)
    if limbs.shape[1] == 1:
        values = limbs[:, 0]
    else:
        radices = np.array([math.prod(primes[:i]) for i in range(0, len(primes), 2)],
                           dtype=object)
        values = limbs.astype(object) @ radices
    return np.where(values > modulus // 2, values - modulus, values)


def _euclid_mod(a, b, p):
    """The monic gcd modulo the prime ``p`` < 2**31 of each pair of rows of
    two int64 residue arrays, zero-padded on the left: the gcds right-aligned
    in an array as wide as the wider input, and their degrees, -1 for a row
    that degenerates.

    All rows run one Euclid in lockstep: each divisor is one coefficient
    longer than the remainder it leaves, by pseudo-division (a scaled by b's
    leading coefficient, a unit mod p, which leaves the gcd unchanged).  A
    zero remainder leaves the last divisor as the gcd, a nonzero constant
    leaves 1, and any other remainder with leading coefficient 0 mod p
    degenerates the row.  Residue products stay below 2**62, in int64.
    """
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    gcds = np.zeros(a.shape, dtype=np.int64)
    degrees = np.full(len(a), -1)
    live = np.arange(len(a))
    while len(live):
        ended = b[:, 0] == 0
        if ended.any():
            found = ended & (a[:, 0] != 0) & ~b.any(axis=1)
            inverses = np.array([pow(c, -1, p) for c in a[found, 0].tolist()], dtype=np.int64)
            gcds[live[found], -a.shape[1]:] = a[found] * inverses[:, None] % p
            degrees[live[found]] = a.shape[1] - 1
            a, b, live = a[~ended], b[~ended], live[~ended]
        if b.shape[1] == 1:
            gcds[live, -1], degrees[live] = 1, 0
            break
        width = b.shape[1]
        lead = b[:, :1]
        for i in range(a.shape[1] - width + 1):
            c = a[:, i:i + 1].copy()
            a[:, i:] *= lead
            a[:, i:i + width] -= c * b
            a[:, i:] %= p
        a, b = b, a[:, a.shape[1] - width + 1:]
    return gcds, degrees


def _padded(polys):
    """The polynomials as one object array, zero-padded on the left."""
    width = max(map(len, polys))
    return np.array([[0] * (width - len(r)) + r for r in polys], dtype=object)


def poly_gcds(p, q):
    """``poly_gcd`` h of each pair p[i], q[i] of integer polynomials, at
    least one of each pair monic, and the cofactor p[i] / h, as pairs, from
    one vectorised run over the distinct pairs.

    The pairs run one lockstep Euclid modulo each prime of ``_primes()`` in
    turn (``_euclid_mod``).  Degree 0 at the first prime proves a pair
    coprime: a common factor over Q is, by Gauss's lemma, an integer
    polynomial dividing the monic input, so it keeps its degree mod p.  The
    other pairs have their modular gcds lifted to integers in the symmetric
    range (``_crt``) after each prime, and a lift is accepted when it divides
    both inputs exactly, which is ``poly_gcd``'s proof; the quotient of p[i]
    is the cofactor.  Each distinct (input, lift) pair is divided once per
    run, however many pairs share it.  A monic divisor h of degree k of the
    monic input f, of degree d, has every coefficient at most
    C(k, k // 2) M(h) <= 2**d ||f||_2 (Mignotte; M is the Mahler measure,
    and M(h) <= M(f) <= ||f||_2 by Landau), so the lift stops at the end of
    ``_primes_above`` twice the largest such bound of the run.  A pair
    that degenerates, changes degree between primes or is never accepted
    goes to ``poly_gcd``.
    """
    pairs = list(zip(map(tuple, p), map(tuple, q)))
    distinct = list(dict.fromkeys(pairs))
    if not distinct:
        return []
    known = {x: _integer_poly(x) for x in dict.fromkeys(x for pair in distinct for x in pair)}
    heads, rows = ([known[pair[side]] for pair in distinct] for side in (0, 1))
    if any(a[0] != 1 and b[0] != 1 for a, b in zip(heads, rows)):
        raise ValueError("poly_gcds needs at least one monic polynomial in each pair")
    quotients = {}

    def divide(num, den):
        """The quotient of ``num`` by the monic ``den``, None if inexact."""
        key = (num, tuple(den))
        if key not in quotients:
            quotient, rest = _divmod_monic(known[num], den)
            quotients[key] = quotient if rest == [0] else None
        return quotients[key]

    a_int, b_int = _padded(heads), _padded(rows)
    limit = max(2 ** len(known[f]) * (math.isqrt(sum(c * c for c in known[f])) + 1)
                for f in dict.fromkeys(a if known[a][0] == 1 else b for a, b in distinct))
    found = [None] * len(distinct)
    live, degree, primes, stack = np.arange(len(distinct)), None, [], []
    for prime in _primes_above(limit):
        g, d = _euclid_mod((a_int[live] % prime).astype(np.int64),
                           (b_int[live] % prime).astype(np.int64), prime)
        if degree is None:  # the first prime
            for i in live[d == 0].tolist():
                found[i] = [1]
            degree = d
        keep = (d == degree) & (degree > 0)
        live, degree, stack = live[keep], degree[keep], [s[keep] for s in stack] + [g[keep]]
        if not len(live):
            break
        primes.append(prime)
        lifted = _crt(np.stack(stack, axis=-1).reshape(-1, len(primes)), primes)
        accepted = np.zeros(len(live), dtype=bool)
        for j, (i, k, cand) in enumerate(zip(live.tolist(), degree.tolist(),
                                             lifted.reshape(len(live), -1).tolist())):
            cand = cand[-k - 1:]
            if all(divide(x, cand) is not None for x in distinct[i]):
                found[i], accepted[j] = cand, True
        live, degree, stack = live[~accepted], degree[~accepted], [s[~accepted] for s in stack]
        if not len(live):
            break
    results = {}
    for key, h, a, b in zip(distinct, found, heads, rows):
        h = h or poly_gcd(a, b)
        results[key] = (h, a if h == [1] else divide(key[0], h))
    return [results[key] for key in pairs]
