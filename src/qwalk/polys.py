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
    a, b = (poly_trim(list(x) or [0]) for x in (p, q))
    # the type test is a fast path: the ABC check is slow on plain ints
    if not all(type(c) is int or isinstance(c, numbers.Integral) for c in a + b):
        raise ValueError("integer coefficients needed")
    a, b = [int(c) for c in a], [int(c) for c in b]
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
    limbs' radices.  When every value lies within p_0 p_1 of 0, as over one
    or two primes, they stay int64: the digits past the first limb are then
    all 0, or all p_i - 1 for a negative value, which is the limb - p_0 p_1."""
    digits = residues.copy()
    for i, p in enumerate(primes):
        for j in range(i):
            digits[:, i] = (digits[:, i] - digits[:, j]) % p * pow(primes[j], -1, p) % p
    limbs = digits[:, ::2].copy()
    limbs[:, :len(primes) // 2] += digits[:, 1::2] * np.array(primes[:-1:2], dtype=np.int64)
    high = digits[:, 2:]
    negative = high.any(axis=1) & (high == np.array(primes[2:], dtype=np.int64) - 1).all(axis=1)
    if not (high.any(axis=1) & ~negative).any():
        radix = math.prod(primes[:2])
        return limbs[:, 0] - (negative if len(primes) > 2 else limbs[:, 0] > radix // 2) * radix
    radices = np.array([math.prod(primes[:i]) for i in range(0, len(primes), 2)], dtype=object)
    values = limbs.astype(object) @ radices
    modulus = math.prod(primes)
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


def _quotients_mod(num, den, p):
    """The quotients modulo the prime ``p`` of the int64 residue rows ``num``
    (..., rows, width) by the monic rows ``den`` of one degree k, as wide
    as ``num``: one lockstep long division."""
    k = den.shape[-1] - 1
    r, quotients = num.copy(), np.zeros_like(num)
    for i in range(num.shape[-1] - k):
        c = r[..., i:i + 1].copy()
        quotients[..., i + k] = c[..., 0]
        r[..., i:i + k + 1] = (r[..., i:i + k + 1] - c * den) % p
    return quotients


def _times(x, y):
    """The products of the polynomial rows of ``x`` and ``y`` (broadcast): in
    int64 when no sum of min(widths) products of their largest entries
    reaches 2**63."""
    x, y = sorted((x, y), key=lambda z: z.shape[-1])
    top = x.shape[-1] * int(abs(x).max(initial=0)) * int(abs(y).max(initial=0))
    x, y = (z.astype(np.int64 if top < 2**63 else object) for z in (x, y))
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
                   + (x.shape[-1] + y.shape[-1] - 1,), dtype=x.dtype)
    for j in range(x.shape[-1]):
        out[..., j:j + y.shape[-1]] += x[..., j:j + 1] * y
    return out


def poly_gcds(p, q):
    """``poly_gcd`` h of each pair of rows p[i], q[i] of two integer arrays
    (int64 or object, rows zero-padded on the left, one of each pair monic)
    and the cofactor p[i] / h, from one vectorised run over the distinct
    pairs: arrays as wide as the wider input and as ``p``, int64 when the
    bound below fits.

    The pairs run one lockstep Euclid modulo each prime of ``_primes()`` in
    turn (``_euclid_mod``).  Degree 0 at the first prime proves a pair
    coprime: by Gauss's lemma a common factor divides the monic input over
    Z, so it keeps its degree mod p.  Otherwise h and the quotients q, r of
    both inputs by it (``_quotients_mod``) are lifted to the symmetric range
    (``_crt``) and accepted when h q = p[i] and h r = q[i] exactly
    (``_times``), ``poly_gcd``'s proof.  A divisor of an input f of degree d
    has every coefficient at most 2**d ||f||_2 (Mignotte and Landau), so at
    most 2**(w - 1) sqrt(w) c for rows w wide whose largest |coefficient| is
    c: a lift past that is rejected unmultiplied, and the lift ends at
    ``_primes_above`` twice it.  A pair with a zero input, or that
    degenerates, changes degree or is never accepted goes to ``poly_gcd``.
    """
    p, q = np.asarray(p), np.asarray(q)
    if not all(x.dtype == object or x.dtype.kind in "iu" for x in (p, q)):
        raise ValueError("integer coefficients needed")
    width = max(p.shape[1], q.shape[1])
    rows = np.zeros((len(p), 2 * width), dtype=np.result_type(p, q))
    rows[:, width - p.shape[1]:width], rows[:, 2 * width - q.shape[1]:] = p, q
    # the distinct pairs: rows with one hash of their residues, then equal
    key = (rows % _PRIMES31[0]).astype(np.int64) @ np.cumprod(
        np.full(2 * width, 1000003, dtype=np.int64))  # wraps modulo 2**64
    seen = {}
    slot = np.array([seen.setdefault(k, i) for i, k in enumerate(key.tolist())], dtype=int)
    slot = np.where((rows == rows[slot]).all(axis=1), slot, np.arange(len(rows)))
    distinct = np.flatnonzero(slot == np.arange(len(rows)))
    both = rows[distinct].reshape(-1, 2, width).transpose(1, 0, 2)  # p and q rows
    leads = np.take_along_axis(both, (both != 0).argmax(axis=2)[..., None], axis=2)[..., 0]
    if (leads != 1).all(axis=0).any():
        raise ValueError("poly_gcds needs at least one monic polynomial in each pair")
    top = int(abs(both).max(initial=0))
    limit = 2 ** width * (math.isqrt(width * top * top) + 1)
    gcds, cofactors = (np.zeros((len(distinct), width),
                                dtype=np.int64 if limit < 2**63 else object) for _ in range(2))
    live = np.flatnonzero((leads != 0).all(axis=0))
    degree, primes, stack = None, [], []
    for prime in _primes_above(limit):
        res = (both[:, live] % prime).astype(np.int64)
        g, d = _euclid_mod(res[0, :, width - p.shape[1]:].copy(),
                           res[1, :, width - q.shape[1]:].copy(), prime)
        if degree is None:  # the first prime
            coprime = live[d == 0]
            gcds[coprime, -1], cofactors[coprime] = 1, both[0, coprime]
            degree = d
        keep = (d == degree) & (degree > 0)
        live, degree, g, res = live[keep], degree[keep], g[keep], res[:, keep]
        stack = [s[keep] for s in stack]
        if not len(live):
            break
        for k in set(degree.tolist()):
            of_k = degree == k
            res[:, of_k] = _quotients_mod(res[:, of_k], g[of_k, -k - 1:], prime)
        primes.append(prime)
        stack.append(np.concatenate([g[None], res]).transpose(1, 0, 2))
        lifted = _crt(np.stack(stack, axis=-1).reshape(-1, len(primes)), primes)
        lifted = lifted.reshape(len(live), 3, width)  # h, q and r
        accepted = (abs(lifted) <= limit // 2).all(axis=(1, 2))
        for k in set(degree[accepted].tolist()):
            at = np.flatnonzero(accepted & (degree == k))
            products = _times(lifted[at, :1, -k - 1:], lifted[at, 1:, k:])
            accepted[at] = (products == both[:, live[at]].transpose(1, 0, 2)).all(axis=(1, 2))
            ok = at[accepted[at]]
            gcds[live[ok], -k - 1:] = lifted[ok, 0, -k - 1:]
            cofactors[live[ok], k:] = lifted[ok, 1, k:]
        live, degree, stack = live[~accepted], degree[~accepted], [s[~accepted] for s in stack]
        if not len(live):
            break
    for i in np.flatnonzero(~gcds.any(axis=1)).tolist():  # undecided
        x, y = (poly_trim(row.tolist()) for row in both[:, i])
        h = poly_gcd(x, y)
        cofactor = _divmod_monic(x, h)[0]
        gcds[i, width - len(h):], cofactors[i, width - len(cofactor):] = h, cofactor
    inverse = np.searchsorted(distinct, slot)
    return gcds[inverse], cofactors[inverse, width - p.shape[1]:]
